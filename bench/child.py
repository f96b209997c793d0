"""One benchmark invocation in a fresh process.

    python3 bench/child.py SPAWNED_AT STATS_JSON MODE [weilfit argv ...]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on the machine).  MODE is
"setup" (import weilfit and stop), "plain" (run weilfit.cli.main(argv) once)
or "traced" (the same, with spans recorded around every layer call).  The
timings, and the spans when traced, are written to STATS_JSON when the run
ends.  src/ must be on PYTHONPATH.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    spawned_at, stats_path, mode = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]
    from weilfit import cli
    stats = {"setup_s": time.monotonic() - spawned_at}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            import spans
            tracer = spans.Tracer().install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            stats["exit_code"] = cli.main(argv)
        except Exception:  # a crash is a measured failure, not a benchmark error
            stats["exit_code"] = None
            stats["error"] = traceback.format_exc()
        stats["wall_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        stats["cpu_s"] = (after.ru_utime - before.ru_utime
                          + after.ru_stime - before.ru_stime)
        stats["peak_rss_mb"] = after.ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
            stats["spans"] = tracer.spans
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
