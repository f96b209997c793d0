"""Benchmark of weilfit's study commands, end to end and layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--results FILE] [--write-reference]

Each workload is one fixed `weilfit cond-study`/`conv-study` invocation
(bench/spec.json), run again and again in fresh child processes
(bench/child.py) that call weilfit.cli.main(argv) with src/ on the path and
the BLAS thread count pinned.  A run lasts about --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
run's invocations of wall time and CPU time of cli.main, peak RSS, set-up
time (child start to the first call, also sampled by import-only children),
and study cells per second.

--trace 1 alternates plain and traced invocations and reports the per-layer
metrics: in a traced child every call into a layer's public functions, and
every numpy.linalg.svd call, is a span (bench/spans.py).

Every output CSV is checked (bench/check.py), and compared byte for byte
with the committed reference for the seed when there is one
(bench/reference/<workload>/seed-<n>.csv).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count study cells.  The exit code is 1 when an output
check failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "spec.json").read_text())

SETUP_SAMPLES = 2      # import-only children per round of an end-to-end run
MIN_INVOCATIONS = 3    # study invocations per run, whatever --seconds says
MIN_TRACED = 2         # plain/traced pairs per traced run
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(threads: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in
                         ("name", "version", "openblas configuration")).strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def workload_study(name: str, seed: int) -> check.Study:
    spec = SPEC["workloads"][name]
    return check.Study(spec["argv"], seed, spec.get("target_coeffs", ()))


def reference_for(study: check.Study, workload: str):
    folder = BENCH / "reference" / workload
    path = folder / f"seed-{study.cfg['seed']}.csv"
    if path.exists():
        return path.read_bytes().decode()
    base = folder / "seed-0.csv"
    if study.seed_free and base.exists():
        return base.read_bytes().decode().replace("# seed=0\n", f"# seed={study.cfg['seed']}\n", 1)
    return None


class Runner:
    """Starts children one at a time and checks what each study wrote."""

    def __init__(self, workdir: Path, threads: int):
        self.workdir = workdir
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def spawn(self, mode: str, argv=()) -> dict:
        self.count += 1
        stats_path = self.workdir / f"stats-{self.count}.json"
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), repr(spawned),
                 str(stats_path), mode, *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child ({mode}) ran longer than {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0 or not stats_path.exists():
            raise BenchError(f"child ({mode}) exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(stats_path.read_text())

    def invoke(self, study: check.Study, mode: str, checker) -> dict:
        out = self.workdir / f"out-{self.count + 1}.csv"
        stats = self.spawn(mode, study.argv + ["--out", str(out)])
        stats["text"] = out.read_bytes().decode() if out.exists() else None  # keep \r\n
        if stats.get("error") or stats["exit_code"] != 0 or stats["text"] is None:
            print(f"study failed (exit {stats['exit_code']}): {stats.get('error', '')}",
                  file=sys.stderr)
            stats["failed"] = study.cells
        else:
            stats["failed"] = checker(stats["text"])
        return stats


class Checker:
    """Checks each distinct CSV text once and counts byte-identical ones."""

    def __init__(self, study: check.Study, reference):
        self.study, self.reference = study, reference
        self.failed = {}
        self.identical = 0

    def __call__(self, text: str) -> int:
        if text not in self.failed:
            errors = check.check(self.study, text, SPEC["tolerance"], self.reference)
            for cell, message in errors[:10]:
                print(f"output check failed at {cell}: {message}", file=sys.stderr)
            self.failed[text] = check.failed_cells(self.study, errors)
        self.identical += text == self.reference
        return self.failed[text]


def measure(runner: Runner, study: check.Study, checker, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    runner.spawn("setup")  # warm the file cache; not counted
    invocations, traced, setups = [], [], []
    rounds = []  # duration of each round
    while True:
        began = time.monotonic()
        if not trace:
            setups += [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        invocations.append(runner.invoke(study, "plain", checker))
        if trace:
            traced.append(runner.invoke(study, "traced", checker))
        rounds.append(time.monotonic() - began)
        # stop when the next round would end after --seconds
        if (len(rounds) >= (MIN_TRACED if trace else MIN_INVOCATIONS)
                and time.monotonic() - start + median(rounds) > seconds):
            break
    runs = invocations + traced
    samples = {
        "wall_s": [inv["wall_s"] for inv in invocations],
        "cpu_s": [inv["cpu_s"] for inv in invocations],
        "peak_rss_mb": [inv["peak_rss_mb"] for inv in invocations],
        "setup_s": setups + [inv["setup_s"] for inv in invocations],
    }
    result = {
        "attempted": study.cells * len(runs),
        "failed": sum(inv["failed"] for inv in runs),
        "identical": checker.identical,
        "checked": len(runs),
        "samples": samples,
    }
    if not trace:
        result["metrics"] = {
            "wall_s": median(samples["wall_s"]),
            "cpu_s": median(samples["cpu_s"]),
            "peak_rss_mb": median(samples["peak_rss_mb"]),
            "setup_s": median(samples["setup_s"]),
            "cells_per_s": median([study.cells / w for w in samples["wall_s"]]),
        }
        return result
    layers = [spans.layer_metrics(inv["spans"], inv["wall_s"]) for inv in traced]
    metrics = {}
    for key in layers[0]:
        values = [lm[key] for lm in layers]
        metrics[key] = values[0] if len(set(values)) == 1 else median(values)  # counts repeat
    samples["traced_wall_s"] = [inv["wall_s"] for inv in traced]
    _, vals = check.structure(study, traced[0]["text"] or "")
    cell_vals = [v for (q, rep), v in vals.items() if (rep is None) == (study.reps == 1)]
    metrics["lstsq.singular"] = sum(v == float("inf") for v in cell_vals)
    metrics["cli.csv_bytes"] = len((traced[0]["text"] or "").encode())
    metrics["cli.csv_identical"] = checker.identical
    metrics["trace.overhead_s"] = median(samples["traced_wall_s"]) - median(samples["wall_s"])
    result["metrics"] = metrics
    return result


def report(benchmark: dict, measured: dict, trace: bool, prefix: str = "") -> dict:
    """Metrics of BENCHMARK.json, by name with units, in its order."""
    listed = benchmark["per_layer" if trace else "end_to_end"]
    return {prefix + m["name"]: {"value": measured["metrics"][m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--results", help="append one JSON line per workload run to this file")
    ap.add_argument("--write-reference", action="store_true",
                    help="run once and store the checked CSV as the seed's reference")
    args = ap.parse_args(argv)
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    threads = min(SPEC["blas_threads"], len(os.sched_getaffinity(0)))

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        runner = Runner(Path(tmp), threads)
        env = environment(threads)
        print("env " + json.dumps(env))
        if args.write_reference:
            return write_reference(runner, names, args.seed)
        metrics, correct, attempted, failed = {}, True, 0, 0
        for name in names:
            study = workload_study(name, args.seed)
            reference = reference_for(study, name)
            measured = measure(runner, study, Checker(study, reference),
                               args.seconds, bool(args.trace))
            shown = report(benchmark, measured, bool(args.trace),
                           "" if len(names) == 1 else name + ".")
            attempted += measured["attempted"]
            failed += measured["failed"]
            correct = correct and measured["failed"] == 0
            print(f"{name}: {measured['checked']} CSVs checked, {measured['failed']} of "
                  f"{measured['attempted']} cells failed, {measured['identical']} byte-identical "
                  f"to {'the reference' if reference else 'no reference (none for this seed)'}")
            for key, item in shown.items():
                print(f"  {key:36s} {item['value']:.6g} {item['unit']}")
            metrics.update(shown)
            if args.results:
                line = {"workload": name, "seed": args.seed, "trace": args.trace,
                        "seconds": args.seconds, "env": env,
                        "error_rate": measured["failed"] / measured["attempted"],
                        **{k: v for k, v in measured.items() if k != "metrics"},
                        "metrics": shown}
                with open(args.results, "a") as fh:
                    fh.write(json.dumps(line) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_reference(runner: Runner, names, seed: int) -> int:
    for name in names:
        study = workload_study(name, seed)
        inv = runner.invoke(study, "plain", lambda text: check.failed_cells(
            study, check.check(study, text, SPEC["tolerance"])))
        if inv["failed"]:
            print(f"{name}: output check failed; no reference written", file=sys.stderr)
            return 1
        path = BENCH / "reference" / name / f"seed-{seed}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(inv["text"].encode())
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
