"""Self-tests of the benchmark: span arithmetic, tracer hygiene, the output
check and the seed handling.  Run with `python -m pytest bench/tests`."""

import numpy as np
import pytest

import check
import spans
from conftest import BENCH
from run import SPEC
from run import workload_study as study


def reference(name, seed=0):
    return (BENCH / "reference" / name / f"seed-{seed}.csv").read_bytes().decode()


def run_study(argv, path):
    from weilfit import cli
    assert cli.main(argv + ["--out", str(path)]) == 0
    return path.read_bytes()


# ---------------------------------------------------------------------------
# spans

def test_self_times_and_layer_metrics_on_nested_spans():
    synthetic = [
        ["cli.solve", "lstsq", None, 0.0, 10.0, None],
        ["lstsq.basis_matrix", "polybasis", 0, 1.0, 4.0, {"entries": 100}],
        ["polybasis.as_indices", "indexsets", 1, 1.5, 2.0, None],
        ["numpy.linalg.svd", spans.FACTOR, 0, 5.0, 9.0, {"flops": 8e9, "cond_A": 4.0}],
        ["cli.nearest_prime", "pointgen", None, 11.0, 11.5, None],
    ]
    assert spans.self_times(synthetic) == [3.0, 2.5, 0.5, 4.0, 0.5]
    m = spans.layer_metrics(synthetic, wall_s=12.0)
    assert (m["lstsq.self_s"], m["polybasis.self_s"], m["indexsets.self_s"],
            m["lstsq.factor_s"], m["pointgen.self_s"]) == (3.0, 2.5, 0.5, 4.0, 0.5)
    assert m["cli.self_s"] == 1.5  # wall minus the two top-level spans
    assert sum(m[k] for k in m if k.endswith("self_s") or k == "lstsq.factor_s") == 12.0
    assert m["polybasis.entries"] == 100 and m["polybasis.bytes"] == 800
    assert m["polybasis.entries_per_s"] == 40.0
    assert m["lstsq.factor_gflop_s"] == 2.0 and m["lstsq.max_cond_A"] == 4.0
    assert m["indexsets.calls"] == 1 and m["lstsq.factor_calls"] == 1


def test_tracer_restores_every_name_and_keeps_csv_bytes(tmp_path):
    from weilfit import cli  # noqa: F401  (loads every weilfit module)
    modules = list(spans.weilfit_modules().values())
    before = [dict(vars(module)) for module in modules]
    svd = np.linalg.svd
    argv = ["conv-study", "--grid", "mc_uniform", "--d", "2", "--q-max", "4",
            "--scaling", "linear", "--c", "2", "--repetitions", "2", "--n-test", "200"]
    plain = run_study(argv, tmp_path / "plain.csv")
    tracer = spans.Tracer().install()
    try:
        assert np.linalg.svd is not svd
        traced = run_study(argv, tmp_path / "traced.csv")
        traced_cond = run_study(["cond-study", "--q-max", "3"], tmp_path / "cond.csv")
    finally:
        tracer.restore()
    assert traced == plain
    assert np.linalg.svd is svd
    for module, old in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in old.items())
    layers = {span[1] for span in tracer.spans}
    assert layers == {"pointgen", "indexsets", "polybasis", "lstsq", spans.FACTOR,
                      "diagnostics", "targets"}
    assert traced_cond == run_study(["cond-study", "--q-max", "3"], tmp_path / "cond2.csv")
    # every span closes inside its parent
    for span in tracer.spans:
        if span[2] is not None:
            parent = tracer.spans[span[2]]
            assert parent[3] <= span[3] <= span[4] <= parent[4]


# ---------------------------------------------------------------------------
# output check

@pytest.mark.parametrize("path", sorted((BENCH / "reference").glob("*/seed-*.csv")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_committed_references_pass_the_check(path):
    seed = int(path.stem.split("-")[1])
    text = path.read_bytes().decode()
    assert check.check(study(path.parent.name, seed), text, SPEC["tolerance"], text) == []


def test_check_rejects_a_perturbed_value():
    ref = reference("conv-quad")
    row = next(line for line in ref.splitlines() if line.startswith("5,"))
    value = row.split(",")[4]
    bad = ref.replace(row, row.replace(value, repr(float(value) * (1 + 1e-6))))
    assert bad != ref
    errors = check.check(study("conv-quad", 0), bad, SPEC["tolerance"], ref)
    assert [cell for cell, _ in errors] == [(5, None)]


def test_check_rejects_a_wrong_modulus():
    ref = reference("cond-quad")
    other = check.nearest_prime(108_893 - 20)
    for wrong in (str(other), "108891"):  # another prime, then a composite
        bad = ref.replace(",108893,", f",{wrong},")
        errors = check.check(study("cond-quad", 0), bad, SPEC["tolerance"], ref)
        assert [cell for cell, _ in errors] == [(7, None)]
    assert not check.is_prime(108_891)


def test_check_without_reference_recomputes_one_cell():
    ref = reference("mc-reps")
    s = study("mc-reps", 0)
    q, rep = check.recompute_cell(s)
    line = next(l for l in ref.splitlines() if l.startswith(f"# rep q={q} rep={rep} "))
    value = line.rsplit("=", 1)[1]
    bad = ref.replace(line, line.replace(value, repr(float(value) * 1.001)))
    cells = {cell for cell, _ in check.check(s, bad, SPEC["tolerance"])}
    assert (q, rep) in cells


# ---------------------------------------------------------------------------
# seeds

def test_seed_changes_mc_inputs_and_leaves_cond_quad_bytes(tmp_path):
    mc = [run_study(study("mc-reps", seed).argv, tmp_path / f"mc{seed}.csv") for seed in (1, 2)]
    assert mc[0] != mc[1]
    cond = [run_study(study("cond-quad", seed).argv, tmp_path / f"cq{seed}.csv")
            for seed in (1, 2)]
    assert b"# seed=1\n" in cond[0] and b"# seed=2\n" in cond[1]
    assert cond[0].replace(b"# seed=1\n", b"# seed=2\n") == cond[1]
