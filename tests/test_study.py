"""The two study protocols, `cond_study` and `conv_study`, cell by cell:
each row is the mean of one library call per repetition of its cell."""

import math

import numpy as np
import pytest

from weilfit.diagnostics import l2_error
from weilfit.lstsq import SingularSystemError, condition, solve
from weilfit.study import (StudyConfig, cell_points, cond_study, conv_study, realize_cell,
                           run)
from weilfit.targets import make


def test_conv_study_reads_inf_exactly_at_its_singular_cells():
    # d = 1, linear c = 1: q = 1, 2, 3, 5, 6, 8 have m = N, and the point of
    # j = 0 lies on the boundary, where the density-ratio weight is 0, so the
    # square system is singular; q = 4 and 7 have m = N + 1
    cfg = StudyConfig(d=1, q_max=8, scaling="linear", c=1.0, family="legendre",
                      weights="density_ratio", target="cossum")
    rows, reps = conv_study(cfg)
    f = make(cfg.target, cfg.target_coeffs())
    assert [q for q, N, m, M, _ in rows if m == N] == [1, 2, 3, 5, 6, 8]
    for q, N, m, M, err in rows:
        index_set = realize_cell(cfg, q)[0]
        pts = cell_points(cfg, q, m, M, 0)
        if m == N:
            assert err == math.inf
            with pytest.raises(SingularSystemError):
                solve(pts, f(pts), index_set, cfg.basis_spec(), cfg.weight_scheme())
        else:
            fit = solve(pts, f(pts), index_set, cfg.basis_spec(), cfg.weight_scheme())
            assert err == l2_error(fit, f, cfg.n_test, seed=cfg.seed).l2_error
            assert math.isfinite(err)
    assert reps == [(q, 0, err) for q, _, _, _, err in rows]


def test_cond_study_rows_are_the_mean_cond_A_of_each_cell():
    # quadratic c = 0.2: q = 1 has m = 2 < N = 3 and reads inf, unevaluated
    cfg = StudyConfig(d=2, q_max=4, c=0.2, grid="mc_uniform", repetitions=2, seed=7)
    rows, reps = cond_study(cfg)
    for q, N, m, M, mean in rows:
        index_set = realize_cell(cfg, q)[0]
        values = [condition(cell_points(cfg, q, m, M, rep), index_set, cfg.basis_spec(),
                            cfg.weight_scheme()).cond_A if m >= N else math.inf
                  for rep in range(cfg.repetitions)]
        assert [v for p, _, v in reps if p == q] == values
        assert mean == float(np.mean(values))
    assert rows[0][4] == math.inf and all(math.isfinite(row[4]) for row in rows[1:])


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-too-few", "one-too-many"])
def test_run_refuses_a_scorer_that_returns_the_wrong_number_of_scores(extra):
    # six evaluated cells (q = 1..3, two repetitions each); the scores are
    # matched to their cells one to one, never cut or run short
    cfg = StudyConfig(d=1, q_max=3, scaling="linear", c=2.0, grid="mc_uniform",
                      repetitions=2)

    def values(cells):
        scores = [float(len(pts.points)) for pts, _ in cells]
        assert len(scores) == 6
        return scores[:extra] if extra < 0 else scores + [0.0] * extra

    with pytest.raises(ValueError):
        run(cfg, values)
