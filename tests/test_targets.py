import math

import numpy as np
import pytest

from weilfit.targets import FIXED_COEFFS, TARGET_NAMES, coefficients, make


def test_fixed_coeffs_cover_all_targets_up_to_d6():
    for name in TARGET_NAMES:
        for d in range(1, 7):
            c = FIXED_COEFFS[(name, d)]
            assert len(c) == d
            assert all(-1.0 <= v <= 1.0 for v in c)


def test_coefficients_frozen_values():
    assert coefficients("expsum", 2) == (-0.2779, 0.9986)
    assert coefficients("abscube", 1) == (0.336,)


def test_coefficients_seeded_draw_reproducible():
    a = coefficients("cossum", 3, seed=123)
    b = coefficients("cossum", 3, seed=123)
    assert a == b
    assert a != coefficients("cossum", 3, seed=124)
    assert len(a) == 3
    assert all(isinstance(v, float) and -1 <= v <= 1 for v in a)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        coefficients("sinsum", 2)
    with pytest.raises(ValueError):
        coefficients("expsum", 7)  # outside the published table, no seed


def test_make_pointwise_values():
    f = make("expsum", (1.0, 2.0))
    pts = np.array([[0.5, -0.25], [0.0, 0.0]])
    np.testing.assert_allclose(f(pts), [math.exp(0.0), 1.0], rtol=0, atol=1e-15)

    g = make("cossum", (1.0,))
    np.testing.assert_allclose(g(np.array([[0.5]])), [math.cos(0.5)],
                               rtol=0, atol=1e-15)

    h = make("abscube", (2.0,))
    np.testing.assert_allclose(h(np.array([[-0.5], [0.25]])),
                               [1.0, 0.125], rtol=0, atol=1e-15)


def test_make_vectorized_shape():
    f = make("cossum", coefficients("cossum", 2))
    out = f(np.zeros((7, 2)))
    assert out.shape == (7,)
    assert np.all(out == 1.0)  # cos(0)


def test_make_validation():
    with pytest.raises(ValueError):
        make("foo", (1.0,))
    with pytest.raises(ValueError):
        make("expsum", [])
    f = make("expsum", (1.0, 1.0))
    with pytest.raises(ValueError):
        f(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_refuses_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match=r"^coefficients must be finite$"):
        make("expsum", [bad, 1.0])
    assert np.isfinite(make("expsum", [0.5, 1.0])(np.zeros((2, 2)))).all()


def test_abscube_has_kink_but_is_c2():
    # |s|^3 is twice continuously differentiable; its third derivative jumps.
    h = make("abscube", (1.0,))
    eps = 1e-6
    y = np.array([[-2 * eps], [-eps], [0.0], [eps], [2 * eps]])
    v = h(y)
    second = (v[0] - 2 * v[1] + v[2]) / eps**2, (v[2] - 2 * v[3] + v[4]) / eps**2
    assert abs(second[0] - second[1]) < 1e-4  # second derivative continuous at 0
