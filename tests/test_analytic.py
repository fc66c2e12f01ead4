"""Oracle checks for the closed-form square graph.

The residual gate runs before anything else trusts the formula: at 100
fixed-seed interior points the minimal surface equation must hold to 1e-10
under high-precision numerical differentiation.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from towerlab.analytic import OutsideSquare, ScherkSquare, scherk_gradient, scherk_value

UNIT = ScherkSquare(center=(0.5, 0.5), side=1.0)


def test_known_value_log2_over_2pi():
    want = math.log(2.0) / (2.0 * math.pi)
    assert abs(scherk_value(UNIT, (0.5, 0.25)) - want) < 1e-14
    assert abs(scherk_value(UNIT, (0.5, 0.75)) - want) < 1e-14
    assert abs(scherk_value(UNIT, (0.25, 0.5)) + want) < 1e-14


def test_known_gradients():
    g = scherk_gradient(UNIT, (0.5, 0.1))
    assert abs(g[0]) < 1e-14
    assert abs(g[1] - (-math.tan(0.4 * math.pi))) < 1e-12
    g = scherk_gradient(UNIT, (0.1, 0.5))
    assert abs(g[0] - math.tan(0.4 * math.pi)) < 1e-12
    assert abs(g[1]) < 1e-14


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    pts = 0.1 + 0.8 * rng.random((20, 2))
    h = 1e-6
    for p in pts:
        g = scherk_gradient(UNIT, p)
        fx = (scherk_value(UNIT, p + [h, 0.0]) - scherk_value(UNIT, p - [h, 0.0])) / (2 * h)
        fy = (scherk_value(UNIT, p + [0.0, h]) - scherk_value(UNIT, p - [0.0, h])) / (2 * h)
        scale = max(1.0, abs(fx), abs(fy))
        assert abs(g[0] - fx) <= 1e-6 * scale
        assert abs(g[1] - fy) <= 1e-6 * scale


def test_minimal_surface_residual_gate():
    # (1 + uy^2) uxx - 2 ux uy uxy + (1 + ux^2) uyy, divided by W^3,
    # evaluated with 40-digit arithmetic at 100 fixed random points.
    mpmath.mp.dps = 40

    def u(x, y):
        return (mpmath.log(mpmath.cos(mpmath.pi * (x - mpmath.mpf("0.5"))))
                - mpmath.log(mpmath.cos(mpmath.pi * (y - mpmath.mpf("0.5"))))) / mpmath.pi

    rng = np.random.default_rng(20240817)
    pts = 0.05 + 0.9 * rng.random((100, 2))
    worst = mpmath.mpf(0)
    for px, py in pts:
        x = mpmath.mpf(float(px))
        y = mpmath.mpf(float(py))
        ux = mpmath.diff(u, (x, y), (1, 0))
        uy = mpmath.diff(u, (x, y), (0, 1))
        uxx = mpmath.diff(u, (x, y), (2, 0))
        uyy = mpmath.diff(u, (x, y), (0, 2))
        uxy = mpmath.diff(u, (x, y), (1, 1))
        num = (1 + uy ** 2) * uxx - 2 * ux * uy * uxy + (1 + ux ** 2) * uyy
        w3 = (1 + ux ** 2 + uy ** 2) ** mpmath.mpf("1.5")
        worst = max(worst, abs(num / w3))
    assert worst < 1e-10


@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98))
def test_odd_symmetry_across_diagonal(x, y):
    a = scherk_value(UNIT, (x, y))
    b = scherk_value(UNIT, (y, x))
    assert abs(a + b) <= 1e-10 * max(1.0, abs(a))


def test_scaling_and_rotation():
    big = ScherkSquare(center=(2.0, -1.0), side=2.0)
    for v in [(0.3, 0.4), (0.7, 0.25)]:
        q = np.asarray(big.center) + big.side * (np.asarray(v) - 0.5)
        assert abs(scherk_value(big, q) - big.side * scherk_value(UNIT, v)) < 1e-12
    rot = ScherkSquare(center=(0.5, 0.5), side=1.0, rotated=True)
    assert abs(scherk_value(rot, (0.5, 0.25)) + scherk_value(UNIT, (0.5, 0.25))) < 1e-14
    g0 = scherk_gradient(UNIT, (0.3, 0.7))
    g1 = scherk_gradient(rot, (0.3, 0.7))
    assert np.allclose(g0, -g1, atol=1e-14)


def test_outside_square_raises():
    with pytest.raises(OutsideSquare):
        scherk_value(UNIT, (1.0, 0.5))
    with pytest.raises(OutsideSquare):
        scherk_value(UNIT, (0.5, -0.01))
    with pytest.raises(OutsideSquare):
        scherk_gradient(UNIT, (1.2, 0.5))


def test_outside_square_named_in_plain_floats():
    with pytest.raises(OutsideSquare, match=r"^point \(1\.2, 0\.5\) outside open square$"):
        scherk_gradient(UNIT, [(0.5, 0.5), (1.2, 0.5)])


def test_batch_evaluation_matches_scalar():
    pts = np.array([[0.5, 0.25], [0.3, 0.6], [0.9, 0.9]])
    vals = scherk_value(UNIT, pts)
    grads = scherk_gradient(UNIT, pts)
    for k, p in enumerate(pts):
        assert abs(vals[k] - scherk_value(UNIT, p)) < 1e-15
        assert np.allclose(grads[k], scherk_gradient(UNIT, p))
