"""Sweep post-processing on synthetic curves with known roots,
power laws, and oscillation structure."""

import math

import numpy as np
import pytest

from neqcasimir.analysis import (ZeroCrossing, detrend, envelope_slope,
                                 find_zero_crossings, log_slope,
                                 oscillation_period, refine_zero)


def test_crossing_detection_and_stability():
    d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    f = np.array([-1.0, -0.5, 0.7, 0.2, -0.3])
    crossings = find_zero_crossings(d, f)
    assert len(crossings) == 2
    assert crossings[0].stability == "unstable"
    assert (crossings[0].lower, crossings[0].upper) == (2.0, 3.0)
    assert crossings[1].stability == "stable"
    assert (crossings[1].lower, crossings[1].upper) == (4.0, 5.0)
    assert crossings[1].midpoint == 4.5


def test_exact_zero_folds_into_bracket():
    d = np.array([1.0, 2.0, 3.0])
    f = np.array([1.0, 0.0, -1.0])
    crossings = find_zero_crossings(d, f)
    assert len(crossings) == 1
    assert crossings[0].stability == "stable"
    assert (crossings[0].lower, crossings[0].upper) == (1.0, 3.0)


def test_no_crossings():
    d = np.linspace(1, 5, 9)
    assert find_zero_crossings(d, np.exp(-d)) == []


def test_crossing_input_validation():
    with pytest.raises(ValueError):
        find_zero_crossings([1.0], [1.0])
    with pytest.raises(ValueError):
        find_zero_crossings([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        find_zero_crossings([2.0, 1.0], [1.0, -1.0])
    # NaN fails every comparison: a NaN force would make up a bracket
    # on each side, and a NaN separation pass the ordering check
    for d, f in (([1.0, 2.0, 3.0], [1.0, math.nan, -1.0]),
                 ([1.0, math.nan, 3.0], [1.0, 1.0, -1.0]),
                 ([1.0, 2.0, math.inf], [1.0, 1.0, -1.0])):
        with pytest.raises(ValueError, match="must be finite"):
            find_zero_crossings(d, f)


def test_refine_zero_analytic_root():
    # f(d) = 2 - d has its root at 2; positive -> negative is stable
    z = refine_zero(lambda d: 2.0 - d, 1.0, 3.5, rel_tol=1e-9)
    assert z.stability == "stable"
    assert z.midpoint == pytest.approx(2.0, rel=1e-8)
    z = refine_zero(lambda d: d - 2.0, 1.0, 3.5, rel_tol=1e-9)
    assert z.stability == "unstable"
    assert z.midpoint == pytest.approx(2.0, rel=1e-8)


def test_refine_zero_requires_sign_change():
    with pytest.raises(ValueError):
        refine_zero(lambda d: 1.0 + d, 1.0, 2.0)
    with pytest.raises(ValueError):
        refine_zero(lambda d: 1.0, 2.0, 2.0)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
def test_refine_zero_rejects_unreachable_rel_tol(rel_tol):
    # such a width is never reached: every evaluation would be spent
    calls = []

    def force(d):
        calls.append(d)
        return math.cos(d)

    with pytest.raises(ValueError, match="rel_tol"):
        refine_zero(force, 1.0, 2.0, rel_tol=rel_tol)
    assert calls == []


def test_refine_zero_exact_hit():
    z = refine_zero(lambda d: 2.0 - d, 1.0, 2.0)
    assert z.lower == z.upper == 2.0
    assert z.stability == "stable"


def test_refine_zero_brent_few_calls_and_bracket():
    # a smooth nonlinear force: Brent's method needs a fraction of the
    # calls of bisection, and returns two evaluated points that straddle
    # the sign change, at most rel_tol times their midpoint apart
    for rel_tol, most in ((1e-3, 7), (1e-9, 10)):
        seen = {}

        def force(d):
            seen[d] = math.exp(-d) * (d - 2.0) * (d + 1.0)
            return seen[d]

        z = refine_zero(force, 1.0, 3.5, rel_tol=rel_tol)
        bisection = 2 + math.ceil(math.log2(2.5 / (rel_tol * 2.0)))
        assert len(seen) <= most < 0.8 * bisection
        assert z.lower in seen and z.upper in seen
        assert seen[z.lower] < 0.0 < seen[z.upper]
        assert 0.0 < z.upper - z.lower <= rel_tol * z.midpoint
        assert z.lower <= 2.0 <= z.upper
        assert z.stability == "unstable"


def test_log_slope_exact_power_law():
    d = np.geomspace(1e-6, 1e-4, 20)
    assert log_slope(d, -3.7 * d ** -6.0) == pytest.approx(-6.0, abs=1e-10)
    assert log_slope(d, 0.2 * d ** 1.5) == pytest.approx(1.5, abs=1e-10)


def test_log_slope_rejects_sign_changes():
    d = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        log_slope(d, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        log_slope(d, [1.0, 0.0, 1.0])


def test_detrend_removes_linear_part():
    d = np.linspace(0.0, 10.0, 50)
    resid = detrend(d, 3.0 + 0.5 * d)
    assert np.max(np.abs(resid)) < 1e-12


def test_oscillation_period_synthetic():
    # decaying standing wave: A d^-1.5 cos(2 pi d / P)
    period = 6.0
    d = np.linspace(10.0, 40.0, 400)
    f = d ** -1.5 * np.cos(2.0 * math.pi * d / period)
    est = oscillation_period(d, f, envelope_power=1.5)
    assert est == pytest.approx(period, rel=0.02)


def test_oscillation_period_needs_crossings():
    # a smooth monotone curve leaves only the two crossings a linear
    # detrend of a convex residual can produce
    d = np.linspace(1.0, 2.0, 30)
    with pytest.raises(ValueError):
        oscillation_period(d, d ** -6.0)


def test_envelope_slope_synthetic():
    period = 6.0
    d = np.linspace(10.0, 60.0, 1200)
    f = 2.0 * d ** -1.5 * np.cos(2.0 * math.pi * d / period)
    slope, peaks = envelope_slope(d, f)
    assert slope == pytest.approx(-1.5, abs=0.02)
    assert len(peaks) >= 4
    # peaks sit near the cosine maxima, one per period
    assert np.all(np.diff(peaks) > 0.8 * period / 2)


def test_envelope_slope_needs_peaks():
    d = np.linspace(1.0, 2.0, 30)
    with pytest.raises(ValueError):
        envelope_slope(d, d ** -2.0)


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
