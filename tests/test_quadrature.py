"""Gauss-Kronrod panels and the adaptive vector driver: polynomial
exactness, error-estimate honesty, channel guarding, and determinism."""

import heapq
import math

import numpy as np
import pytest

from neqcasimir import quadrature
from neqcasimir.engine import QuadratureControls
from neqcasimir.errors import QuadratureError
from neqcasimir.units import HBAR, K_BOLTZMANN


def test_polynomial_exactness_single_panel():
    # degree 13 is exact for both the Gauss-7 and Kronrod-15 rules, so
    # the value is exact and the error estimate collapses
    coef = np.arange(1, 15, dtype=float)

    def poly(x):
        return np.polyval(coef, x)[:, None]

    val, err = quadrature.adaptive_vector(poly, -1.0, 2.0, 1e-6)
    exact = float(np.diff(np.polyval(np.polyint(coef), [-1.0, 2.0]))[0])
    assert abs(val[0] - exact) < 1e-13 * abs(exact)
    assert err[0] < 1e-9 * abs(exact)


def test_kronrod_degree_22_exact_with_honest_error():
    # x^22: beyond Gauss-7 but within Kronrod-15 exactness, so the
    # single-panel value is exact while the Gauss-Kronrod difference
    # reports a nonzero (conservative) error
    coef = np.zeros(23)
    coef[0] = 1.0
    nodes = quadrature.panel_nodes(0.0, 1.0)
    vk, err = quadrature.panel_estimates(0.0, 1.0,
                                         np.polyval(coef, nodes)[:, None])
    assert abs(vk[0] - 1.0 / 23.0) < 1e-14
    assert err[0] > 1e-7


def test_adaptive_oscillatory_value_and_error():
    # int_0^40 e^-x cos(5x) dx from the closed antiderivative
    def f(x):
        return (np.exp(-x) * np.cos(5.0 * x))[:, None]

    exact = (1.0 - np.exp(-40.0)
             * (np.cos(200.0) - 5.0 * np.sin(200.0))) / 26.0
    val, err = quadrature.adaptive_vector(f, 0.0, 40.0, 1e-8)
    actual = abs(val[0] - exact)
    assert actual < 1e-8 * abs(exact)
    assert actual <= err[0]


def test_vector_channels_independent():
    def g(x):
        return np.stack([np.exp(-x), np.cos(x) * np.exp(-0.5 * x), x ** 2],
                        axis=1)

    val, err = quadrature.adaptive_vector(g, 0.0, 3.0, 1e-9)
    exact = np.array([
        1.0 - np.exp(-3.0),
        (np.exp(-1.5) * (2.0 * np.sin(3.0) - np.cos(3.0)) + 1.0) * 2.0 / 5.0,
        9.0,
    ])
    assert np.all(np.abs(val - exact) < 1e-9 * np.abs(exact))
    assert np.all(np.abs(val - exact) <= err + 1e-15)


def test_near_zero_channel_does_not_stall():
    # the sine channel integrates to zero over a full period; the
    # relative tolerance is held to the larger channel's scale so the
    # driver terminates instead of chasing an impossible target
    def h(x):
        return np.stack([np.sin(x), np.exp(x)], axis=1)

    val, err = quadrature.adaptive_vector(h, 0.0, 2.0 * np.pi, 1e-10)
    big = np.exp(2.0 * np.pi) - 1.0
    assert abs(val[0]) < 1e-10 * big
    assert abs(val[1] - big) < 1e-9 * big


def _big_and_small(x):
    # a large smooth channel and a small oscillating one, 1e-6 of its size
    return np.stack([np.exp(-x), 1e-4 * np.cos(20.0 * x) * np.exp(-x)],
                    axis=1)


_BIG_AND_SMALL = np.array([
    1.0 - np.exp(-40.0),
    1e-4 * (1.0 - np.exp(-40.0) * (np.cos(800.0) - 20.0 * np.sin(800.0)))
    / 401.0])


def test_small_channel_in_its_own_group_meets_its_own_tolerance():
    # in one group the small channel is held to 1% of the large one's
    # scale and stops far from its own rel_tol; in a group of its own
    # it converges to it, and its panels get split first
    one, _ = quadrature.adaptive_vector(_big_and_small, 0.0, 40.0, 1e-6)
    assert abs(one[1] - _BIG_AND_SMALL[1]) > 1e-3 * abs(_BIG_AND_SMALL[1])
    val, err = quadrature.adaptive_vector(_big_and_small, 0.0, 40.0, 1e-6,
                                          groups=[0, 1])
    off = np.abs(val - _BIG_AND_SMALL)
    assert np.all(off <= 1e-6 * np.abs(_BIG_AND_SMALL))
    assert np.all(err <= 1e-6 * np.abs(val))
    assert np.all(off <= err + 1e-15)


def _ungrouped_driver(f, a, b, rel_tol):
    # the driver before channel groups: every channel held to 1% of the
    # largest channel, and the panel with the largest error split first
    # (the oldest of equal ones)
    def panel(lo, hi):
        return (lo, hi) + quadrature.panel_estimates(
            lo, hi, f(quadrature.panel_nodes(lo, hi)))

    heap = [(-float(np.max(p[3])), 0, p) for p in [panel(a, b)]]
    count = 1
    while True:
        total = np.sum([p[2] for _, _, p in heap], axis=0)
        errs = np.sum([p[3] for _, _, p in heap], axis=0)
        tol = rel_tol * np.maximum(np.abs(total),
                                   0.01 * np.max(np.abs(total)))
        if np.all(errs <= tol):
            break
        lo, hi = heapq.heappop(heap)[2][:2]
        for p in (panel(lo, 0.5 * (lo + hi)), panel(0.5 * (lo + hi), hi)):
            heapq.heappush(heap, (-float(np.max(p[3])), count, p))
            count += 1
    final = sorted((p for _, _, p in heap), key=lambda p: p[0])
    return tuple(np.array([math.fsum(p[k][c] for p in final)
                           for c in range(len(total))]) for k in (2, 3))


def test_one_group_reproduces_the_ungrouped_driver():
    # one group, given or by default, is the old criterion and split
    # order, bitwise
    def g(x):
        return np.stack([np.exp(-x), np.cos(x) * np.exp(-0.5 * x), x ** 2],
                        axis=1)

    def kink_and_wave(x):
        # channels of unequal tolerance, whose split order matters
        return np.stack([np.sqrt(x), 0.05 * np.cos(20.0 * x) * np.exp(-x)],
                        axis=1)

    for f, b in ((g, 3.0), (_big_and_small, 40.0), (kink_and_wave, 40.0)):
        v0, e0 = _ungrouped_driver(f, 0.0, b, 1e-9)
        for groups in (None, [7] * v0.size):
            v1, e1 = quadrature.adaptive_vector(f, 0.0, b, 1e-9,
                                                groups=groups)
            assert np.array_equal(v0, v1) and np.array_equal(e0, e1)


def test_driver_batches_seed_panels_and_splits():
    # the driver asks its integrand for every seed panel in one call and
    # for both halves of each split in one call; each panel's estimates
    # are bitwise those of a call at its own 15 nodes
    def kink_and_wave(x):
        return np.stack([np.sqrt(x), 0.05 * np.cos(20.0 * x) * np.exp(-x),
                         np.exp(-x)], axis=1)

    seeds = [0.0, 0.4, 2.0, 5.0, 12.0, 40.0]
    for groups in (None, [0, 1, 1]):
        batched, single = [], []

        def f(x):
            batched.append(x.size)
            return kink_and_wave(x)

        def one_panel_per_call(x):
            def panel(part):
                single.append(part.size)
                return kink_and_wave(part)
            return np.concatenate([panel(x[i:i + 15])
                                   for i in range(0, x.size, 15)])

        v0, e0 = quadrature.adaptive_vector(
            one_panel_per_call, 0.0, 40.0, 1e-9, seed_edges=seeds,
            groups=groups)
        v1, e1 = quadrature.adaptive_vector(
            f, 0.0, 40.0, 1e-9, seed_edges=seeds, groups=groups)
        assert np.array_equal(v0, v1) and np.array_equal(e0, e1)
        splits = (len(single) - (len(seeds) - 1)) // 2
        assert splits > 0 and set(single) == {15}
        assert batched == [15 * (len(seeds) - 1)] + [30] * splits


def test_budget_exhaustion_raises_with_diagnostics():
    def kink(x):
        return np.sqrt(np.abs(x - 0.3))[:, None]

    with pytest.raises(QuadratureError) as info:
        quadrature.adaptive_vector(kink, 0.0, 1.0, 1e-12, max_panels=4)
    err = info.value
    assert err.reached > err.target
    lo, hi = err.worst_panel[0], err.worst_panel[1]
    assert 0.0 <= lo < hi <= 1.0


def test_argument_validation():
    def f(x):
        return np.exp(-x)[:, None]

    with pytest.raises(ValueError):
        quadrature.adaptive_vector(f, 1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        quadrature.adaptive_vector(f, 0.0, 1.0, 1e-6,
                                   seed_edges=[0.0, 0.5, 0.9])
    with pytest.raises(ValueError):
        quadrature.adaptive_vector(f, 0.0, 1.0, 1e-6,
                                   seed_edges=[0.0, 0.7, 0.3, 1.0])


def test_seeded_run_matches_unseeded():
    def f(x):
        return (np.exp(-x) * np.cos(5.0 * x))[:, None]

    exact = (1.0 - np.exp(-40.0)
             * (np.cos(200.0) - 5.0 * np.sin(200.0))) / 26.0
    val, _ = quadrature.adaptive_vector(f, 0.0, 40.0, 1e-8,
                                        seed_edges=[0.0, 1.0, 10.0, 40.0])
    assert abs(val[0] - exact) < 1e-8 * abs(exact)


def test_reruns_bitwise_identical():
    def f(x):
        return (np.exp(-x) * np.cos(5.0 * x))[:, None]

    v1, e1 = quadrature.adaptive_vector(f, 0.0, 40.0, 1e-8)
    v2, e2 = quadrature.adaptive_vector(f, 0.0, 40.0, 1e-8)
    assert np.array_equal(v1, v2)
    assert np.array_equal(e1, e2)


def test_composite_nodes_fixed_rule():
    edges = np.array([0.0, 0.5, 2.0])
    nodes, weights = quadrature.composite_nodes(edges)
    assert nodes.shape == (30,)
    assert weights.shape == (30,)
    assert nodes.min() > 0.0 and nodes.max() < 2.0
    # x^2 is integrated exactly by the fixed composite rule
    assert abs(np.sum(weights * nodes ** 2) - 8.0 / 3.0) < 1e-12


def test_composite_nodes_gauss_panels():
    # panels flagged False take the 7 Gauss nodes the Kronrod rule
    # embeds, which integrate x^13 exactly; Kronrod panels are bitwise
    # those of the all-Kronrod rule
    edges = np.array([0.0, 0.5, 2.0, 3.0])
    nodes, weights = quadrature.composite_nodes(edges, [True, False, True])
    assert nodes.shape == weights.shape == (37,)
    k_nodes, k_weights = quadrature.composite_nodes(edges)
    for mixed, kronrod in ((slice(0, 15), slice(0, 15)),
                           (slice(22, 37), slice(30, 45))):
        assert np.array_equal(nodes[mixed], k_nodes[kronrod])
        assert np.array_equal(weights[mixed], k_weights[kronrod])
    gauss = slice(15, 22)
    assert set(nodes[gauss]) <= set(k_nodes[15:30])
    exact = (2.0 ** 14 - 0.5 ** 14) / 14.0
    assert abs(np.sum(weights[gauss] * nodes[gauss] ** 13) / exact
               - 1.0) < 1e-13
    nodes, weights = quadrature.composite_nodes(edges, False)
    assert nodes.shape == (21,)
    assert abs(np.sum(weights * nodes ** 13) / (3.0 ** 14 / 14.0)
               - 1.0) < 1e-13


def test_uniform_edges():
    edges = quadrature.uniform_edges(0.0, 1.0, 4)
    assert np.allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_bose_integral_planck_moment():
    # integral of w^3 / (exp(hbar w / k T) - 1) dw = (k T / hbar)^4 pi^4 / 15,
    # and a cold source gives exactly zero
    ctl = QuadratureControls(rel_tol=1e-8)
    scale = K_BOLTZMANN * 300.0 / HBAR
    value = quadrature.bose_integral(lambda w: w ** 3, 300.0, ctl)
    exact = scale ** 4 * np.pi ** 4 / 15.0
    assert abs(value - exact) <= 1e-8 * exact
    assert quadrature.bose_integral(lambda w: w ** 3, 0.0, ctl) == 0.0


def test_thermal_seed_edges_window():
    edges = quadrature.thermal_seed_edges(QuadratureControls())
    assert edges[0] == 0.0 and edges[-1] == 40.0
    assert np.all(np.diff(edges) > 0)
    edges = quadrature.thermal_seed_edges(QuadratureControls(u_min=1.0))
    assert edges == [1.0, 1.2, 2.5, 5.0, 10.0, 40.0]


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
