"""Scattering blocks: thin-limit scaling, parities, unitarity of the
full boundary solve, and cross-provider agreement at small size
parameter."""

import warnings

import numpy as np
import pytest
from scipy import special as sp

from neqcasimir import engine, materials, tmatrix
from neqcasimir.errors import TMatrixError
from neqcasimir.units import HBAR, K_BOLTZMANN

EPS = 2.0 + 0.3j
_, SIC = materials.load_material("sic")
_, TUNGSTEN = materials.load_material("tungsten_2400K")
OMEGA = 2.0 * materials.C_LIGHT / 1e-6


def _thin(n, ktz, eps, x):
    return tmatrix._thin_blocks_batch([n], [ktz], eps, x)[0, 0]


def _full(n, ktz, eps, x):
    return tmatrix._full_blocks_batch([n], [ktz], eps, x)[0, 0]


def test_thin_vacuum_scatters_nothing():
    for n in (-1, 0, 1):
        t = _thin(n, 0.4, 1.0 + 0j, 0.01)
        assert np.all(t == 0)


def test_full_vacuum_scatters_nothing():
    for n in (0, 1, 3):
        t = _full(n, 0.4, 1.0 + 0j, 0.05)
        assert np.max(np.abs(t)) < 1e-14


def test_thin_entries_scale_as_x_squared():
    for n in (0, 1):
        base = _thin(n, 0.4, EPS, 1e-4) / 1e-8
        for x in (1e-3, 1e-2):
            t = _thin(n, 0.4, EPS, x) / x ** 2
            nonzero = np.abs(base) > 0
            assert np.max(np.abs((t - base)[nonzero]
                                 / base[nonzero])) < 1e-6


def test_thin_cross_term_vanishes_at_kz_zero():
    t = _thin(1, 0.0, EPS, 0.01)
    assert t[0, 1] == 0
    assert t[1, 0] == 0


def test_polarization_symmetry_both_providers():
    for maker in (_thin, _full):
        for n in (-1, 0, 1):
            t = maker(n, 0.37, EPS, 0.05)
            assert abs(t[0, 1] - t[1, 0]) < 1e-10 * max(np.max(np.abs(t)),
                                                        1e-30)
    t = _full(3, 0.37, EPS, 0.05)
    assert abs(t[0, 1] - t[1, 0]) < 1e-10 * max(np.max(np.abs(t)), 1e-30)


def test_order_reflection_parity():
    # n -> -n: diagonal entries even, off-diagonal odd
    for maker in (_thin, _full):
        tp = maker(1, 0.4, EPS, 0.05)
        tm = maker(-1, 0.4, EPS, 0.05)
        assert np.all(np.diag(tp) == np.diag(tm))
        assert tp[0, 1] == -tm[0, 1]
        assert tp[1, 0] == -tm[1, 0]


def test_kz_reflection_parity():
    # ktilde_z -> -ktilde_z: diagonal entries even, off-diagonal odd
    for maker in (_thin, _full):
        tp = maker(1, 0.4, EPS, 0.05)
        tm = maker(1, -0.4, EPS, 0.05)
        assert np.all(np.diag(tp) == np.diag(tm))
        assert tp[0, 1] == -tm[0, 1]
        assert tp[1, 0] == -tm[1, 0]
    # the same parity holds bitwise for the batched provider blocks over
    # the propagating range and the engine's evanescent range; the
    # engine takes its -k_z evanescent blocks from it
    flip = np.array([[1.0, -1.0], [-1.0, 1.0]])
    d = 1e-6
    for prov, orders in ((tmatrix.ThinExpansion(SIC, 0.1e-6), range(-2, 3)),
                         (tmatrix.FullSolve(SIC, 0.1e-6), range(-8, 9)),
                         (tmatrix.FullSolve(TUNGSTEN, 20e-9), range(-8, 9))):
        for omega in (0.1 * OMEGA, 0.5 * OMEGA, OMEGA):
            kd = omega * d / materials.C_LIGHT
            ktz = np.concatenate([
                np.cos(np.linspace(0.0, np.pi, 41)[1:-1]),
                np.sqrt(1.0 + (np.linspace(0.0, 35.0, 71)[1:] / kd) ** 2)])
            plus = prov.blocks(orders, ktz, omega)
            assert np.array_equal(prov.blocks(orders, -ktz, omega),
                                  flip * plus)


def test_full_matches_thin_at_small_x():
    tt = _thin(0, 0.5, 2.0 + 0j, 0.01)
    tf = _full(0, 0.5, 2.0 + 0j, 0.01)
    assert abs(tt[1, 1] - tf[1, 1]) < 1e-3 * abs(tf[1, 1])


def test_thin_residual_against_full_is_fourth_order():
    # |full - thin| should drop by about 2^4 when x halves; the N-pol
    # log structure at n = 0 bends the ratio slightly below 16
    for n in (0, 1):
        devs = []
        for x in (0.032, 0.016, 0.008):
            tf = _full(n, 0.4, EPS, x)
            tt = _thin(n, 0.4, EPS, x)
            devs.append(np.max(np.abs(tf - tt)))
        assert 10.0 < devs[0] / devs[1] < 24.0
        assert 10.0 < devs[1] / devs[2] < 24.0


def test_lossless_propagating_unitarity():
    # for real eps the scattered field conserves energy: eigenvalues
    # of 1 + 2T stay on the unit circle
    for n in (0, 1, 2):
        for ktz in (0.0, 0.5):
            for x in (0.5, 2.0):
                t = _full(n, ktz, 2.25 + 0j, x)
                lam = np.linalg.eigvals(np.eye(2) + 2.0 * t)
                assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-8


def test_evanescent_branch_continuation():
    # |ktilde_z| > 1 continues through the modified-Bessel branch and
    # still produces finite, polarization-symmetric blocks
    for maker in (_thin, _full):
        t = maker(1, 1.7, EPS, 0.05)
        assert np.all(np.isfinite(t.view(float)))
        assert abs(t[0, 1] - t[1, 0]) < 1e-10 * np.max(np.abs(t))


def _boundary_solve(orders, ktz, eps, x):
    """Blocks (Nk, No, 2, 2) from np.linalg.solve of the 4x4 boundary
    system (mu = 1): tangential E_z, E_phi, H_z and H_phi continuity
    for the unknowns (T_M, T_N, interior M, interior N), one right-hand
    side per incident polarization."""
    n = np.asarray(orders)[None, :]
    ktz = np.asarray(ktz)[:, None]
    p = x * np.sqrt(1.0 + 0j - ktz ** 2)
    p1 = x * np.sqrt(eps - ktz ** 2 + 0j)
    p1 = np.where(p1.imag < 0, -p1, p1)
    root = np.sqrt(complex(eps))
    root = -root if root.imag < 0 else root
    h, hp = sp.hankel1(n, p), sp.h1vp(n, p)
    j, jp = sp.jv(n, p), sp.jvp(n, p)
    j1, j1p = sp.jv(n, p1), sp.jvp(n, p1)
    px, p1x = p / x, p1 / x
    knp, kn1 = ktz * n / p, ktz * n / p1
    zero = np.zeros_like(h)
    a = np.stack([
        np.stack([zero, px * h, zero, -(p1x / root) * j1], -1),
        np.stack([-hp, -knp * h, j1p, (kn1 / root) * j1], -1),
        np.stack([px * h, zero, -p1x * j1, zero], -1),
        np.stack([-knp * h, -hp, kn1 * j1, root * j1p], -1)], -2)
    b = np.stack([
        np.stack([zero, -px * j], -1),
        np.stack([jp, knp * j], -1),
        np.stack([-px * j, zero], -1),
        np.stack([knp * j, jp], -1)], -2)
    return np.linalg.solve(a, b)[..., :2, :]


def _oracle_deviation(prov, orders, ktz, omega):
    got = prov.blocks(orders, ktz, omega)
    want = _boundary_solve(orders, ktz, complex(prov.material.epsilon(omega)),
                           prov.size_parameter(omega))
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    return float(np.max(np.abs(got - want) / scale))


def test_full_blocks_match_boundary_solve():
    # closed-form elimination against a direct solve of the 4x4 system,
    # per block relative to its largest entry.  Closer to the light line
    # than y = 0.05 the float 4x4 solve loses digits like
    # 1e-16 / (1 - ktilde_z^2), so the test below takes an mpmath solve
    # there.  Worst measured: 1.6e-10, the float 4x4 solve's own error
    # (the blocks are within 2e-14 of a 40-digit solve)
    orders = np.arange(-8, 9)
    temp, d = 2400.0, 0.5e-6
    prov = tmatrix.FullSolve(TUNGSTEN, 20e-9)
    worst = 0.0
    for u in np.geomspace(0.05, 40.0, 12):
        omega = u * K_BOLTZMANN * temp / HBAR
        kd = omega * d / materials.C_LIGHT
        ktz = np.concatenate([
            np.cos(np.linspace(0.0, np.pi, 11)[1:-1]),
            np.sqrt(1.0 + (np.geomspace(0.05, 35.0, 10) / kd) ** 2)])
        worst = max(worst, _oracle_deviation(prov, orders, ktz, omega))
    assert worst < 1e-8


def _mp_block(n, ktz, eps, x):
    """One block (mu = 1) from a 40-digit mpmath solve of the 4x4
    boundary system, taking the float ktilde_z as exact.  The exterior
    unknowns are scaled by |H_n(p)| and the interior ones by
    |J_n(p1)|, so the LU pivots stay clear of mpmath's singularity
    threshold at high orders."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        k, x = mp.mpf(float(ktz)), mp.mpf(float(x))
        eps = mp.mpc(complex(eps))
        p = x * mp.sqrt(1 - k * k + 0j)
        p1 = x * mp.sqrt(eps - k * k)
        p1 = -p1 if mp.im(p1) < 0 else p1
        root = mp.sqrt(eps)
        root = -root if mp.im(root) < 0 else root
        h, j, j1 = mp.hankel1(n, p), mp.besselj(n, p), mp.besselj(n, p1)
        hp = (mp.hankel1(n - 1, p) - mp.hankel1(n + 1, p)) / 2
        jp = (mp.besselj(n - 1, p) - mp.besselj(n + 1, p)) / 2
        j1p = (mp.besselj(n - 1, p1) - mp.besselj(n + 1, p1)) / 2
        sh, sj = abs(h), abs(j1)
        px, p1x = p / x, p1 / x
        knp, kn1 = k * n / p, k * n / p1
        a = mp.matrix([
            [0, px * h / sh, 0, -(p1x / root) * j1 / sj],
            [-hp / sh, -knp * h / sh, j1p / sj, (kn1 / root) * j1 / sj],
            [px * h / sh, 0, -p1x * j1 / sj, 0],
            [-knp * h / sh, -hp / sh, kn1 * j1 / sj, root * j1p / sj]])
        rhs = (mp.matrix([0, jp, -px * j, knp * j]),
               mp.matrix([-px * j, knp * j, 0, jp]))
        cols = [mp.lu_solve(a, b) for b in rhs]
        return np.array([[complex(c[row] / sh) for c in cols]
                         for row in (0, 1)])


def test_full_blocks_next_to_the_light_line():
    # the engine's evanescent grid starts at its smallest node,
    # y = 4.27e-5, and its refinements go below.  There
    # 1 - ktilde_z^2 ~ 4e-12 at u = 40 and d = 0.5 um, and a
    # determinant formed as A_M A_N - g^2 u^2 would lose
    # ~1e-16 / (1 - ktilde_z^2).  Forming ktilde_z itself in doubles
    # leaves about 5e-5 relative error in 1 - ktilde_z^2 there, which
    # is harmless: the row carries about 2e-8 of the y integral at
    # u = 40 and 2e-10 at u = 0.05 (tungsten, R = 20 nm).
    # Against a 40-digit solve from the same float ktilde_z, per block
    # relative to its largest entry.  Worst measured: 2.7e-15
    prov = tmatrix.FullSolve(TUNGSTEN, 20e-9)
    temp, d = 2400.0, 0.5e-6
    y_first = engine._evan_tables(1, np.arange(-1, 2),
                                  engine._EVAN_EDGES)[0][0]
    orders = np.arange(0, 9)
    worst = 0.0
    for u in (0.05, 2.5, 40.0):
        omega = u * K_BOLTZMANN * temp / HBAR
        kd = omega * d / materials.C_LIGHT
        y = np.array([1e-4, y_first, 1e-2])
        ktz = np.concatenate([np.cos([1e-4, 1e-2]),
                              np.sqrt(1.0 + (y / kd) ** 2)])
        got = prov.blocks(orders, ktz, omega)
        eps = complex(prov.material.epsilon(omega))
        for i, k in enumerate(ktz):
            for j, n in enumerate(orders):
                want = _mp_block(int(n), k, eps, prov.size_parameter(omega))
                dev = np.max(np.abs(got[i, j] - want)) / np.max(np.abs(want))
                worst = max(worst, dev)
    assert worst < 1e-12


def test_full_blocks_at_interior_bessel_zero():
    # lossless eps with p1 = 2 x on a zero of J_0 or J_1, propagating
    # and evanescent: the elimination never divides by J_n(p1).  For J_0
    # p1 lands on the float where scipy's J_0 returns exactly 0, so a
    # division by it would give inf.  Measured: 1.2e-15
    radius = 25e-9
    for order in (0, 1):
        zero = sp.jn_zeros(order, 1)[0]
        near = zero + np.arange(-8, 9) * np.spacing(zero)
        target = near[np.argmin(np.abs(sp.jv(order, near + 0j)))]
        omega = 0.5 * target * materials.C_LIGHT / radius
        for eps, ktz in ((4.25, 0.5), (6.25, 1.5)):  # eps - ktz^2 = 4
            prov = tmatrix.FullSolve(materials.Constant(eps + 0j), radius)
            p1 = 2.0 * prov.size_parameter(omega)
            assert abs(sp.jv(order, p1 + 0j)) < 1e-15
            assert _oracle_deviation(prov, np.arange(-8, 9),
                                     np.array([ktz]), omega) < 1e-8


def _mp_orders(z, top, hankel):
    """J_n(z), or H_n(z) = H1_n(z) with hankel, for n = 0 .. top at 40
    digits, with z real or on the positive imaginary axis (J also at
    any complex z).  J is the series (z / 2)^n / n! 0F1(; n + 1;
    -z^2 / 4), which mpmath sums with the precision its cancellation
    needs.  H is J + i Y at real z and (2 / pi) i^-(n+1) K_n(y) at
    z = i y, with Y_n and K_n run upward from mpmath's orders 0 and 1
    (DLMF 10.6.1, 10.29.1; both grow with the order, so the 40-digit
    run keeps 35 digits).  mpmath's besselj and hankel1 at complex
    arguments lose digits at small |z| and, for H, at large Im z, and
    its besselk is slow at large arguments."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        if not hankel:
            z = mp.mpc(z)
            return [complex((z / 2) ** n / mp.factorial(n)
                            * mp.hyp0f1(n + 1, -z * z / 4))
                    for n in range(top + 1)]
        evan = z.imag > 0
        t = mp.mpf(z.imag if evan else z.real)
        f, sign = (mp.besselk, -1) if evan else (mp.bessely, 1)
        rows = [f(0, t), f(1, t)]
        for n in range(1, top):
            rows.append(2 * n / t * rows[n] - sign * rows[n - 1])
        if evan:
            return [complex(2 / mp.pi * mp.mpc(0, 1) ** -(n + 1) * k)
                    for n, k in enumerate(rows)]
        return [complex(mp.mpc(mp.besselj(n, t), y))
                for n, y in enumerate(rows)]


def test_bessel_tables_against_mpmath():
    # the full blocks' tables come from recurrences in the order from
    # orders 0 and 1: H_n(p) and J_n(p) at real and positive imaginary
    # p, J_n(p1) at arg p1 from 45 to 90 degrees (the tungsten range),
    # up to order 32 (the probe cap) and from the smallest |p| (next to
    # the light line) and |p1| of the tungsten grids to |z| above the
    # top order.  One call per |z|, so the Miller start order is the
    # one that |z| alone sets.  Every entry in the double range agrees
    # to 1e-13 relative; below it an entry underflows to (near) zero
    # and above it overflows.  Worst measured: 5.6e-14, J_8(36) next
    # to its zero (scipy's jv: 3.2e-14 at J_20(45)); 3.8e-15 for H_n(p)
    # and J_n(p1)
    top = 32
    worst = 0.0
    for mag in (2.1e-12, 8e-5, 1e-2, 0.7, 9.5, 31.0, 36.0, 45.0):
        p = mag * np.array([1.0, 1j, 1.0, 1j])
        p1 = mag * np.exp(1j * np.radians([45.0, 60.0, 75.0, 90.0]))
        tables = tmatrix._bessel_tables(p, p1, top)
        assert [t.shape for t in tables] == [(4, top + 1), (4, top + 1),
                                             (4, top + 2)]
        for table, args, hankel in ((tables[0], p, True),
                                    (tables[1], p, False),
                                    (tables[2], p1, False)):
            for row, z in zip(table, args):
                for got, want in zip(row, _mp_orders(z, row.size - 1,
                                                     hankel)):
                    if abs(want) > 1e300:
                        assert not abs(got) < 1e300
                    elif abs(want) < 1e-290:
                        assert abs(got) < 1e-288
                    else:
                        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-13


def test_full_blocks_fail_where_the_tables_overflow():
    # next to the light line (p = 2.1e-12) H_n(p) ~ (n - 1)! (2 / p)^n
    # leaves the double range at high orders, and the blocks that read
    # it fail with an overflow error naming the order and the size
    # parameter; lower orders are finite.  scipy's hankel1 and jv tables
    # failed the same orders (measured)
    x, ktz = 1e-4, 1.0 + 2.0 ** -52
    eps = complex(TUNGSTEN.epsilon(1e11))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(33):
            if n < 15:
                t = tmatrix._full_blocks_batch(np.array([n]), np.array([ktz]),
                                               eps, x)
                assert np.all(np.isfinite(t))
            else:
                with pytest.raises(TMatrixError, match=r"overflows at order "
                                   r"%d, x = 0\.0001: " % n):
                    tmatrix._full_blocks_batch(np.array([n]),
                                               np.array([ktz]), eps, x)


def test_full_checks_only_the_requested_orders(monkeypatch):
    # an order that cannot be evaluated fails the requests that read it
    # and no other: a non-finite H_0(p) is read by orders 0 and +-1,
    # a non-finite interior J_3(p1) by orders 2 to 4 (through J_n'(p1));
    # every other order, whose tables hold the bad entry unread, keeps
    # its blocks bitwise
    orders = range(-6, 7)
    want = {n: _full(n, 0.5, EPS, 0.3) for n in orders}
    real = tmatrix._bessel_tables
    for table, order, readers in ((0, 0, {0, 1}), (2, 3, {2, 3, 4})):
        def broken(p, p1, top, table=table, order=order):
            tables = real(p, p1, top)
            if tables[table].shape[1] > order:
                tables[table][:, order] = np.nan
            return tables

        monkeypatch.setattr(tmatrix, "_bessel_tables", broken)
        for n in orders:
            if abs(n) in readers:
                with pytest.raises(TMatrixError):
                    _full(n, 0.5, EPS, 0.3)
            else:
                assert np.array_equal(_full(n, 0.5, EPS, 0.3), want[n])


def test_thin_argument_errors():
    # NaN passes a "radius <= 0" check
    with pytest.raises(ValueError, match="radius"):
        tmatrix.ThinExpansion(SIC, float("nan"))
    with pytest.raises(TMatrixError):
        _thin(0, 0.4, EPS, 0.0)
    with pytest.raises(TMatrixError):
        _thin(0, 0.4, EPS, -1.0)
    # the surface-mode pole at eps = -1 sits in the |n| = 1 entries
    with pytest.raises(TMatrixError):
        _thin(1, 0.4, -1.0 + 0j, 0.01)


def test_full_argument_errors():
    with pytest.raises(ValueError, match="radius"):
        tmatrix.FullSolve(SIC, float("nan"))
    with pytest.raises(TMatrixError):
        _full(0, 0.4, EPS, 0.0)


def test_batch_errors_name_the_offending_row():
    # with eps and x per row, an error names the size parameter of the
    # first row that fails
    orders = np.arange(-1, 2)
    ktz = np.array([0.2, 0.4, 0.6])
    x = np.array([0.01, 0.02, 0.03])
    for batch in (tmatrix._thin_blocks_batch, tmatrix._full_blocks_batch):
        with pytest.raises(TMatrixError, match=r"positive at x = -0\.02"):
            batch(orders, ktz, EPS, x * [1.0, -1.0, 1.0])
    with pytest.raises(TMatrixError, match=r"eps = -1 .*x = 0\.03"):
        tmatrix._thin_blocks_batch(orders, ktz, [EPS, EPS, -1.0], x)
    with pytest.raises(TMatrixError, match=r"medium \(x = 0\.03\)"):
        tmatrix._full_blocks_batch(orders, ktz, [EPS, EPS, 0.0], x)
    # a non-finite row, propagating or evanescent, is a bad argument,
    # rejected before any table is built, on both paths
    with pytest.raises(TMatrixError, match=r"non-finite .* x = 0\.02"):
        tmatrix._full_blocks_batch(orders, ktz, [EPS, np.nan, EPS], x)
    with pytest.raises(TMatrixError, match=r"non-finite .* x = 0\.03"):
        tmatrix._full_blocks_batch(orders, [0.2, 0.4, 1.6],
                                   [EPS, EPS, np.nan], x)
    with pytest.raises(TMatrixError, match=r"non-finite .* x = nan"):
        tmatrix._full_blocks_batch(orders, ktz, EPS, x * [1.0, np.nan, 1.0])
    with pytest.raises(TMatrixError, match=r"non-finite .* x = 0\.02"):
        tmatrix._thin_blocks_batch(orders, ktz, [EPS, np.nan, EPS], x)
    with pytest.raises(TMatrixError, match=r"non-finite .* x = 0\.01"):
        tmatrix._thin_blocks_batch(orders, [np.inf, 0.4, 0.6], EPS, x)


def test_thin_provider_zero_blocks_beyond_order_one():
    prov = tmatrix.ThinExpansion(SIC, 0.1e-6)
    assert np.all(prov.blocks([-3, 2, 5], [0.3], OMEGA) == 0)


def test_thin_provider_warns_beyond_validity():
    prov = tmatrix.ThinExpansion(SIC, 0.1e-6)
    omega_big = 4.0 * materials.C_LIGHT / 1e-6  # x = 0.4 > 0.3
    with pytest.warns(UserWarning):
        prov.blocks([0], [0.3], omega_big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prov.blocks([0], [0.3], OMEGA)  # x = 0.2 stays quiet


def test_provider_block_matches_direct_call():
    prov = tmatrix.FullSolve(SIC, 0.1e-6)
    x = prov.size_parameter(OMEGA)
    eps = SIC.epsilon(OMEGA)
    assert np.array_equal(prov.blocks([1], [0.3], OMEGA)[0, 0],
                          _full(1, 0.3, eps, x))


def test_batched_blocks_match_loop():
    # blocks() is batched over ktilde_z rows and order columns
    ktz = np.array([0.2, 0.3])
    for prov in (tmatrix.ThinExpansion(SIC, 0.1e-6),
                 tmatrix.FullSolve(SIC, 0.1e-6)):
        orders = range(-2, 3)
        batch = prov.blocks(orders, ktz, OMEGA)
        assert batch.shape == (2, 5, 2, 2)
        for k, kt in enumerate(ktz):
            for i, n in enumerate(orders):
                single = prov.blocks([n], [kt], OMEGA)[0, 0]
                scale = max(float(np.max(np.abs(single))), 1e-30)
                assert np.max(np.abs(batch[k, i] - single)) < 1e-10 * scale
    # thin blocks are one formula per entry, so one at a time is bitwise
    thin = tmatrix.ThinExpansion(SIC, 0.1e-6)
    batch = thin.blocks(range(-2, 3), ktz, OMEGA)
    for k, kt in enumerate(ktz):
        for i, n in enumerate(range(-2, 3)):
            assert np.array_equal(batch[k, i],
                                  thin.blocks([n], [kt], OMEGA)[0, 0])


@pytest.mark.parametrize("prov", [tmatrix.ThinExpansion(SIC, 0.1e-6),
                                  tmatrix.FullSolve(SIC, 0.1e-6)],
                         ids=["thin", "full"])
def test_blocks_with_omega_per_row_repeat_per_frequency_calls(prov):
    # a row's block depends only on its own (ktilde_z, omega), so one
    # call with omega per row, in any row order, repeats the calls at
    # each frequency bitwise
    orders = np.arange(-2, 3)
    ktz = np.concatenate([np.linspace(-0.9, 0.9, 7), np.linspace(1.1, 3.0, 5)])
    omegas = np.geomspace(1e13, 5e14, 4)
    single = np.concatenate([prov.blocks(orders, ktz, w) for w in omegas])
    shuffle = np.random.default_rng(3).permutation(single.shape[0])
    batch = prov.blocks(orders, np.tile(ktz, omegas.size)[shuffle],
                        np.repeat(omegas, ktz.size)[shuffle])
    assert np.array_equal(batch, single[shuffle])


@pytest.mark.parametrize("material", [SIC, TUNGSTEN], ids=["sic", "tungsten"])
@pytest.mark.parametrize("provider, orders",
                         [(tmatrix.ThinExpansion, np.arange(-1, 2)),
                          (tmatrix.FullSolve, np.arange(-3, 4))],
                         ids=["thin", "full"])
def test_largest_engine_call_repeats_single_row_calls(provider, orders,
                                                      material):
    # a row's block is bitwise independent of its call only while each
    # intermediate stays under NumPy's 256 KiB temporary-elision
    # threshold; memo reuse and bitwise sweep reruns rely on it at the
    # engine's largest calls, _MAX_BLOCK_ENTRIES entries over the orders
    prov = provider(material, 0.1e-6)
    n = engine._MAX_BLOCK_ENTRIES // len(orders)
    rng = np.random.default_rng(11)
    ktz = np.where(rng.random(n) < 0.5, rng.uniform(-0.99, 0.99, n),
                   rng.uniform(1.01, 30.0, n))
    omega = 10.0 ** rng.uniform(12.0, 14.9, n)  # x < 0.3 at R = 0.1 um
    single = np.concatenate([prov.blocks(orders, ktz[i:i + 1], omega[i])
                             for i in range(n)])
    assert np.array_equal(prov.blocks(orders, ktz, omega), single)



if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
