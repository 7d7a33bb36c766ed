"""Mode-resolved kernels: occupation factor, amplitude factors, the
literal f / f-tilde / s kernels against independent oracles, and the
folded vectorized sums against the literal double sums."""

import re
import warnings

import numpy as np
import pytest
from scipy import special as sp

import oracles
from neqcasimir import engine, kernels, materials, tmatrix
from neqcasimir.errors import QuadratureError
from neqcasimir.units import C_LIGHT, HBAR, K_BOLTZMANN

_, SIC = materials.load_material("sic")
PROV = tmatrix.ThinExpansion(SIC, 0.1e-6)
OMEGA = 2.0 * C_LIGHT / 1e-6  # omega d / c = 2 at d = 1 um
D = 1e-6

# propagating mode: ktilde_z = 0.3
KTZ_P = 0.3
KZ_P = KTZ_P * OMEGA / C_LIGHT
# evanescent mode: ktilde_z = 1.5
KTZ_E = 1.5
KZ_E = KTZ_E * OMEGA / C_LIGHT


def _blk(n, ktz=KTZ_P):
    return PROV.blocks([n], [ktz], OMEGA)[0, 0]


def test_occupation_trivials():
    assert oracles.occupation(0.0, 1e14) == 0.0
    assert abs(oracles.bose(np.log(2.0)) - 1.0) < 1e-14


def test_occupation_value_and_classical_limit():
    T = 300.0
    w = 0.01 * K_BOLTZMANN * T / HBAR
    occ = oracles.occupation(T, w)
    pref = w ** 2 * HBAR * (4.0 * np.pi) ** 2 / C_LIGHT ** 2
    direct = pref / np.expm1(HBAR * w / (K_BOLTZMANN * T))
    assert abs(occ - direct) < 1e-12 * direct
    classical = pref * K_BOLTZMANN * T / (HBAR * w)
    assert abs(occ - classical) < 0.01 * classical


def test_a_factor_branches():
    # propagating: Re T plus the quadratic product
    t1 = _blk(1)
    a_quad = oracles.a_factor(PROV, 1, KZ_P, OMEGA)
    assert np.allclose(a_quad, t1.real + t1 @ t1.conj().T, rtol=0,
                       atol=1e-18)
    a_lin = oracles.a_factor(PROV, 1, KZ_P, OMEGA, include_quadratic=False)
    assert np.array_equal(a_lin, t1.real.astype(complex))
    # evanescent: (-1)^n Re T and no quadratic term
    t0e = _blk(0, KTZ_E)
    t1e = _blk(1, KTZ_E)
    assert np.array_equal(oracles.a_factor(PROV, 0, KZ_E, OMEGA), t0e.real)
    assert np.array_equal(oracles.a_factor(PROV, 1, KZ_E, OMEGA), -t1e.real)


def test_quadratic_part_hermitian():
    t = _blk(1)
    quad = oracles.amplitude_entries(t, 1, "propagating", True) - t.real
    assert np.max(np.abs(quad - quad.conj().T)) < 1e-18


def test_f_kernel_zero_for_vacuum_blocks():
    zero = np.zeros((2, 2), dtype=complex)
    a2 = oracles.a_factor(PROV, 0, KZ_P, OMEGA)
    assert oracles.f_kernel(0, 0, KZ_P, OMEGA, zero, zero, a2, D) == 0.0
    assert oracles.f_kernel(0, 0, KZ_P, OMEGA, _blk(0), _blk(1), zero,
                            D) == 0.0


def test_f_kernel_single_mode_against_independent_oracle():
    # rebuild the propagating kernel from scratch: hankel products and
    # the complex polarization contraction, keeping everything complex
    # so the imaginary residue is visible
    a2 = oracles.a_factor(PROV, 0, KZ_P, OMEGA)
    t1_m = _blk(0)
    t1_mp1 = _blk(1)
    qd = np.sqrt(1.0 - KTZ_P ** 2) * OMEGA / C_LIGHT * D
    hp = sp.hankel1(0, qd) * np.conj(sp.hankel1(-1, qd))
    oracle = 0.0 + 0.0j
    for p in range(2):
        for q in range(2):
            lin = t1_m[p, q] + np.conj(t1_mp1[q, p])
            quad = sum(t1_m[p, r] * np.conj(t1_mp1[r, q]) for r in range(2))
            term = (hp * (lin + 2.0 * quad)).imag
            oracle += a2[p, q].real * term
            oracle += 2.0 * a2[p, q].imag * (hp * quad).real
    value = oracles.f_kernel(0, 0, KZ_P, OMEGA, t1_m, t1_mp1, a2, D)
    assert abs(oracle.imag) < 1e-12 * abs(oracle.real)
    assert abs(value - oracle.real) < 1e-12 * abs(oracle.real)
    # frozen spot value for regression
    assert value == pytest.approx(-0.0003142169558511704, rel=1e-12)


def test_f_kernel_reflection_symmetry():
    # (n, m, k_z) -> (-n, -m-1, -k_z) maps the block pair (m, m+1)
    # onto (-m-1, -m) and leaves the kernel invariant
    for n, m in ((1, 1), (0, 1), (-1, 0), (1, -1)):
        a2 = oracles.a_factor(PROV, n, KZ_P, OMEGA)
        fwd = oracles.f_kernel(n, m, KZ_P, OMEGA, _blk(m), _blk(m + 1),
                               a2, D)
        a2r = oracles.a_factor(PROV, -n, -KZ_P, OMEGA)
        rev = oracles.f_kernel(-n, -m - 1, -KZ_P, OMEGA,
                               _blk(-m - 1, -KTZ_P), _blk(-m, -KTZ_P),
                               a2r, D)
        assert fwd == rev


def test_f_tilde_reflection_antisymmetry():
    # the unweighted evanescent kernel flips sign under the same map;
    # the alternating (-1)^(n+m) prefactor applied by the caller flips
    # with it, so the summed integrand is invariant
    for n, m in ((1, 0), (0, 0), (1, 1), (0, -1)):
        fwd = oracles.f_tilde_kernel(n, m, KZ_E, OMEGA, _blk(m, KTZ_E),
                                     _blk(m + 1, KTZ_E), _blk(n, KTZ_E), D)
        rev = oracles.f_tilde_kernel(-n, -m - 1, -KZ_E, OMEGA,
                                     _blk(-m - 1, -KTZ_E),
                                     _blk(-m, -KTZ_E),
                                     _blk(-n, -KTZ_E), D)
        assert abs(fwd + rev) < 1e-12 * max(abs(fwd), 1e-300)


def test_f_tilde_decay_rate():
    # K_nu(y) K_(nu-1)(y) ~ (pi / 2y) e^(-2y): between two separations
    # the kernel must decay at least as fast as e^(-2 |q| d)
    absq = np.sqrt(KTZ_E ** 2 - 1.0) * OMEGA / C_LIGHT
    d1, d2 = 1e-6, 2e-6
    f1 = oracles.f_tilde_kernel(0, 0, KZ_E, OMEGA, _blk(0, KTZ_E),
                                _blk(1, KTZ_E), _blk(0, KTZ_E), d1)
    f2 = oracles.f_tilde_kernel(0, 0, KZ_E, OMEGA, _blk(0, KTZ_E),
                                _blk(1, KTZ_E), _blk(0, KTZ_E), d2)
    rate = np.log(abs(f1 / f2)) / (absq * (d2 - d1))
    assert rate >= 2.0
    assert rate < 3.0


def test_branch_validation():
    with pytest.raises(ValueError):
        oracles.f_kernel(0, 0, KZ_E, OMEGA, _blk(0), _blk(1),
                         oracles.a_factor(PROV, 0, KZ_P, OMEGA), D)
    with pytest.raises(ValueError):
        oracles.f_tilde_kernel(0, 0, KZ_P, OMEGA, _blk(0), _blk(1),
                               _blk(0), D)
    with pytest.raises(ValueError):
        oracles.f_kernel(0, 0, KZ_P, OMEGA, _blk(0), _blk(1),
                         oracles.a_factor(PROV, 0, KZ_P, OMEGA), -1.0)


def test_s_kernel_zero_for_vacuum_blocks():
    zero = np.zeros((2, 2), dtype=complex)
    a1 = oracles.a_factor(PROV, 0, KZ_P, OMEGA)
    assert oracles.s_kernel(0, 0, KZ_P, OMEGA, a1, zero, zero, D) == 0.0
    assert oracles.s_kernel(0, 0, KZ_P, OMEGA, zero, _blk(0), _blk(1),
                            D) == 0.0


def test_s_kernel_oscillation_period():
    # at large qd the mixed H J products oscillate like sin(2 q d), so
    # successive up-crossings in d are spaced by pi / q
    q = np.sqrt(1.0 - KTZ_P ** 2) * OMEGA / C_LIGHT
    a1 = oracles.a_factor(PROV, 0, KZ_P, OMEGA)
    ds = np.linspace(40e-6, 70e-6, 4000)
    vals = np.array([oracles.s_kernel(0, 0, KZ_P, OMEGA, a1, _blk(0),
                                      _blk(1), float(d)) for d in ds])
    up = [i for i in range(1, len(ds))
          if vals[i - 1] < 0.0 <= vals[i]]
    gaps = np.diff(ds[up])
    assert len(gaps) >= 10
    assert abs(gaps.mean() - np.pi / q) < 0.05 * np.pi / q


def test_kernel_scaling_x1sq_x2sq():
    # with quadratic terms off every term is linear in each thin block,
    # and thin entries are exactly quadratic in x
    s = 0.5
    prov_s = tmatrix.ThinExpansion(SIC, 0.1e-6 * s)
    a_full = oracles.a_factor(PROV, 0, KZ_P, OMEGA, include_quadratic=False)
    a_small = oracles.a_factor(prov_s, 0, KZ_P, OMEGA,
                               include_quadratic=False)
    f_full = oracles.f_kernel(0, 0, KZ_P, OMEGA, _blk(0), _blk(1), a_full,
                              D, include_quadratic=False)
    f_small = oracles.f_kernel(0, 0, KZ_P, OMEGA,
                               *prov_s.blocks([0, 1], [KTZ_P], OMEGA)[0],
                               a_small, D, include_quadratic=False)
    assert abs(f_small - f_full * s ** 4) < 1e-12 * abs(f_full * s ** 4)


def test_hankel_table_wronskian_column():
    # Im[H_nu(x) conj(H_(nu-1)(x))] = -2 / (pi x) for every order
    hp, h, jp = kernels.hankel_tables(np.array([7.3]), 3)
    assert np.max(np.abs(hp[0].imag + 2.0 / (np.pi * 7.3))) < 1e-15
    # h and jp columns against scipy directly
    for j, nu in enumerate(range(-3, 4)):
        assert abs(h[0, j] - sp.hankel1(nu, 7.3)) < 1e-14
        assert abs(jp[0, j] - sp.jvp(nu, 7.3)) < 1e-14


# handbook values at x = 1, frozen from a 50-digit reference
J0_1 = 0.7651976865579666
J1_1 = 0.4400505857449335
Y0_1 = 0.08825696421567696
K0_1 = 0.42102443824070834
K1_1 = 0.6019072301972346


def test_tables_reproduce_handbook_values():
    _, h, _ = kernels.hankel_tables(np.array([1.0]), 1)
    assert abs(h[0, 1] - complex(J0_1, Y0_1)) < 1e-14
    assert abs(h[0, 2].real - J1_1) < 1e-14
    # the nu = 0 column is (4 / pi^2) K_0 (K_(-1) + K_1) = (8 / pi^2) K_0 K_1
    kk = kernels.k_product_table(np.array([1.0]), 1)
    expected = 8.0 / np.pi ** 2 * K0_1 * K1_1
    assert abs(kk[0, 1] - expected) < 1e-14 * expected
    # two leading small-argument terms of J_2 and of K_0 K_1
    x = 1e-4
    h2 = (x / 2) ** 2
    _, h, _ = kernels.hankel_tables(np.array([x]), 2)
    assert abs(h[0, 4].real / (h2 / 2.0 * (1.0 - h2 / 3.0)) - 1.0) < 1e-12
    gamma_e = 0.5772156649015329
    log_half = np.log(x / 2)
    k0 = -log_half - gamma_e + h2 * (1.0 - gamma_e - log_half)
    k1 = 1.0 / x + x / 2 * (log_half + gamma_e - 0.5)
    kk = kernels.k_product_table(np.array([x]), 1)
    assert abs(kk[0, 1] / (8.0 / np.pi ** 2 * k0 * k1) - 1.0) < 1e-12


def test_k_product_table_columns():
    y = 2.4
    kk = kernels.k_product_table(np.array([y]), 3)
    for j, nu in enumerate(range(-3, 4)):
        direct = (4.0 / np.pi ** 2) * sp.kv(nu, y) \
            * (sp.kv(nu - 1, y) + sp.kv(nu + 1, y))
        assert abs(kk[0, j] - direct) < 1e-14 * abs(direct)


# --- tables over their whole argument range ---------------------------------
# the recurrences switch method at qd = nu_max + 2 (J upward above,
# Miller's backward recurrence below), so the grids include the points
# just below and at every order, and the first two zeros of J_0, where
# the backward run is scaled to J_1 instead

J0_ZEROS = (2.404825557695773, 5.520078110286311)


def _qd_grid(nu_max):
    orders = np.arange(1.0, nu_max + 4.0)
    return np.sort(np.concatenate([np.geomspace(1e-4, 400.0, 1500),
                                   orders - 1e-9, orders, J0_ZEROS]))


@pytest.mark.parametrize("nu_max", [2, 16])
def test_hankel_tables_over_range(nu_max):
    qd = _qd_grid(nu_max)
    hp, h, jp = kernels.hankel_tables(qd, nu_max)
    nus = np.arange(-nu_max, nu_max + 2)
    ref = sp.hankel1(nus[None, :], qd[:, None])  # orders -nu_max..nu_max+1
    ref_m1 = sp.hankel1(nus[None, :] - 1, qd[:, None])
    mag = np.abs(ref)
    assert np.all(np.abs(h - ref[:, :-1]) <= 1e-13 * mag[:, :-1])
    assert np.all(np.abs(jp - sp.jvp(nus[None, :-1], qd[:, None]))
                  <= 1e-13 * mag[:, :-1])
    assert np.all(np.abs(hp - ref * np.conj(ref_m1))
                  <= 1e-13 * mag * np.abs(ref_m1))


@pytest.mark.parametrize("nu_max", [2, 16])
def test_hankel_tables_wronskian_over_range(nu_max):
    # Im[H_nu conj(H_(nu-1))] = J_nu Y_(nu-1) - Y_nu J_(nu-1) = -2/(pi x)
    qd = _qd_grid(nu_max)
    hp, _, _ = kernels.hankel_tables(qd, nu_max)
    exact = -2.0 / (np.pi * qd[:, None])
    assert np.all(np.abs(hp.imag - exact) <= 1e-13 * np.abs(exact))


@pytest.mark.parametrize("nu_max", [2, 16])
def test_k_product_table_over_range(nu_max):
    y = np.geomspace(1e-3, 35.0, 1500)
    kk = kernels.k_product_table(y, nu_max)
    nus = np.arange(-nu_max, nu_max + 1)[None, :]
    yy = y[:, None]
    direct = (4.0 / np.pi ** 2) * sp.kv(nus, yy) \
        * (sp.kv(nus - 1, yy) + sp.kv(nus + 1, yy))
    assert np.all(np.abs(kk - direct) <= 1e-13 * direct)


def test_k_product_ceiling_at_the_engines_smallest_y_node():
    # the engine's y grid starts at the first Gauss-Kronrod node on
    # [0, 0.01], y = 4.27e-5 at grid factor 1.  There the K-product
    # table is finite through order 26 and overflows from order 27, so
    # blocks on orders up to 13 (the table runs to twice the order) are
    # the most an evanescent integral can carry
    y = engine._evan_tables(1, np.arange(-1, 2), engine._EVAN_EDGES)[0][:1]
    assert y[0] == pytest.approx(4.27231e-5, rel=1e-5)
    kk = kernels.k_product_table(y, 27)
    nus = np.arange(-27, 28)
    assert np.array_equal(np.isfinite(kk[0]), np.abs(nus) <= 26)


@pytest.mark.parametrize("table", [kernels.hankel_tables,
                                   kernels.k_product_table])
def test_table_overflow_caught_at_the_sums(table):
    # Y_n and K_n grow like (n - 1)! (2 / x)^n, so at an argument of
    # 1e-6 a table of order 64 (twice the order probe's cap of 32)
    # overflows in its outer columns.  The table returns inf there
    # without a warning; a sum that reads no such column passes
    # require_finite unchanged, and one that does raises, naming the
    # lowest order that overflows and the argument
    arg = np.array([1e-6, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = table(arg, 64)
    out = out[0] if isinstance(out, tuple) else out
    assert not np.all(np.isfinite(out))
    vals = np.array([0.5, 1.5])
    assert kernels.require_finite(vals, out, arg, 64, "x") is vals
    with pytest.raises(QuadratureError) as err:
        kernels.require_finite(np.array([np.nan, 1.0]), out, arg, 64, "x")
    found = re.search(r"order (-?\d+) overflows at x = 1e-06",
                      str(err.value))
    assert found
    order = abs(int(found.group(1)))
    assert 16 < order < 64
    below = table(arg, order - 1)
    below = below if isinstance(below, tuple) else (below,)
    assert all(np.all(np.isfinite(part)) for part in below)
    # a non-finite sum over a finite table still raises
    with pytest.raises(QuadratureError, match="kernel sum is not finite"):
        kernels.require_finite(np.array([np.inf, 1.0]), below[0], arg,
                               order - 1, "x")


# --- folded sums against literal double sums ---------------------------------
# with thin blocks every order beyond |n| = 1 is zero, so the folded
# edge handling and the literal block-pair convention coincide exactly

HALF = 2
ORDERS = np.arange(-HALF, HALF + 1)
NU_MAX = 2 * HALF


def test_prop_kernel_sum_matches_literal():
    qd = np.sqrt(1.0 - KTZ_P ** 2) * OMEGA / C_LIGHT * D
    t1 = np.stack([_blk(int(m)) for m in ORDERS])[None, :]
    a2 = np.stack([oracles.a_factor(PROV, int(n), KZ_P, OMEGA)
                   for n in ORDERS])[None, :]
    hp, _, _ = kernels.hankel_tables(np.array([qd]), NU_MAX)
    for inc in (True, False):
        a2_use = a2 if inc else np.stack(
            [oracles.a_factor(PROV, int(n), KZ_P, OMEGA,
                              include_quadratic=False)
             for n in ORDERS])[None, :]
        folded = kernels.prop_kernel_sum(a2_use, t1, hp, NU_MAX,
                                         include_quadratic=inc)[0]
        literal = sum(
            oracles.f_kernel(int(n), int(m), KZ_P, OMEGA, _blk(int(m)),
                             _blk(int(m) + 1), a2_use[0, int(n) + HALF],
                             D, include_quadratic=inc)
            for n in ORDERS for m in ORDERS)
        assert abs(folded - literal) < 1e-12 * abs(literal)


def test_evan_kernel_sum_matches_literal():
    y = np.sqrt(KTZ_E ** 2 - 1.0) * OMEGA / C_LIGHT * D
    t1 = np.stack([_blk(int(m), KTZ_E) for m in ORDERS])[None, :]
    kk = kernels.k_product_table(np.array([y]), NU_MAX)
    folded = kernels.evan_kernel_sum(t1, t1, kk, NU_MAX)[0]
    literal = 0.0
    for n in ORDERS:
        for m in ORDERS:
            sign = -1.0 if (int(n) + int(m)) % 2 else 1.0
            literal += sign * oracles.f_tilde_kernel(
                int(n), int(m), KZ_E, OMEGA, _blk(int(m), KTZ_E),
                _blk(int(m) + 1, KTZ_E), _blk(int(n), KTZ_E), D)
    assert abs(folded - literal) < 1e-12 * abs(literal)


def test_pair_kernel_sum_matches_literal():
    qd = np.sqrt(1.0 - KTZ_P ** 2) * OMEGA / C_LIGHT * D
    t1 = np.stack([_blk(int(m)) for m in ORDERS])[None, :]
    a1 = np.stack([oracles.a_factor(PROV, int(n), KZ_P, OMEGA)
                   for n in ORDERS])[None, :]
    _, h, jp = kernels.hankel_tables(np.array([qd]), NU_MAX)
    folded = kernels.pair_kernel_sum(a1, t1, h, jp, NU_MAX)[0]
    literal = sum(
        oracles.s_kernel(int(n), int(m), KZ_P, OMEGA,
                         a1[0, int(n) + HALF], _blk(int(m)),
                         _blk(int(m) + 1), D)
        for n in ORDERS for m in ORDERS)
    assert abs(folded - literal) < 1e-12 * abs(literal)


# --- folded sums on full blocks at several nodes ------------------------------
# every order of the full solve is nonzero, so these catch an order or
# node mix-up that the single-node thin-block checks above cannot

FULL = tmatrix.FullSolve(SIC, 1e-6)   # size parameter 2 at OMEGA
FULL_HALF = 3
FULL_ORDERS = np.arange(-FULL_HALF, FULL_HALF + 1)
FULL_NU_MAX = 2 * FULL_HALF


def _loop_sum(a, b, kern):
    """sum_(n, m, P, P') kern(k, n - m, n, m) a[k, n, P, P'] b[k, m, P, P']
    per node k, for b on the first b.shape[1] orders of a's set."""
    out = np.zeros(a.shape[0], dtype=complex)
    for k in range(a.shape[0]):
        for i, n in enumerate(FULL_ORDERS):
            for j, m in enumerate(FULL_ORDERS[:b.shape[1]]):
                w = kern(k, int(n - m) + FULL_NU_MAX, int(n), int(m))
                for p in range(2):
                    for q in range(2):
                        out[k] += w * a[k, i, p, q] * b[k, j, p, q]
    return out


def test_folded_sums_against_loops_on_full_blocks():
    ktz_p = np.array([-0.8, -0.25, 0.1, 0.55, 0.9])
    qd = np.sqrt(1.0 - ktz_p ** 2) * OMEGA / C_LIGHT * D * 3.0
    t = FULL.blocks(FULL_ORDERS, ktz_p, OMEGA)
    assert np.all(np.abs(t[:, 0]) > 0) and np.all(np.abs(t[:, -1]) > 0)
    hp, h, jp = kernels.hankel_tables(qd, FULL_NU_MAX)
    for inc in (True, False):
        amp = kernels.prop_amplitude(t, inc)
        ref = _loop_sum(amp.real, t.real, lambda k, c, n, m:
                        hp[k, c].imag + hp[k, c + 1].imag)
        ref += _loop_sum(amp.real, t.imag, lambda k, c, n, m:
                         hp[k, c].real - hp[k, c + 1].real)
        if inc:
            q = oracles.quadratic_product_matmul(t)
            ref += 2.0 * _loop_sum(amp, q, lambda k, c, n, m:
                                   hp[k, c]).imag
        folded = kernels.prop_kernel_sum(amp, t, hp, FULL_NU_MAX, inc)
        assert np.all(np.abs(folded - ref.real) <= 1e-12 * np.abs(ref.real))
    amp = kernels.prop_amplitude(t, True)
    ref = 4.0 * _loop_sum(amp.real, t, lambda k, c, n, m:
                          jp[k, c] * h[k, c]).imag
    folded = kernels.pair_kernel_sum(amp, t, h, jp, FULL_NU_MAX)
    assert np.all(np.abs(folded - ref) <= 1e-12 * np.abs(ref))

    ktz_e = np.array([-2.5, -1.3, 1.1, 1.7, 3.0])
    y = np.sqrt(ktz_e ** 2 - 1.0) * OMEGA / C_LIGHT * D
    te = FULL.blocks(FULL_ORDERS, ktz_e, OMEGA)
    kk = kernels.k_product_table(y, FULL_NU_MAX)
    ref = _loop_sum(te.real, te.imag, lambda k, c, n, m:
                    kk[k, c] * (-1.0) ** (n + m)).real
    folded = kernels.evan_kernel_sum(te, te, kk, FULL_NU_MAX)
    assert np.all(np.abs(folded - ref) <= 1e-12 * np.abs(ref))


def test_order_sums_in_runs_match_one_run(monkeypatch):
    # _order_sums splits its rows into runs of bounded memory; with one
    # row per run every folded sum repeats the one-run value within the
    # rounding of the BLAS product
    ktz = np.linspace(-0.95, 0.95, 40)
    qd = np.sqrt(1.0 - ktz ** 2) * OMEGA / C_LIGHT * D * 3.0
    hp, h, jp = kernels.hankel_tables(qd, FULL_NU_MAX)
    ktz_e = np.linspace(1.05, 3.0, 40)
    kk = kernels.k_product_table(
        np.sqrt(ktz_e ** 2 - 1.0) * OMEGA / C_LIGHT * D, FULL_NU_MAX)
    t, te = FULL.blocks(FULL_ORDERS, ktz, OMEGA), \
        FULL.blocks(FULL_ORDERS, ktz_e, OMEGA)
    amp = kernels.prop_amplitude(t)

    def sums():
        return (kernels.prop_kernel_sum(amp, t, hp, FULL_NU_MAX),
                kernels.pair_kernel_sum(amp, t, h, jp, FULL_NU_MAX),
                kernels.evan_kernel_sum(te, te, kk, FULL_NU_MAX))

    whole = sums()
    monkeypatch.setattr(kernels, "_ORDER_SUM_BYTES", 1)
    for one, ref in zip(sums(), whole):
        assert np.all(np.abs(one - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("prov", [PROV, FULL], ids=["thin", "full"])
def test_propagating_sums_even_in_kz(prov):
    # the propagating integral runs over the whole psi range; its
    # interaction and pair sums take the same value at -k_z as at k_z,
    # with and without the quadratic term of the source amplitude
    ktz = np.array([0.05, 0.3, 0.6, 0.85, 0.99])
    qd = np.sqrt(1.0 - ktz ** 2) * OMEGA / C_LIGHT * D * 3.0
    hp, h, jp = kernels.hankel_tables(qd, FULL_NU_MAX)
    t_pos = prov.blocks(FULL_ORDERS, ktz, OMEGA)
    t_neg = prov.blocks(FULL_ORDERS, -ktz, OMEGA)
    assert np.any(t_neg != t_pos)
    for inc in (True, False):
        pos, neg = (
            (kernels.prop_kernel_sum(kernels.prop_amplitude(t, inc), t, hp,
                                     FULL_NU_MAX, inc),
             kernels.pair_kernel_sum(kernels.prop_amplitude(t, inc), t, h,
                                     jp, FULL_NU_MAX))
            for t in (t_pos, t_neg))
        for plus, minus in zip(pos, neg):
            assert np.all(np.abs(minus - plus) <= 1e-13 * np.abs(plus))


def _random_blocks(rng, symmetric, shape=(600, 8)):
    # complex 2x2 blocks whose magnitudes span 1e-12 .. 1e3 over the
    # stack, so each block's own tolerance matters
    t = rng.standard_normal(shape + (2, 2)) \
        + 1j * rng.standard_normal(shape + (2, 2))
    t *= 10.0 ** rng.uniform(-12.0, 3.0, shape)[..., None, None]
    if symmetric:
        t[..., 1, 0] = t[..., 0, 1]
    return t


def _within_4_ulp(got, ref, *terms):
    # each 2x2 block within 4 ulp of the largest entry of its block of
    # ref, or of a term summed into it, whichever is larger
    big = np.max(np.abs(np.stack((ref,) + terms)), axis=(0, -2, -1))
    return np.all(np.abs(got - ref) <= 4.0 * np.spacing(big)[..., None, None])


@pytest.mark.parametrize("symmetric", [True, False],
                         ids=["symmetric", "general"])
def test_prop_amplitude_matches_matmul(symmetric):
    # the entrywise Re T + T T^dagger holds for any block, symmetric or
    # not; without the quadratic term it is the real view itself
    t = _random_blocks(np.random.default_rng(11), symmetric)
    got = kernels.prop_amplitude(t)
    ref = oracles.prop_amplitude_matmul(t)
    assert got.shape == t.shape and got.dtype == complex
    # Re T and T T^dagger may cancel, so the scale is the larger term
    assert _within_4_ulp(got, ref, t.real, ref - t.real)
    assert np.all(np.diagonal(got, axis1=-2, axis2=-1).imag == 0)
    assert np.array_equal(kernels.prop_amplitude(t, False), t.real)


def test_quadratic_product_matches_matmul():
    # t[m] conj(t[m + 1]) on symmetric blocks, as every provider makes
    t = _random_blocks(np.random.default_rng(12), True)
    got = kernels._quadratic_product(t)
    assert got.shape == (600, 7, 2, 2)
    assert _within_4_ulp(got, oracles.quadratic_product_matmul(t))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_miller_j_matches_the_table_form_bitwise(kind):
    # coefficients formed per step round exactly as a table of them
    x = np.geomspace(1e-3, 80.0, 257)
    if kind == "complex":
        x = x * np.exp(0.4j) + 0.5j
    two_over_x = 2.0 / x
    j0, j1 = sp.jv(0, x), sp.jv(1, x)
    for top in (1, 9, 33):
        got = kernels._miller_j(x, two_over_x, top, j0, j1)
        ref = oracles.miller_j_table(x, two_over_x, top, j0, j1)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_mode_point_branches():
    p = oracles.ModePoint(omega=OMEGA, k_z=KZ_P, n=0, m=0)
    assert p.branch == "propagating"
    assert abs(p.q.real - np.sqrt(1.0 - KTZ_P ** 2) * OMEGA / C_LIGHT) \
        < 1e-9 * p.q.real
    e = oracles.ModePoint(omega=OMEGA, k_z=KZ_E, n=0, m=0)
    assert e.branch == "evanescent"
    assert e.q.real == 0.0
    assert e.q.imag > 0.0


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
