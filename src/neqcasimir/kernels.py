"""Mode-resolved integrand pieces for the cylinder force integrals.

For a pair of parallel cylinders the force per length is an integral
over frequency and axial wavenumber of sums over azimuthal orders
(n for the source cylinder, m for the target).  This module supplies

* the thermal source strength (occupation),
* the source amplitude factor built from scattering blocks,
* scalar per-(n, m) kernels in the literal form of the underlying
  theory (reference implementations used by tests), and
* folded, vectorized order sums used by the engine.

The folded sums reindex the (m, m+1) pairs of the literal kernels so
that each target order appears exactly once; the result equals the
literal double sum extended over every term in which a retained block
appears, and it is manifestly even under k_z -> -k_z together with
(n, m) -> (-n, -m).

Propagating kernels use products of outgoing cylindrical waves
H1_nu(q d); the evanescent kernel is their continuation to imaginary
transverse wavenumber, which turns them into real decaying products
K_nu(|q| d) K_[nu +- 1](|q| d) * (4 / pi^2).

All "blocks" arrays are stacked scattering blocks of shape
(Nk, No, 2, 2): axial nodes x contiguous azimuthal orders x (P, P').
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import QuadratureError
from .units import C_LIGHT, HBAR, K_BOLTZMANN

_FOUR_OVER_PI2 = 4.0 / math.pi ** 2

PROPAGATING = "propagating"
EVANESCENT = "evanescent"


@dataclass(frozen=True)
class ModePoint:
    """One (omega, k_z, n, m) integration point.

    The transverse wavenumber q = sqrt((omega/c)^2 - k_z^2) is real on
    the propagating branch and i|q| on the evanescent branch; the
    branch tag and q are derived, not stored.
    """

    omega: float
    k_z: float
    n: int
    m: int

    def __post_init__(self):
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError("omega must be positive and finite")
        if int(self.n) != self.n or int(self.m) != self.m:
            raise ValueError("orders n, m must be integers")

    @property
    def ktilde_z(self):
        return self.k_z * C_LIGHT / self.omega

    @property
    def branch(self):
        return EVANESCENT if abs(self.ktilde_z) > 1.0 else PROPAGATING

    @property
    def q(self):
        k = self.omega / C_LIGHT
        q2 = k * k - self.k_z * self.k_z
        if q2 >= 0:
            return complex(math.sqrt(q2), 0.0)
        return complex(0.0, math.sqrt(-q2))


def bose(u):
    """Thermal occupation 1 / (e^u - 1) for u = hbar omega / k_B T."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(u)
    return out[()] if out.ndim == 0 else out


def occupation(temperature, omega):
    """Source strength a(T, omega) of thermal current fluctuations.

    a = omega^2 hbar (4 pi)^2 / c^2 * 1 / (e^[hbar omega / k_B T] - 1).
    Zero temperature means no thermal sources: returns 0.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise ValueError("omega must be positive")
    pref = w * w * HBAR * (4.0 * math.pi) ** 2 / C_LIGHT ** 2
    if temperature == 0:
        out = np.zeros_like(pref)
    else:
        out = pref * bose(HBAR * w / (K_BOLTZMANN * temperature))
    return out[()] if out.ndim == 0 else out


def _block_entries(block):
    """Accept a raw (2, 2) array or anything carrying .entries."""
    return np.asarray(getattr(block, "entries", block), dtype=complex)


def amplitude_entries(entries, order, branch, include_quadratic=True):
    """Source amplitude factor of one scattering block.

    Propagating branch: Re(T) plus, when include_quadratic, the product
    sum_[P''] T[P, P''] conj(T[P', P'']).  Evanescent branch:
    (-1)^order Re(T); no quadratic term survives there.

    entries : (2, 2) complex block; returns a (2, 2) complex array.
    """
    t = _block_entries(entries)
    if branch == PROPAGATING:
        out = t.real.astype(complex)
        if include_quadratic:
            out = out + t @ t.conj().T
        return out
    if branch == EVANESCENT:
        sign = -1.0 if (order % 2) else 1.0
        return sign * t.real.astype(complex)
    raise ValueError("branch must be 'propagating' or 'evanescent'")


def a_factor(provider, n, k_z, omega, include_quadratic=True):
    """Amplitude factor A of order n at one (omega, k_z) point.

    Evaluates the provider's scattering block and combines it per the
    branch that (omega, k_z) falls on: Re(T) plus the optional
    quadratic product on the propagating side, (-1)^n Re(T) on the
    evanescent side.
    """
    point = ModePoint(omega=omega, k_z=k_z, n=n, m=0)
    block = provider.block(n, point.ktilde_z, omega)
    return amplitude_entries(block, n, point.branch, include_quadratic)


def prop_amplitude(blocks, include_quadratic=True):
    """Vectorized propagating-branch amplitude factor.

    blocks : (..., 2, 2) complex stacked scattering blocks.
    Returns the same shape: Re(T) [+ T T^dagger].
    """
    t = np.asarray(blocks, dtype=complex)
    out = t.real.astype(complex)
    if include_quadratic:
        out = out + np.matmul(t, np.conj(np.swapaxes(t, -1, -2)))
    return out


# --- scalar reference kernels ------------------------------------------------

def _qd_propagating(n, m, k_z, omega, d):
    point = ModePoint(omega=omega, k_z=k_z, n=n, m=m)
    if point.branch != PROPAGATING:
        raise ValueError("kernel defined on the propagating branch: "
                         "|k_z| must be below omega / c")
    if not d > 0:
        raise ValueError("separation must be positive")
    return point.q.real * d


def f_kernel(n, m, k_z, omega, t1_m, t1_mp1, a2, d,
             include_quadratic=True):
    """Literal propagating interaction kernel for one (n, m) pair.

    a2 is the source amplitude factor at order n, t1_m and t1_mp1 the
    target blocks at orders m and m + 1.  Returns the real kernel
    value summed over polarizations, as consumed by the propagating
    side of the interaction-force integrand.
    """
    qd = _qd_propagating(n, m, k_z, omega, d)
    a2 = _block_entries(a2)
    t1_m = _block_entries(t1_m)
    t1_mp1 = _block_entries(t1_mp1)
    nu = n - m
    hp = _sp.hankel1(nu, qd) * np.conj(_sp.hankel1(nu - 1, qd))
    total = 0.0
    for pp in range(2):
        for qq in range(2):
            lin = t1_m[pp, qq] + np.conj(t1_mp1[qq, pp])
            quad = 0.0 + 0.0j
            if include_quadratic:
                for rr in range(2):
                    quad += t1_m[pp, rr] * np.conj(t1_mp1[rr, qq])
            total += a2[pp, qq].real * (hp * (lin + 2.0 * quad)).imag
            total += 2.0 * a2[pp, qq].imag * (hp * quad).real
    return float(total)


def f_tilde_kernel(n, m, k_z, omega, t1_m, t1_mp1, t2, d):
    """Literal evanescent interaction kernel for one (n, m) pair.

    Outgoing-wave products at imaginary transverse wavenumber reduce
    to real K-function products; all residual i-powers are folded into
    the alternating (-1)^(n+m) prefactor of the force expression,
    which is NOT included here - the caller applies it.
    """
    point = ModePoint(omega=omega, k_z=k_z, n=n, m=m)
    if point.branch != EVANESCENT:
        raise ValueError("kernel defined on the evanescent branch: "
                         "|k_z| must exceed omega / c")
    if not d > 0:
        raise ValueError("separation must be positive")
    y = point.q.imag * d
    t2 = _block_entries(t2)
    t1_m = _block_entries(t1_m)
    t1_mp1 = _block_entries(t1_mp1)
    nu = n - m
    kprod = _FOUR_OVER_PI2 * _sp.kv(nu, y) * _sp.kv(nu - 1, y)
    total = 0.0
    for pp in range(2):
        for qq in range(2):
            total += t2[pp, qq].real * kprod \
                * (t1_m[pp, qq].imag - t1_mp1[pp, qq].imag)
    return float(total)


def s_kernel(n, m, k_z, omega, a1, t2_m, t2_mp1, d):
    """Literal pair-source kernel for one (n, m) pair.

    Mixes outgoing and regular waves; defined on the propagating
    branch only, since only propagating modes carry momentum to
    infinity and the evanescent contribution vanishes identically.
    """
    qd = _qd_propagating(n, m, k_z, omega, d)
    a1 = _block_entries(a1)
    t2_m = _block_entries(t2_m)
    t2_mp1 = _block_entries(t2_mp1)
    nu = n - m
    h_nu = _sp.hankel1(nu, qd)
    h_num1 = _sp.hankel1(nu - 1, qd)
    j_nu = _sp.jv(nu, qd)
    j_num1 = _sp.jv(nu - 1, qd)
    total = 0.0
    for pp in range(2):
        for qq in range(2):
            val = h_nu * j_num1 * t2_m[pp, qq] \
                + j_nu * np.conj(h_num1) * np.conj(t2_mp1[pp, qq])
            total += 2.0 * a1[pp, qq].real * val.imag
    return float(total)


# --- vectorized tables and folded sums ---------------------------------------
#
# The tables come from the integer-order functions J_0, J_1, Y_0, Y_1,
# K_0 and K_1 and three-term recurrences in the order (Gautschi, SIAM
# Rev. 9, 24 (1967); DLMF 10.6.1, 10.29.1, 10.74(iv)).  Each recurrence
# runs in the direction in which the wanted solution dominates, so
# rounding errors stay at the level of the values themselves.

@lru_cache(maxsize=64)
def _signed_rows(lo, hi):
    """Row |nu| for nu = lo .. hi, and the mask of rows to negate, that
    turn a table of orders 0, 1, ... into orders lo .. hi by the
    reflection Z_(-n) = (-1)^n Z_n of integer-order J, Y and H."""
    nu = np.arange(lo, hi + 1)
    rows, flip = np.abs(nu), (nu < 0) & (nu % 2 == 1)
    rows.flags.writeable = flip.flags.writeable = False
    return rows, flip


def _recur_up(z0, z1, two_over_x, top, step):
    """Rows Z_0 .. Z_top of Z_(n+1) = step((2n / x) Z_n, Z_(n-1)), run
    upward from Z_0 and Z_1: step = np.subtract for J, Y and H,
    np.add for the modified function K (and its scaled form e^x K)."""
    rows = np.empty((top + 1,) + z0.shape, dtype=z0.dtype)
    rows[0] = z0
    rows[1] = z1
    coef = np.arange(top)[:, None] * two_over_x
    for n in range(1, top):
        np.multiply(coef[n], rows[n], out=rows[n + 1])
        step(rows[n + 1], rows[n - 1], out=rows[n + 1])
    return rows


def _miller_j(x, two_over_x, top, j0, j1):
    """J_0 .. J_top at 0 < x < top by Miller's backward recurrence.

    The ratio r_(top+1) = J_(top+1) / J_top comes from the continued
    fraction r_k = 1 / (2k / x - r_(k+1)), started at r = 0 at order
    top + k_extra; it involves only ratios, so it cannot overflow.
    The truncation error of that start falls like
    (x / 2)^(2k) (top! / (top + k)!)^2 in the extra order k, and
    k_extra = 8 + sqrt(12 top) leaves it below rounding up to x -> top
    (k = 11 suffices at top = 4, k = 27 at top = 66).

    From J_top = 1e-300 the recurrence J_(k-1) = (2k / x) J_k - J_(k+1)
    then runs down to order 0, where J is dominant, and the rows are
    scaled to the larger in magnitude of the exact J_0 and J_1 (they
    have no common zero, so the scale keeps full relative accuracy
    next to a zero of either).  The tiny start lets the run grow by
    J_0 / J_top up to 1e608 before it overflows; by then Y_top is far
    beyond the double range anyway.
    """
    start = top + 8 + int(math.sqrt(12.0 * top))
    coef = np.arange(start + 1)[:, None] * two_over_x
    r = np.zeros_like(x)
    for k in range(start, top, -1):
        r = 1.0 / (coef[k] - r)
    rows = np.empty((top + 2,) + x.shape)
    rows[top] = 1e-300
    rows[top + 1] = rows[top] * r
    for k in range(top, 0, -1):
        np.multiply(coef[k], rows[k], out=rows[k - 1])
        rows[k - 1] -= rows[k + 1]
    use_j0 = np.abs(j0) >= np.abs(j1)
    scale = np.where(use_j0, j0, j1) / np.where(use_j0, rows[0], rows[1])
    return rows[:top + 1] * scale


def require_finite(vals, table, args, nu_max, arg_name):
    """Return the kernel sum vals, or raise QuadratureError where it is
    not finite.

    The tables overflow at small arguments and high orders, where Y_n
    and K_n grow like (n - 1)! (2 / x)^n; they return inf there, and a
    folded sum turns the inf into nan.  Only the sums are checked, so a
    table column that a caller never reads may overflow freely.  The
    error names the lowest order whose column of table (column j holds
    order j - nu_max, one row per argument in args) is not finite and
    the smallest argument where it fails.
    """
    if np.all(np.isfinite(vals)):
        return vals
    bad = ~np.isfinite(table)
    if not bad.any():
        raise QuadratureError("kernel sum is not finite")
    nu = np.flatnonzero(bad.any(axis=0)) - nu_max
    nu = nu[np.argmin(np.abs(nu))]
    arg = float(np.min(args[bad[:, nu + nu_max]]))
    raise QuadratureError(
        "kernel sum is not finite: its table of order %d overflows at "
        "%s = %.6g; the azimuthal order cap is too high for this "
        "argument" % (nu, arg_name, arg))


def hankel_tables(qd, nu_max):
    """Products of outgoing waves for the propagating kernels.

    Returns (hp, h, jp):
    hp[:, j] = H1_nu(qd) conj(H1_[nu-1](qd)) for nu = j - nu_max,
               j = 0 .. 2 nu_max + 1 (one extra column at nu_max + 1),
    h[:, j]  = H1_nu(qd) for nu = j - nu_max, j = 0 .. 2 nu_max,
    jp[:, j] = J'_nu(qd) (recurrence) same layout as h.

    H1_n = J_n + i Y_n for n = 0 .. nu_max + 2 follows from J_0, J_1,
    Y_0 and Y_1 by the upward recurrence
    Z_(n+1) = (2n / qd) Z_n - Z_(n-1).  Y grows with the order, so the
    upward run is stable for Y at every argument, and for J while the
    order stays at or below qd, where J and Y oscillate with one
    envelope.  At qd below the top order J is the decaying solution,
    and there its upward values are replaced by Miller's backward
    recurrence (`_miller_j`).  Negative orders follow from
    Z_(-n) = (-1)^n Z_n.  qd must be positive.  At small qd and high
    orders Y overflows and the columns hold inf; see require_finite.
    """
    x = np.asarray(qd, dtype=float)
    top = nu_max + 2
    two_over_x = 2.0 / x
    j0, j1 = _sp.j0(x), _sp.j1(x)
    rows, flip = _signed_rows(-nu_max - 1, nu_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        h_pos = _recur_up(j0 + 1j * _sp.y0(x), j1 + 1j * _sp.y1(x),
                          two_over_x, top, np.subtract)
        small = x < top
        if np.any(small):
            h_pos.real[:, small] = _miller_j(
                x[small], two_over_x[small], top, j0[small], j1[small])
        h_all = h_pos[rows]  # row r holds order r - nu_max - 1
        h_all[flip] = -h_all[flip]
        hp = (h_all[1:] * np.conj(h_all[:-1])).T
        jp = 0.5 * (h_all[:-2].real - h_all[2:].real).T
    return hp, h_all[1:-1].T, jp


def k_product_table(y, nu_max):
    """Evanescent wave products (4 / pi^2) K_nu (K_[nu-1] + K_[nu+1])
    at y = |q| d, for nu = column - nu_max.

    The scaled functions e^y K_n for n = 0 .. nu_max + 1 follow from
    e^y K_0 and e^y K_1 by the upward recurrence
    K_(n+1) = (2n / y) K_n + K_(n-1), which is stable at every
    argument because K grows with the order; no fallback is needed.
    Scaling keeps the product representable until the factor
    e^(-2y) is applied; underflow to zero is harmless.  At small y and
    high orders the product overflows to inf; see require_finite.  y
    must be positive.
    """
    y = np.asarray(y, dtype=float)
    hi = nu_max + 1
    rows, _ = _signed_rows(-hi, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        kve = _recur_up(_sp.k0e(y), _sp.k1e(y), 2.0 / y, hi, np.add)
        k_all = kve[rows]  # row r holds order r - hi; K_(-n) = K_n
        out = k_all[1:-1] * (k_all[:-2] + k_all[2:])
        return (_FOUR_OVER_PI2 * out * np.exp(-2.0 * y)).T


@lru_cache(maxsize=64)
def _diagonal_projector(n_src, n_tgt, nu_max, alternate):
    """0/1 matrix P of shape (n_src * n_tgt, 2 nu_max + 1) that sums a
    flattened (n, m) order matrix along its diagonals: P[(n, m), j] = 1
    where n - m = j - nu_max.  Source orders are the contiguous
    symmetric set of n_src; target orders are its first n_tgt.  With
    alternate, each entry carries (-1)^(n+m)."""
    half = (n_src - 1) // 2
    n = np.arange(-half, half + 1)[:, None]
    m = np.arange(-half, half + 1)[None, :n_tgt]
    p = np.zeros((n_src * n_tgt, 2 * nu_max + 1))
    p[np.arange(n_src * n_tgt), (n - m + nu_max).ravel()] = 1.0
    if alternate:
        p *= np.where((n + m) % 2 == 0, 1.0, -1.0).reshape(-1, 1)
    p.flags.writeable = False  # shared by every caller through the cache
    return p


def _order_sums(a, b, nu_max, alternate=False):
    """D[k, j] = sum over order pairs (n, m) with n - m = j - nu_max of
    G[k, n, m] (times (-1)^(n+m) when alternate), where
    G[k, n, m] = sum_PP' a[k, n, P, P'] b[k, m, P, P'].

    G is one batched matmul over the flattened 2x2 polarization axis.
    Every folded kernel depends on n and m only through nu = n - m, so
    its order sum is sum_j kernel[k, j] D[k, j], and the diagonal sums
    are one more matmul with a fixed projector.
    """
    nk, n_src = a.shape[:2]
    n_tgt = b.shape[1]
    g = np.matmul(a.reshape(nk, n_src, 4),
                  b.reshape(nk, n_tgt, 4).swapaxes(1, 2))
    return g.reshape(nk, n_src * n_tgt) @ _diagonal_projector(
        n_src, n_tgt, nu_max, alternate)


def prop_kernel_sum(a2, t1, hp, nu_max, include_quadratic=True):
    """Folded propagating interaction sum over orders and polarizations.

    a2, t1 : (Nk, No, 2, 2) stacked source factors and target blocks on
        the same contiguous symmetric order set, No <= 2 nu_max + 1.
    hp : (Nk, 2 nu_max + 2) products from hankel_tables.
    Returns (Nk,) real.

    With D the diagonal sums of G = sum_PP' Re a2[n] t1[m], the linear
    part is sum_nu Im(HP_nu D_nu + HP_[nu+1] conj(D_nu)); the
    quadratic part is 2 sum_nu Im(HP_nu Dq_nu), with Dq the diagonal
    sums of sum_PP' a2[n] (t1[m] t1[m+1]^dagger).
    """
    d = _order_sums(a2.real, t1, nu_max)
    out = (hp[:, :-1] * d + hp[:, 1:] * np.conj(d)).imag.sum(axis=1)
    if include_quadratic and a2.shape[1] > 1:
        q = np.matmul(t1[:, :-1], np.conj(t1[:, 1:]))
        dq = _order_sums(a2, q, nu_max)
        out += 2.0 * (hp[:, :-1] * dq).imag.sum(axis=1)
    return out


def evan_kernel_sum(t2, t1, kk, nu_max):
    """Folded evanescent interaction sum including the (-1)^(n+m)
    alternation.

    t2, t1 : (Nk, No, 2, 2) source and target blocks.
    kk : (Nk, 2 nu_max + 1) table from k_product_table.
    Returns (Nk,) real: sum_nu KK_nu D_nu with D the alternating
    diagonal sums of sum_PP' Re t2[n] Im t1[m].
    """
    d = _order_sums(t2.real, t1.imag, nu_max, alternate=True)
    return (kk * d).sum(axis=1)


def pair_kernel_sum(a1, t2, h, jp, nu_max):
    """Folded pair-source sum over orders and polarizations.

    a1 : (Nk, No, 2, 2) amplitude factors of the emitting cylinder.
    t2 : (Nk, No, 2, 2) blocks of the other cylinder.
    h, jp : tables from hankel_tables (values and J' at the same nu
        layout).
    Returns (Nk,) real: 4 sum_nu J'_nu Im(H_nu D_nu) with D the
    diagonal sums of sum_PP' Re a1[n] t2[m].
    """
    d = _order_sums(a1.real, t2, nu_max)
    return 4.0 * (jp * (h * d).imag).sum(axis=1)
