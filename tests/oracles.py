"""Scalar reference kernels for the tests.

The literal per-(n, m) forms of the propagating (f), evanescent
(f-tilde) and pair-source (s) kernels, the thermal occupation, and the
source amplitude factor of one block.  The engine never calls them:
its folded, vectorized sums in neqcasimir.kernels are checked against
these term by term.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from neqcasimir.units import C_LIGHT, HBAR, K_BOLTZMANN

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
    """One (2, 2) block as a complex array."""
    return np.asarray(block, dtype=complex)


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
    block = provider.blocks([n], [point.ktilde_z], omega)[0, 0]
    return amplitude_entries(block, n, point.branch, include_quadratic)


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


# --- batched reference forms of the vectorized kernels -----------------------

def prop_amplitude_matmul(blocks):
    """Re(T) + T T^dagger by batched np.matmul over (..., 2, 2) blocks:
    the form that kernels.prop_amplitude writes out entry by entry."""
    t = np.asarray(blocks, dtype=complex)
    return t.real + np.matmul(t, np.conj(np.swapaxes(t, -1, -2)))


def quadratic_product_matmul(t):
    """t[:, m] conj(t[:, m + 1]) by batched np.matmul over stacked
    (Nk, No, 2, 2) blocks: the form that the quadratic term of
    kernels.prop_order_sums writes out entry by entry."""
    return np.matmul(t[:, :-1], np.conj(t[:, 1:]))


def miller_j_table(x, two_over_x, top, j0, j1):
    """kernels._miller_j as it reads its coefficients k (2 / x) from a
    (start + 1, N) table, one row per step; the kernel forms each one
    at its step, and the two must agree bitwise."""
    m = max(top, math.ceil(np.max(np.abs(x), initial=0.0,
                                  where=np.isfinite(x))))
    start = m + 8 + int(math.sqrt(12.0 * m))
    coef = np.arange(start + 1)[:, None] * two_over_x
    r = np.zeros_like(x)
    for k in range(start, top, -1):
        np.subtract(coef[k], r, out=r)
        np.reciprocal(r, out=r)
    a0, a1 = np.abs(j0), np.abs(j1)
    use_j0 = a0 >= a1
    rows = np.empty((top + 2,) + x.shape, dtype=np.result_type(x, j0, j1))
    rows[top] = 1e-300 * np.maximum(1.0, np.where(use_j0, a0, a1))
    rows[top + 1] = rows[top] * r
    for k in range(top, 0, -1):
        np.multiply(coef[k], rows[k], out=rows[k - 1])
        rows[k - 1] -= rows[k + 1]
    scale = np.where(use_j0, j0, j1) / np.where(use_j0, rows[0], rows[1])
    return rows[:top + 1] * scale
