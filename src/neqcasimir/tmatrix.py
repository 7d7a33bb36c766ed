"""Scattering blocks of an infinite dielectric cylinder.

For each integer azimuthal order n and axial wavenumber fraction
ktilde_z = k_z c / omega, the cylinder couples the two transverse
polarizations (M, magnetic / TE and N, electric / TM).  The 2x2 block
T[P, P'] gives the amplitude of outgoing polarization P scattered from
a unit-amplitude regular wave of polarization P'.

Two batch functions give the blocks of every (ktilde_z node, order)
pair in one call, with eps and x per node:

_thin_blocks_batch
    Closed-form leading order in the size parameter x = omega R / c,
    valid for x << 1; only orders |n| <= 1 exist at this order and
    higher orders come back as zero blocks.  Entries scale as x^2.
_full_blocks_batch
    Exact solution of the boundary-matching conditions (tangential E
    and H continuity at the surface), any order, any size parameter.
    The E_z and H_z conditions each fix one interior coefficient;
    eliminating both leaves a closed-form 2x2 system for the outgoing
    (M, N) amplitudes (Rahi, Emig, Graham, Jaffe, Kardar, PRD 80,
    085021 (2009)).  Its Bessel tables of every order come by
    recurrence in the order from library values at orders 0 and 1,
    with the recurrences of kernels (see _bessel_tables).

The providers ThinExpansion and FullSolve bind a material and radius
and call them through blocks(orders, ktz, omega), which the force
integrator reads.  Index convention everywhere: P = 0 is M, P = 1 is N.

The axial fraction enters only through ktilde_z^2 and ktilde_z * n, so
blocks obey T[diag](-n) = T[diag](n) and T[offdiag](-n) = -T[offdiag](n),
and the same parity in ktilde_z: T(-ktilde_z) = T(ktilde_z) * [[1, -1],
[-1, 1]].  Both providers keep the ktilde_z parity bitwise (a sign flip
of ktilde_z * n is exact, and the full solve forms 1 - ktilde_z^2 as
(1 - ktilde_z)(1 + ktilde_z), whose factors only swap), and the engine
takes its -k_z evanescent blocks from it.  Off-diagonal entries are
equal (T^MN = T^NM) by reciprocity.
"""

import math
import warnings

import numpy as np
from scipy import special as _sp

from .errors import TMatrixError
from .kernels import _miller_j, _recur_up
from .materials import epsilon as _epsilon
from .units import C_LIGHT

POL_M = 0
POL_N = 1

THIN_VALIDITY_X = 0.3

_THIN_WARNING = ("thin expansion evaluated beyond its validity range "
                 "(size parameter x > 0.3); consider the full solver")


def _thin_blocks_batch(orders, ktz, eps, x):
    """Leading-order blocks for every (ktz node, order), arguments and
    shape as in _full_blocks_batch; orders beyond |n| = 1 give zero
    blocks.

    With pref = (i pi / 4) x^2, order 0 has the one entry
    T^NN = pref (1 - kz2)(eps - 1); at |n| = 1 with
    q = pref / (2 (eps + 1)) the diagonal entries are
    T^NN = 2 q kz2 (eps - 1) and T^MM = 2 q (eps - 1), and the cross
    entries 2 q (eps - 1) ktilde_z n.  Every entry is a function of its
    own row's (ktilde_z, eps, x) alone, so a row's block does not
    depend on the other rows of the call: bitwise so while each
    intermediate stays under NumPy's 256 KiB temporary-elision
    threshold (fewer than 16,384 rows).  From there on NumPy runs some
    products in place on temporaries, which round differently.
    """
    orders = np.asarray(orders, dtype=int)
    ktz, eps, x = _rows(ktz, eps, x)
    den = 2.0 * (eps + 1.0)
    if np.any(den == 0) and np.any(np.abs(orders) == 1):
        raise TMatrixError("thin expansion singular at eps = -1 "
                           "(x = %g)" % (x[den == 0][0],))
    out = np.zeros((ktz.shape[0], orders.shape[0], 2, 2), dtype=complex)
    pref = 0.25j * math.pi * x * x
    kz2 = ktz ** 2
    # keep each product's operand order and temporaries: numpy writes a
    # large temporary operand in place, and its in-place complex product
    # can differ from the out-of-place one in the last bit
    if np.any(orders == 0):
        t0 = pref * (1.0 - kz2)
        nn0 = t0 * (eps - 1.0)
    if np.any(np.abs(orders) == 1):
        q = pref / den
        e = eps - 1.0
        nn1 = q * (kz2 * (2.0 * e))
        mm1 = q * (2.0 * e)
        cross = 2.0 * e * q * ktz
    for io, n in enumerate(orders):
        if n == 0:
            out[:, io, POL_N, POL_N] = nn0
        elif abs(n) == 1:
            out[:, io, POL_N, POL_N] = nn1
            out[:, io, POL_M, POL_M] = mm1
            out[:, io, POL_M, POL_N] = cross * n
            out[:, io, POL_N, POL_M] = cross * n
    return out


def _rows(ktz, eps, x):
    """ktz, eps and x as arrays with one entry per ktz node, eps and x
    each given per node or as one value for every node.  The argument
    check of both batch functions: every entry finite and x > 0, or a
    TMatrixError naming the first offending row's x."""
    ktz = np.asarray(ktz, dtype=float)
    eps = np.broadcast_to(np.asarray(eps, dtype=complex), ktz.shape)
    x = np.broadcast_to(np.asarray(x, dtype=float), ktz.shape)
    bad = ~(np.isfinite(ktz) & np.isfinite(eps) & np.isfinite(x))
    if bad.any():
        raise TMatrixError("non-finite ktilde_z, eps or x at x = %g"
                           % (x[bad][0],))
    if np.any(x <= 0):
        raise TMatrixError("size parameter must be positive at x = %g"
                           % (x[x <= 0][0],))
    return ktz, eps, x


# --- full boundary-matching solve -------------------------------------------

def _lower(z):
    """Z_(n-1) for a table of Z_0, Z_1, ... (orders along the last
    axis), with Z_(-1) = -Z_1; the last order is dropped."""
    return np.concatenate([-z[:, 1:2], z[:, :-1]], axis=1)


def _bessel_tables(p, p1, top):
    """H_n(p) and J_n(p) for n = 0 .. max(top, 1), and J_n(p1) for
    n = 0 .. top + 1, as tables (Nk, orders), by recurrence in the
    order from orders 0 and 1 (kernels._recur_up, kernels._miller_j).

    p is real (propagating rows) or positive imaginary, p = i y
    (evanescent rows), so its seeds are real-argument functions:
    J_0, J_1, Y_0 and Y_1 at p, or I_0, I_1, K_0 and K_1 at y through
    J_n(iy) = i^n I_n(y) and H_n(iy) = (2 / pi) i^-(n+1) K_n(y).  H runs
    upward, the direction in which Y and K grow.  J_n(p) and the
    interior J_n(p1) (p1 complex for lossy eps) run downward by
    Miller's method, in one run scaled to the exact orders 0 and 1
    (scipy's jv(0, p1) and jv(1, p1) inside); its start order grows
    with |z| once |z| exceeds top + 1.  On propagating rows
    H = J + i Y takes its real part from the Miller run, as in
    kernels.hankel_tables.  At small |p| and high orders H overflows
    and the tables hold inf or nan; _full_blocks_batch then fails the
    requests that read them.
    """
    ext = max(top, 1)
    evan = p.imag > 0.0
    prop = ~evan
    r, y = p.real[prop], p.imag[evan]
    h0, h1, j0, j1 = np.empty((4,) + p.shape, dtype=complex)
    z = np.concatenate([p, p1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        j0[prop], j1[prop] = _sp.j0(r), _sp.j1(r)
        h0[prop] = j0[prop] + 1j * _sp.y0(r)
        h1[prop] = j1[prop] + 1j * _sp.y1(r)
        j0[evan], j1[evan] = _sp.i0(y), 1j * _sp.i1(y)
        h0[evan] = (-2j / math.pi) * _sp.k0(y)
        h1[evan] = (-2.0 / math.pi) * _sp.k1(y)
        two_over_z = 2.0 / z
        h = _recur_up(h0, h1, two_over_z[:p.size], ext, np.subtract)
        j = _miller_j(z, two_over_z, top + 1,
                      np.concatenate([j0, _sp.jv(0, p1)]),
                      np.concatenate([j1, _sp.jv(1, p1)]))
    jx = j[:ext + 1, :p.size]
    h.real[:, prop] = jx.real[:, prop]
    return h.T, jx.T, j[:, p.size:].T


def _full_blocks_batch(orders, ktz, eps, x):
    """Closed-form blocks for every (ktz node, order).

    Tangential E_z and H_z continuity each fix one interior
    coefficient.  Substituting them into the E_phi and H_phi rows,
    multiplied through by p p1 J_n(p1), leaves for the outgoing
    amplitudes (T_MP', T_NP') of an incident wave P' the 2x2 system

        [[A_M, g u], [g u, A_N]] T = -[[B_M, g v], [g v, B_N]]

    with u = n p1 J_n(p1) H_n(p), v the same with J_n(p) for H_n(p),
    g = ktilde_z x^2 (1 - eps) / p1^2, A_P = u + R_P, B_P = v + S_P,

        R_P = s_P p^2 J_n'(p1) H_n(p) - p p1 J_n(p1) H_(n-1)(p),

    S_P the same with J for H, s_M = 1 and s_N = eps.  The derivative
    H_n' = H_(n-1) - (n / p) H_n is what puts u in A_P.  Near the light
    line (p -> 0) u dominates R_P and g^2 -> 1, so the determinant
    A_M A_N - g^2 u^2 cancels at relative order p^2; it is summed
    instead from u^2 (1 - g^2) + u R_N + R_M A_N, with

        1 - g^2 = p^2 x^2 (eps^2 - ktilde_z^2) / p1^4

    exactly, and the off-diagonal numerator g (u S_P - R_P v) is
    (2i / pi) n g (p1 J_n(p1))^2 by the Wronskian of J and H, so
    T^MN = T^NM.  Nothing divides by an interior Bessel value, and
    p^2 = x^2 (1 - ktilde_z)(1 + ktilde_z) keeps its digits next to the
    light line.  The tables run over orders 0 .. max |n|, and only the
    requested orders are checked for a singular or non-finite system.
    Negative orders follow from the parity of the blocks in n.

    The tables come from _bessel_tables: real-argument seeds at orders
    0 and 1 (J, Y at real p; I, K at p = i y), H_n(p) run upward, and
    J_n(p) and J_n(p1) run downward by Miller's method from order
    m + 8 + sqrt(12 m), m the larger of top + 1 and the largest |p|,
    |p1| of the call, scaled to the exact orders 0 and 1.

    Parameters
    ----------
    orders : int array (No,)
    ktz : float array (Nk,)
    eps : complex, one per node (Nk,) or one for every node
    x : float size parameter, per node or one for every node.

    The permeability is 1, as for every material of the package.  Each
    row is a function of its own (ktilde_z, eps, x) alone: bitwise so
    while each intermediate, up to rows x (max |n| + 1) complex values,
    stays under NumPy's 256 KiB temporary-elision threshold, as in
    _thin_blocks_batch.  Errors name the size parameter of the first
    offending row.

    Returns
    -------
    entries : complex array (Nk, No, 2, 2)
    """
    orders = np.asarray(orders, dtype=int)
    ktz, eps, x = _rows(ktz, eps, x)
    if np.any(np.abs(np.abs(ktz) - 1.0) == 0.0):
        raise TMatrixError("ktilde_z on the light line is not evaluable")
    if np.any(eps == 0):
        raise TMatrixError("eps = 0 is not a propagating medium "
                           "(x = %g)" % (x[eps == 0][0],))

    # transverse arguments outside and inside; principal sqrt puts the
    # evanescent exterior argument on the positive imaginary axis and
    # the absorbing interior argument in the upper half plane
    p = x * np.sqrt((1.0 - ktz) * (1.0 + ktz) + 0.0j)
    p1 = x * np.sqrt(eps - ktz ** 2 + 0.0j)
    p1 = np.where(p1.imag < 0.0, -p1, p1)
    x, eps = x[:, None], eps[:, None]

    # tables over orders 0 .. top (0 .. top + 1 inside); each
    # intermediate is dropped, or overwritten in place, once no later
    # line reads it, which keeps the working set of a call small
    absn = np.abs(orders)
    top = int(absn.max())
    h, jx, j1 = _bessel_tables(p, p1, top)
    p = p[:, None]
    p1 = p1[:, None]
    p1sq = p1 * p1

    g1 = p1 * j1[:, :-1]  # p1 J_n(p1)
    q = (0.5 * p * p) * (_lower(j1)[:, :-1] - j1[:, 1:])  # p^2 J_n'(p1)
    del j1
    hn, jn = h[:, :top + 1], jx[:, :top + 1]
    ng1 = np.arange(top + 1.0) * g1
    u, v = ng1 * hn, ng1 * jn
    qh, qj = q * hn, q * jn
    del q, hn, jn
    pg1 = p * g1
    ph = pg1 * _lower(h)[:, :top + 1]
    del h
    pj = pg1 * _lower(jx)[:, :top + 1]
    del jx, pg1
    # r_m = qh - ph, then r_n = eps qh - ph in qh's place; the same
    # for s_P from qj and pj
    r_m = qh - ph
    r_n = np.multiply(eps, qh, out=qh)
    r_n -= ph
    del ph
    s_m = qj - pj
    s_n = np.multiply(eps, qj, out=qj)
    s_n -= pj
    del pj, qh, qj
    g = ktz[:, None] * (x * x * (1.0 - eps)) / p1sq
    one_m_g2 = ((p * p) * (x * x) * (eps * eps - ktz[:, None] ** 2)
                / (p1sq * p1sq))
    uv = u * v * one_m_g2

    det = u * u * one_m_g2 + u * r_n + r_m * (u + r_n)
    used = det[:, absn]
    # _rows admits finite arguments only, so only an overflowing Bessel
    # table makes the determinant non-finite
    over = np.argwhere(~np.isfinite(used))
    if over.size:
        row, col = over[0]
        raise TMatrixError(
            "boundary system overflows at order %d, x = %g: its Bessel "
            "tables leave the double range" % (orders[col], x[row, 0]))
    bad = (used == 0).any(axis=1)
    if bad.any():
        raise TMatrixError(
            "singular boundary system (accidental resonance) at "
            "x = %g" % (x[bad][0, 0],))
    with np.errstate(all="ignore"):  # orders below top not requested
        inv = np.divide(1.0, det, out=det)
    del det
    off = (2j / math.pi) * ng1 * g1 * g * inv
    del ng1, g1
    mm = -(uv + u * s_m + r_n * (v + s_m)) * inv
    del s_m, r_n
    nn = -(uv + u * s_n + r_m * (v + s_n)) * inv
    del s_n, r_m, uv, u, v, inv
    # the (Nk, No, 2, 2) output comes last, once only the three
    # distinct entry planes are alive
    out = np.empty((ktz.size, orders.size, 2, 2), dtype=complex)
    out[..., POL_M, POL_M] = mm[:, absn]
    out[..., POL_N, POL_N] = nn[:, absn]
    out[..., POL_M, POL_N] = off[:, absn] * np.where(orders < 0, -1.0, 1.0)
    out[..., POL_N, POL_M] = out[..., POL_M, POL_N]

    bad = ~np.isfinite(out).all(axis=(1, 2, 3))
    if bad.any():
        raise TMatrixError("non-finite scattering entries at x = %g"
                           % (x[bad][0, 0],))
    return out


# --- providers ---------------------------------------------------------------

class _Provider:
    """Material and radius of one cylinder, shared by both providers."""

    def __init__(self, material, radius):
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        self.material = material
        self.radius = float(radius)

    def size_parameter(self, omega):
        return omega * self.radius / C_LIGHT

    def _eps_x(self, ktz, omega):
        """eps and x of every ktz node, for omega given per node or as
        one frequency for every node, from one epsilon call."""
        w = np.broadcast_to(np.asarray(omega, dtype=float), np.shape(ktz))
        return _epsilon(self.material, w), self.size_parameter(w)


class ThinExpansion(_Provider):
    """Thin-cylinder block provider for a material and radius.

    Orders beyond |n| = 1 do not exist at leading order in x and are
    returned as zero blocks so truncated sums can request them freely.
    Blocks are O(x^2), so the T T^dagger part of the source amplitude
    lies beyond the expansion's order and quadratic_term is off.
    """

    max_order = 1
    quadratic_term = False

    def blocks(self, orders, ktz, omega):
        """Batched blocks, shape (len(ktz), len(orders), 2, 2), with
        omega per ktz node or one for every node."""
        eps, x = self._eps_x(ktz, omega)
        if np.any(x > THIN_VALIDITY_X):
            warnings.warn(_THIN_WARNING)
        return _thin_blocks_batch(orders, ktz, eps, x)


class FullSolve(_Provider):
    """Exact block provider for a material and radius; the source
    amplitude keeps its quadratic term T T^dagger."""

    max_order = None
    quadratic_term = True

    def blocks(self, orders, ktz, omega):
        """Batched blocks, shape (len(ktz), len(orders), 2, 2), with
        omega per ktz node or one for every node."""
        eps, x = self._eps_x(ktz, omega)
        return _full_blocks_batch(orders, ktz, eps, x)


# the providers by the name a scenario gives them
PROVIDERS = {"thin": ThinExpansion, "full": FullSolve}
