"""Mode-resolved integrand pieces for the cylinder force integrals.

For a pair of parallel cylinders the force per length is an integral
over frequency and axial wavenumber of sums over azimuthal orders
(n for the source cylinder, m for the target).  This module supplies

* the source amplitude factor built from scattering blocks,
* Bessel tables built by recurrence in the order, and
* folded, vectorized order sums used by the engine.

The folded sums reindex the (m, m+1) pairs of the literal kernels
(tests/oracles.py holds them in their scalar per-(n, m) form) so
that each target order appears exactly once; the result equals the
literal double sum extended over every term in which a retained block
appears, and it is manifestly even under k_z -> -k_z together with
(n, m) -> (-n, -m).  Each kernel contracts diagonal sums of the
(n, m) order matrix with one Bessel table; the propagating interaction
and pair kernels read the same sums, which prop_order_sums forms once.

Propagating kernels use products of outgoing cylindrical waves
H1_nu(q d); the evanescent kernel is their continuation to imaginary
transverse wavenumber, which turns them into real decaying products
K_nu(|q| d) K_[nu +- 1](|q| d) * (4 / pi^2).

All "blocks" arrays are stacked scattering blocks of shape
(Nk, No, 2, 2): axial nodes x contiguous azimuthal orders x (P, P').
"""

import math
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import QuadratureError

_FOUR_OVER_PI2 = 4.0 / math.pi ** 2


def prop_amplitude(blocks, include_quadratic=True):
    """Vectorized propagating-branch amplitude factor.

    blocks : (..., 2, 2) complex stacked scattering blocks.
    Returns the same shape: Re(T) + T T^dagger (complex), or without
    the quadratic term the real view Re(T), which the folded sums read
    as they are.

    T T^dagger is written out entry by entry, since a batched matmul
    spends most of its time on per-matrix overhead at 2x2: the diagonal
    entries |T_P0|^2 + |T_P1|^2 are real, and the lower off-diagonal
    entry is the conjugate of the upper one.  Any block is valid here;
    the symmetry T^MN = T^NM is not used.
    """
    t = np.asarray(blocks, dtype=complex)
    if not include_quadratic:
        return t.real
    t00, t01 = t[..., 0, 0], t[..., 0, 1]
    t10, t11 = t[..., 1, 0], t[..., 1, 1]
    out = np.empty_like(t)
    out[..., 0, 0] = t00.real + (_abs2(t00) + _abs2(t01))
    out[..., 1, 1] = t11.real + (_abs2(t10) + _abs2(t11))
    upper = t00 * np.conj(t10) + t01 * np.conj(t11)
    out[..., 0, 1] = t01.real + upper
    out[..., 1, 0] = t10.real + np.conj(upper)
    return out


def _abs2(z):
    """|z|^2 of a complex array, as a real array."""
    return z.real * z.real + z.imag * z.imag


# --- vectorized tables and folded sums ---------------------------------------
#
# Bessel tables of every order come from orders 0 and 1 and three-term
# recurrences in the order (Gautschi, SIAM Rev. 9, 24 (1967); DLMF
# 10.6.1, 10.29.1, 10.74(iv)).  Each recurrence runs in the direction
# in which the wanted solution dominates, so rounding errors stay at
# the level of the values themselves.  _recur_up and _miller_j take
# real or complex arguments: the kernel tables below call them at real
# qd and y, and tmatrix's full blocks at the complex transverse
# arguments p and p1 of the boundary solve.

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
    np.add for the modified function K (and its scaled form e^x K).
    The rows take the dtype of z0, so complex x and seeds run the same
    recurrence in complex arithmetic.  Each step forms its coefficient
    n (2 / x) in the row it writes, as _miller_j does."""
    rows = np.empty((top + 1,) + z0.shape, dtype=z0.dtype)
    rows[0] = z0
    rows[1] = z1
    for n in range(1, top):
        np.multiply(n, two_over_x, out=rows[n + 1])
        rows[n + 1] *= rows[n]
        step(rows[n + 1], rows[n - 1], out=rows[n + 1])
    return rows


def _miller_j(x, two_over_x, top, j0, j1):
    """J_0 .. J_top by Miller's backward recurrence, at real or complex
    x, from the exact J_0 and J_1 (arrays of x's shape).

    The ratio r_(top+1) = J_(top+1) / J_top comes from the continued
    fraction r_k = 1 / (2k / x - r_(k+1)), started at r = 0 at order
    m + k_extra with m the larger of top and the largest finite |x|;
    it involves only ratios, so it cannot overflow.  J is the minimal
    solution only above order |x|, where the truncation error of that
    start falls like (|x| / 2)^(2k) (m! / (m + k)!)^2 in the extra
    order k, and k_extra = 8 + sqrt(12 m) leaves it below rounding up
    to |x| -> m (k = 11 suffices at m = 4, k = 27 at m = 66).  Below
    order |x| the run is neutral for real x; for x in the upper half
    plane J and Y both grow like e^(Im x) there, so it stays neutral.
    Rows with a non-finite x come out non-finite and do not move the
    start.

    From J_top = 1e-300 s the recurrence J_(k-1) = (2k / x) J_k - J_(k+1)
    then runs down to order 0, and the rows are scaled to the larger
    in magnitude of the exact J_0 and J_1 (they have no common zero,
    so the scale keeps full relative accuracy next to a zero of
    either).  The tiny start lets the run grow by J_0 / J_top up to
    1e608 before it overflows: at top = 32 that is |x| down to about
    1e-18, where Y_top and H_top are far beyond the double range
    anyway.  The final scale is about J_top / (1e-300 s), and
    s = max(1, |J_0|, |J_1|) keeps it finite: s is 1 for real x, and
    in the upper half plane it grows with |J|, like e^(Im x).  Orders
    whose J lies below the double range underflow to zero, as the
    exact values would.

    Each step forms its coefficient k (2 / x) afresh in one reused
    buffer, rounded as a table of them would be, so the run holds no
    (start + 1) x N table of coefficients.
    """
    m = max(top, math.ceil(np.max(np.abs(x), initial=0.0,
                                  where=np.isfinite(x))))
    start = m + 8 + int(math.sqrt(12.0 * m))
    r = np.zeros_like(x)
    coef = np.empty_like(two_over_x)
    for k in range(start, top, -1):
        np.multiply(k, two_over_x, out=coef)
        np.subtract(coef, r, out=r)
        np.reciprocal(r, out=r)
    a0, a1 = np.abs(j0), np.abs(j1)
    use_j0 = a0 >= a1
    rows = np.empty((top + 2,) + x.shape, dtype=np.result_type(x, j0, j1))
    rows[top] = 1e-300 * np.maximum(1.0, np.where(use_j0, a0, a1))
    rows[top + 1] = rows[top] * r
    for k in range(top, 0, -1):
        np.multiply(k, two_over_x, out=coef)
        np.multiply(coef, rows[k], out=rows[k - 1])
        rows[k - 1] -= rows[k + 1]
    scale = np.where(use_j0, j0, j1) / np.where(use_j0, rows[0], rows[1])
    return rows[:top + 1] * scale


def require_finite(vals, table, args, nu_max, arg_name):
    """Return the kernel sum vals, or raise QuadratureError where it is
    not finite.

    The tables overflow at small arguments and high orders, where Y_n
    and K_n grow like (n - 1)! (2 / x)^n; they return inf there, and a
    folded sum turns the inf into nan.  The three kernel sums form their
    products with NumPy's invalid and overflow warnings off, so this
    error is the only report of it.  Only the sums are checked, so a
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


# bytes of one run of _order_sums: its contiguous operand copies and
# its product table G
_ORDER_SUM_BYTES = 1 << 18


@lru_cache(maxsize=64)
def _diagonal_projector(n_src, n_tgt, nu_max):
    """0/1 matrix P of shape (n_src * n_tgt, 2 nu_max + 1) that sums a
    flattened (n, m) order matrix along its diagonals: P[(n, m), j] = 1
    where n - m = j - nu_max.  Source orders are the contiguous
    symmetric set of n_src; target orders are its first n_tgt."""
    half = (n_src - 1) // 2
    n = np.arange(-half, half + 1)[:, None]
    m = np.arange(-half, half + 1)[None, :n_tgt]
    p = np.zeros((n_src * n_tgt, 2 * nu_max + 1))
    p[np.arange(n_src * n_tgt), (n - m + nu_max).ravel()] = 1.0
    p.flags.writeable = False  # shared by every caller through the cache
    return p


def _order_sums(a, b, nu_max):
    """D[k, j] = sum over order pairs (n, m) with n - m = j - nu_max of
    G[k, n, m], where G[k, n, m] = sum_PP' a[k, n, P, P'] b[k, m, P, P'].

    G is one batched matmul over the flattened 2x2 polarization axis.
    Every folded kernel depends on n and m only through nu = n - m, so
    its order sum is sum_j kernel[k, j] D[k, j], and the diagonal sums
    are one more matmul with a fixed projector.  G holds n_src n_tgt
    values per row, more than the operands' 4 (n_src + n_tgt), so the
    rows go through in runs whose operand copies and G fit in
    _ORDER_SUM_BYTES: the memory of a call then grows with its rows by
    the operands and D alone.  As with the grouping of outer nodes, the
    run a row falls in can move its sums only within the rounding of
    the BLAS product.
    A real a with a
    complex b takes two real products, one per part of b: NumPy's
    mixed-type batched matmul casts a to complex and is several times
    slower on these small matrices.
    """
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        d = np.empty((a.shape[0], 2 * nu_max + 1), dtype=complex)
        d.real = _order_sums(a, b.real, nu_max)
        d.imag = _order_sums(a, b.imag, nu_max)
        return d
    nk, n_src = a.shape[:2]
    n_tgt = b.shape[1]
    per_row = (4 * (n_src + n_tgt) + n_src * n_tgt) \
        * np.result_type(a, b).itemsize
    rows = max(1, _ORDER_SUM_BYTES // per_row)
    if nk > rows:
        return np.concatenate([
            _order_sums(a[i:i + rows], b[i:i + rows], nu_max)
            for i in range(0, nk, rows)])
    # contiguous operands keep the batched matmul on its fast path
    g = np.matmul(np.ascontiguousarray(a.reshape(nk, n_src, 4)),
                  np.ascontiguousarray(b.reshape(nk, n_tgt, 4)
                                       .swapaxes(1, 2)))
    return g.reshape(nk, n_src * n_tgt) @ _diagonal_projector(
        n_src, n_tgt, nu_max)


def prop_order_sums(tsrc, ttgt, nu_max, quadratic):
    """Diagonal sums (d, dq) of the source amplitude
    a = prop_amplitude(tsrc, quadratic) against the target blocks, both
    (Nk, No, 2, 2) on one contiguous symmetric order set,
    No <= 2 nu_max + 1: d of sum_PP' Re a[n] ttgt[m], which both
    propagating kernels read, and dq of
    sum_PP' a[n] (ttgt[m] ttgt[m+1]^dagger), which only the interaction
    kernel reads (None without the quadratic term or with one order).
    Every engine pass carries both kernels, so it forms both sums.

    ttgt[m+1]^dagger is formed as conj(ttgt[m+1]) (see
    _quadratic_product): the transpose is the block itself, since every
    block is symmetric, T^MN = T^NM by reciprocity.
    """
    amp = prop_amplitude(tsrc, quadratic)
    d = _order_sums(amp.real, ttgt, nu_max)
    if not quadratic or tsrc.shape[1] == 1:
        return d, None
    return d, _order_sums(amp, _quadratic_product(ttgt), nu_max)


def prop_kernel_sum(d, dq, hp):
    """Folded propagating interaction sum over orders and polarizations.

    d, dq : diagonal sums from prop_order_sums.
    hp : (Nk, 2 nu_max + 2) products from hankel_tables.
    Returns (Nk,) real: the linear part
    sum_nu Im(HP_nu D_nu + HP_[nu+1] conj(D_nu)), plus the quadratic
    part 2 sum_nu Im(HP_nu Dq_nu) when dq is given.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        # np.multiply keeps HP on the left of a complex product, which
        # NumPy rounds by operand order, where `*` may swap in the
        # temporary
        out = (hp[:, :-1] * d + np.multiply(hp[:, 1:], np.conj(d))) \
            .imag.sum(axis=1)
        if dq is not None:
            out += 2.0 * (hp[:, :-1] * dq).imag.sum(axis=1)
    return out


def _quadratic_product(t):
    """q[:, m] = t[:, m] conj(t[:, m + 1]) for stacked (Nk, No, 2, 2)
    blocks, shape (Nk, No - 1, 2, 2): the 2x2 matrix product of each
    block with the entrywise conjugate of the next order's block,
    written out as q_PP' = t_P0 conj(u_0P') + t_P1 conj(u_1P').

    q is a view of a (Nk, 2, 2, No - 1) array, the layout in which
    _order_sums reads its second operand, so that it makes no copy."""
    a = t[:, :-1]
    q = np.empty((t.shape[0], 2, 2, t.shape[1] - 1), dtype=complex)
    for j in (0, 1):
        b0, b1 = np.conj(t[:, 1:, 0, j]), np.conj(t[:, 1:, 1, j])
        for i in (0, 1):
            np.multiply(a[..., i, 0], b0, out=q[:, i, j])
            q[:, i, j] += a[..., i, 1] * b1
    return q.transpose(0, 3, 1, 2)


def evan_kernel_sum(t2, t1, kk, nu_max):
    """Folded evanescent interaction sum including the (-1)^(n+m)
    alternation.

    t2, t1 : (Nk, No, 2, 2) source and target blocks.
    kk : (Ny, 2 nu_max + 1) table from k_product_table, with Nk a
        multiple of Ny: block row k reads table row k mod Ny, so blocks
        of several frequencies on one y grid share one table.
    Returns (Nk,) real: sum_nu (-1)^nu KK_nu D_nu with D the diagonal
    sums of sum_PP' Re t2[n] Im t1[m], since (-1)^(n+m) = (-1)^nu.
    """
    d = _order_sums(t2.real, t1.imag, nu_max)
    d[:, (nu_max + 1) % 2::2] *= -1.0  # the odd nu
    ny, width = kk.shape
    with np.errstate(invalid="ignore", over="ignore"):
        return (kk * d.reshape(-1, ny, width)).sum(axis=2).ravel()


def pair_kernel_sum(d, h, jp):
    """Folded pair-source sum over orders and polarizations.

    d : diagonal sums from prop_order_sums, with the emitting cylinder
        as the source and the other as the target.
    h, jp : tables from hankel_tables (values and J' at the same nu
        layout).
    Returns (Nk,) real: 4 sum_nu J'_nu Im(H_nu D_nu).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return 4.0 * (jp * (h * d).imag).sum(axis=1)
