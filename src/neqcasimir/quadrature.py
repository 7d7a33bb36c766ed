"""Gauss-Kronrod quadrature: fixed composite grids and an adaptive
panel-splitting driver for vector-valued integrands.

The 7-15 pair gives a 7-point Gauss estimate embedded in a 15-point
Kronrod estimate; their difference is a conservative error bound for
the Kronrod value.  The adaptive driver bisects the worst panel until
every output channel meets its tolerance, then sums panels in position
order with math.fsum so reruns are bit-identical.  It asks its
integrand for panels in batches: every seed panel in one call, then
both halves of each split in one call, so an integrand that vectorizes
over nodes (the force engine's) pays its per-call cost once per batch;
x has shape (15 k,) for k panels.

The integral settings live here too: QuadratureControls (rel_tol,
u_min, n_max) and the constants the thermal frequency integrals hold
fixed (X_MAX, MAX_PANELS), read by the engine and by the closed-form
cross-checks through bose_integral.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .units import HBAR, K_BOLTZMANN

# 15-point Kronrod nodes on [-1, 1] with Kronrod weights and the
# embedded 7-point Gauss weights (zero at Kronrod-only nodes).
_GK15 = [
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
]

_order = np.argsort([row[0] for row in _GK15])
GK_NODES = np.array([_GK15[i][0] for i in _order])
GK_WEIGHTS_GAUSS = np.array([_GK15[i][1] for i in _order])
GK_WEIGHTS_KRONROD = np.array([_GK15[i][2] for i in _order])

# Thermal frequency integrals run over u = hbar omega / k_B T up to
# X_MAX, where exp(-40) leaves no visible tail, on at most MAX_PANELS
# adaptive panels per temperature.  An engine pass at several
# temperatures ends at its hottest temperature's X_MAX, so its cooler
# channels run past their own.
X_MAX = 40.0
MAX_PANELS = 200
# a channel is held to at least this fraction of the largest channel of
# its tolerance group
GROUP_FLOOR = 0.01
# Seed panel edges of thermal frequency integrals, as fractions of
# X_MAX: dense near u = 0, where the Bose factor varies fastest.  One
# panel [10, 40] covers the tail, where the Bose factor falls like
# e^-u; the adaptive driver splits it where its error estimate asks.
_SEED_FRACTIONS = (0.0, 0.01, 0.03, 0.0625, 0.125, 0.25, 1.0)


@dataclass(frozen=True)
class QuadratureControls:
    """Accuracy settings of the force integrals, each checked here.

    rel_tol : relative accuracy target of the frequency integral,
        held per temperature channel: each temperature's channels
        converge as if integrated alone.
    u_min : lower cutoff of u = hbar omega / k_B T, normally 0, per
        temperature channel.  The upper cutoff is X_MAX = 40 of the
        hottest temperature of an engine pass, so a cooler channel
        runs on to u = 40 T_hot / T.
        Needed for idealized frequency-independent lossy
        permittivities, whose near-field frequency integrand behaves
        like 1/u at u -> 0 and diverges logarithmically; causal
        materials (Im eps -> 0 with frequency) are integrable from 0
        and should leave this alone.  Comparisons between computation
        paths must share one window.
    n_max : azimuthal order cap, 1 to 32 (the order probe's kernel
        tables run to twice the cap); None means 1 for the thin
        provider and 8 for the full one.

    Fixed: 200 outer panels per temperature (MAX_PANELS),
    a converged multipole shell of rel_tol / 10 relative, and the
    evanescent grid in y = |q| d (engine._EVAN_EDGES, cut by
    engine._evan_edges).  The provider decides whether the source
    amplitude keeps its quadratic term.
    """

    rel_tol: float = 1e-4
    u_min: float = 0.0
    n_max: int | None = None

    def __post_init__(self):
        def number(value, kind=numbers.Real):
            return isinstance(value, kind) and not isinstance(value, bool)

        if not (number(self.rel_tol) and self.rel_tol > 0
                and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite, got %r"
                             % (self.rel_tol,))
        if not (number(self.u_min) and 0.0 <= self.u_min < X_MAX):
            raise ValueError("u_min must satisfy 0 <= u_min < %g, got %r"
                             % (X_MAX, self.u_min))
        if self.n_max is not None and not (
                number(self.n_max, numbers.Integral)
                and 1 <= self.n_max <= 32):
            raise ValueError("n_max must be an integer from 1 to 32 or "
                             "None, got %r" % (self.n_max,))


def panel_nodes(a, b):
    """Kronrod nodes mapped to the interval (a, b).  All interior."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid + half * GK_NODES


def panel_estimates(a, b, values):
    """Kronrod value and |Kronrod - Gauss| error for one panel.

    values has shape (15, ...) matching panel_nodes order.
    """
    half = 0.5 * (b - a)
    vk = half * np.tensordot(GK_WEIGHTS_KRONROD, values, axes=(0, 0))
    vg = half * np.tensordot(GK_WEIGHTS_GAUSS, values, axes=(0, 0))
    return vk, np.abs(vk - vg)


def composite_nodes(edges, kronrod=True):
    """Nodes and weights of a composite rule over given panel edges
    (strictly increasing array): the 15-point Kronrod rule on each panel
    where kronrod holds, and the 7-point Gauss rule it embeds on the
    others.  kronrod is one flag for every panel or one per panel.  No
    error estimate; intended for inner integrals whose resolution is
    fixed per call.
    """
    edges = np.asarray(edges, dtype=float)
    kronrod = np.broadcast_to(kronrod, edges.size - 1)
    gauss = GK_WEIGHTS_GAUSS != 0.0
    rules = ((GK_NODES[gauss], GK_WEIGHTS_GAUSS[gauss]),
             (GK_NODES, GK_WEIGHTS_KRONROD))
    nodes = []
    weights = []
    for a, b, k in zip(edges[:-1], edges[1:], kronrod):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        x, w = rules[bool(k)]
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def uniform_edges(a, b, n_panels):
    return np.linspace(a, b, n_panels + 1)


def adaptive_vector(f, a, b, rel_tol, seed_edges=None, max_panels=2000,
                    groups=None):
    """Adaptively integrate a vector-valued function over [a, b].

    Parameters
    ----------
    f : callable
        f(x) with x shape (15 k,) returning shape (15 k, C): the
        integrand at the nodes of k panels, one after another, with C
        output channels.  The first call holds every seed panel and
        each later call the two halves of one split, so a node's value
        must not depend on the other nodes of its call.
    a, b : float
        Integration limits, a < b.
    rel_tol : float
        Target relative error per channel.  A channel much smaller than
        the largest channel of its group is held to GROUP_FLOOR (1%) of
        that largest channel's value, so a zero crossing cannot demand
        unbounded refinement.
    seed_edges : array_like, optional
        Initial panel boundaries (must start at a and end at b).
    max_panels : int
        Refinement budget; exceeded -> QuadratureError.
    groups : sequence of int, optional
        Group label of each channel; None puts all channels in one
        group.  Channels of different groups do not borrow each other's
        scale: several independent integrals can share one set of
        panels and each still converges to its own rel_tol.

    The panel split next is the one with the largest error relative to
    its channel's group scale.  With one group that is the panel with
    the largest error; with several, a group of small channels gets
    its share of the splits.

    Returns
    -------
    (value, error) : ndarrays of shape (C,)
    """
    if not b > a:
        raise ValueError("need b > a")
    if seed_edges is None:
        edges = np.array([a, b], dtype=float)
    else:
        edges = np.asarray(seed_edges, dtype=float)
        if edges[0] != a or edges[-1] != b or np.any(np.diff(edges) <= 0):
            raise ValueError("seed_edges must increase from a to b")

    def make_panels(bounds):
        # one f call at the nodes of every (lo, hi) of bounds; each
        # panel's estimates come from a fresh contiguous copy of its
        # rows, so they are bitwise those of a call at its nodes alone
        vals = np.asarray(f(np.concatenate(
            [panel_nodes(lo, hi) for lo, hi in bounds])), dtype=float)
        return [(lo, hi, *panel_estimates(lo, hi, rows.copy()))
                for (lo, hi), rows in zip(bounds,
                                          np.split(vals, len(bounds)))]

    # panels stay in the order they were made, so the first of equal
    # errors is the oldest panel
    panels = make_panels(list(zip(edges[:-1], edges[1:])))
    if groups is None:
        labels = np.zeros(panels[0][2].shape[0], dtype=int)
    else:
        labels = np.unique(groups, return_inverse=True)[1].ravel()
    while True:
        total = np.sum([p[2] for p in panels], axis=0)
        errs = np.sum([p[3] for p in panels], axis=0)
        group_max = np.zeros(labels.max() + 1)
        np.maximum.at(group_max, labels, np.abs(total))
        scale = group_max[labels]
        tol = rel_tol * np.maximum(np.abs(total), GROUP_FLOOR * scale)
        if np.all(errs <= tol):
            break
        # errors relative to their group's scale, in units of the
        # largest group's; with one group every weight is exactly 1
        nonzero = scale > 0
        weight = np.ones_like(scale)
        weight[nonzero] = group_max.max() / scale[nonzero]
        rank = np.max(np.array([p[3] for p in panels]) * weight, axis=1)
        i = int(np.argmax(rank))
        worst = panels[i]
        if len(panels) >= max_panels:
            raise QuadratureError(
                "no convergence after %d panels; worst panel [%g, %g] "
                "error %g" % (len(panels), worst[0], worst[1],
                              float(np.max(worst[3]))),
                worst_panel=(worst[0], worst[1], worst[2].tolist(),
                             worst[3].tolist()),
                reached=float(np.max(errs)),
                target=float(np.min(tol)))
        lo, hi, _, _ = worst
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                "panel [%g, %g] cannot be split further" % (lo, hi),
                worst_panel=(lo, hi, worst[2].tolist(), worst[3].tolist()))
        del panels[i]
        panels.extend(make_panels([(lo, mid), (mid, hi)]))

    final = sorted(panels, key=lambda p: p[0])
    n_channels = final[0][2].shape[0]
    value = np.array([math.fsum(p[2][c] for p in final)
                      for c in range(n_channels)])
    error = np.array([math.fsum(p[3][c] for p in final)
                      for c in range(n_channels)])
    return value, error


def thermal_seed_edges(controls):
    """Seed edges of an outer frequency integral on [u_min, X_MAX] in
    u = hbar omega / (k_B T); controls carries u_min."""
    edges = {controls.u_min, X_MAX}
    for fr in _SEED_FRACTIONS:
        u = fr * X_MAX
        if u > controls.u_min:
            edges.add(u)
    return sorted(edges)


def bose_integral(weight, temperature, controls=None):
    """Adaptive integral of weight(omega) / (exp(hbar omega / k T) - 1)
    d omega; zero at T = 0.

    Substitutes u = hbar omega / k T so the window [u_min, X_MAX]
    covers the thermal band uniformly across temperatures; u_min and
    rel_tol come from controls, QuadratureControls() when None.
    """
    if temperature == 0.0:
        return 0.0
    if controls is None:
        controls = QuadratureControls()
    scale = K_BOLTZMANN * temperature / HBAR

    def integrand(u):
        u = np.asarray(u, dtype=float)
        vals = np.zeros((u.size, 1))
        pos = u > 0
        if np.any(pos):
            nb = 1.0 / np.expm1(u[pos])
            vals[pos, 0] = weight(scale * u[pos]) * nb
        return vals

    totals, _ = adaptive_vector(integrand, controls.u_min, X_MAX,
                                controls.rel_tol,
                                seed_edges=thermal_seed_edges(controls),
                                max_panels=MAX_PANELS)
    return scale * totals[0]
