"""Nonequilibrium force-per-length engine for parallel cylinder pairs.

Geometry and conventions
------------------------
Two infinite parallel cylinders, 1 and 2, with axis-to-axis separation
d.  The lab axis x points from cylinder 2 toward cylinder 1.  All
forces are per unit length along x:

* a positive total force on cylinder 1 pushes it away from 2,
* a negative total force on cylinder 2 pushes it away from 1.

The total force on cylinder 1 out of equilibrium decomposes as

    F1(T_env, T1, T2) = F_eq(T_env)
        + [F1_self(T1) - F1_self(T_env)]
        + [F1_int(T2) - F1_int(T_env)]

where F1_int(T) is the force on 1 from sources in 2 at temperature T
and F1_self(T) the force on 1 from its own sources, obtained through
the pair route: the force on the pair from 1's sources plus the
(axis-reflected) force those sources exert on 2.  The equilibrium
reference F_eq is ingested from tabulated data, never computed here.

The spectral kernels do not depend on the temperature, which enters
only through the Bose factor n(omega, T).  So F1_int and the pair
force of one source, at every temperature a computation needs, are
channels of one frequency integral per (source, target, separation),
run by one driver (_pass) in absolute omega: the kernels are summed
once per outer node, and each temperature weights them with its Bose
factor inside its own window [u_min, X_MAX] of
u = hbar omega / (k_B T).  The outer integral is globally adaptive
with one tolerance group per temperature and kind, so each channel
converges as if it were integrated alone.

It runs in a variable x with one piecewise map x -> (omega,
d omega / dx) per pass (_outer_map).  On the first seed panel
[omega_0, omega_1], omega = x^2 / omega_1, which makes the u^(-1/2)
endpoint singularity of a conductor's evanescent integrand regular.
Each material declares the real-axis poles of the integrand
(materials.resonances: a polar crystal's omega_to and its surface mode,
each of width gamma), and the pass takes the union over both cylinders.
Around each pole a window of +-10 widths is integrated in
t = arctan(2 (omega - omega_k) / gamma_k), with x linear in t and
x = omega at both window ends, which turns the Lorentzian peak flat;
so the adaptive integral no longer bisects its way into gamma-wide
peaks.  Each window's ends and pole are seed edges, and the thermal
seed edges inside it are dropped.  A window is skipped if it reaches
into the first seed panel or past the last edge, or holds any
temperature's u_min or X_MAX edge, where the live mask jumps;
overlapping windows shrink to meet halfway between their poles
(_windows).  Elsewhere omega = x, and every node there is the one the
two-piece map gives, so a pass without poles (a conductor) is unchanged.

Each outer panel is one array pass.  The frequency map, its Jacobian
and the Bose weights of all 15 nodes come at once, and the live nodes
go in node order to _axial.  Every provider call of a pass (order
probe, grid calibration and outer integral) goes through _groups, so
it keeps to the same group budget.  A group's block rows are
[psi rows of node 0 .. m-1 | y rows of node 0 .. m-1], with omega per
row, so one provider call per distinct cylinder, one hankel_tables
call and one call of each kernel sum serve the whole group.  A group
holds at most _MAX_BLOCK_ENTRIES = 12,288 block entries (rows x
orders), which bounds the working set of its blocks, tables and sums.
One group peaks at about 150 bytes per entry (tracemalloc, five
full-provider tungsten nodes at orders -4 .. 4), so the budget costs
at most 2.2% more peak RSS than 6,144 entries did at 335 bytes each;
14,336 entries cost over 3%.  A node's values do not depend on its group.

The axial integral is split at the light line: the propagating side is
mapped to an angle psi with k_z = (omega / c) cos(psi); the evanescent
side uses the decaying scale y = |q| d.  Inner grids are fixed
composite rules with one density factor per pass: the psi and y grids
double together until every integral of the pass at u = 2.5 of every
temperature stops moving, each held to at least 1% of the largest
integral of its (temperature, kind) group, as the outer integral holds
its channels.  The y panels are graded toward y = 0 (edges 0, 0.01,
0.05, 0.25, 0.5, 1, 2, 4, 8, 12), since a conductor's evanescent peak
sits near y = (d / R) / |sqrt(eps)|, below 0.05 at low frequency, and a
coarser first panel aliases it.  The three panels up to y = 0.25, where
that peak sits, take the 15-point Kronrod rule; the smooth panels
above take the 7-point Gauss rule embedded in it, which moves no field
of the benchmark sweeps by more than 2.1e-10 (Gauss on [0, 0.01] would
move a thin tungsten wire's evanescent channel by 7.3e-4).  The psi
grid stays Kronrod: Gauss on its interior panels moves the SiC pair
source by 0.07 rel_tol.
The y grid ends at y_max = min(35, 16 / (1 - (R1 + R2) / d)), where the
integrand's bound e^(-2 y (1 - (R1 + R2) / d)) is e^(-32)
(_evan_edges): one panel past y = 12 for thin wires, which then have
94 y rows per outer node.  The azimuthal truncation is calibrated once
per pass by a multipole shell probe of both kernels, whose shells are
the pass's own integrals (_integrals) on its y grid and the central
orders of blocks built once at the cap, each shell held to
rel_tol / 10.  Both take the largest value any temperature needs.

Identical inputs produce bitwise identical outputs: panel sums are
accumulated in a fixed order, and passes are memoized.  total_force
and self_force hand the scenario's temperatures (its own and all its
temperature sets) to interaction_force and pair_source_force as the
private keyword _temps, and those passes cover both kinds at all of
them.  So a force depends only on (scenario, separation): equal
temperatures cancel exactly, identical cylinders share a pass, so
mirrored rows agree bitwise, and a sweep row is the total_force of
its set.  A call without _temps integrates only its
own kind and temperature, whatever its memo holds.  The provider's
quadratic_term decides whether the source amplitude keeps T T^dagger.

The accuracy settings, QuadratureControls, live in quadrature with the
constants of the thermal integrals; engine imports the class back, so
it is also engine.QuadratureControls.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import kernels
from .equilibrium import EquilibriumTable
from .materials import CylinderSpec, Vacuum, resonances
from .quadrature import (GROUP_FLOOR, MAX_PANELS, X_MAX, QuadratureControls,
                         adaptive_vector, composite_nodes,
                         thermal_seed_edges, uniform_edges)
from .tmatrix import FullSolve, ThinExpansion
from .units import C_LIGHT, HBAR, K_BOLTZMANN

# panel edges of the y grid, graded toward y = 0; a pass ends it at
# _evan_edges' y_max, for its order probe as well.  Panels
# that end at or below _KRONROD_Y_MAX, where a conductor's
# low-frequency peak sits, take the 15-point Kronrod rule, and the
# panels above it the 7-point Gauss rule that Kronrod embeds: Gauss on
# [0.05, 0.25] moves a thin tungsten wire's evanescent channel by
# 1.1e-6, and on [0, 0.01] by 7.3e-4
_EVAN_EDGES = (0.0, 0.01, 0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0,
               12.0, 18.0, 26.0, 35.0)
_KRONROD_Y_MAX = 0.25
# the y grid ends where the evanescent integrand's bound
# e^(-2 y (1 - (R1 + R2) / d)) falls to e^(-_EVAN_DECAY)
_EVAN_DECAY = 32.0
# order probe: frequencies in u
_PROBE_US = (2.5, 7.0, 15.0)
# axial integrals of each kind (see _integrals), and psi panels per unit kd
# of the propagating interaction and pair sums
_SUMS = {"int": ("f", "e"), "pair": ("s",)}
_PER_PANEL = {"f": 10.0, "s": 3.0}
_MAX_GRID_BUMPS = 4
# block entries (rows x orders) of one provider call: _axial and the
# order probe split their frequencies into runs of at most this size,
# which bounds the working set of every call's tables and sums.
# At about 150 bytes per entry this is the largest budget, in steps of
# 2,048, that keeps the peak RSS of every benchmark workload within 3%
# of 6,144 entries at 335 bytes each: +1.0 to +2.2% measured, against
# +3.3% at 14,336
_MAX_BLOCK_ENTRIES = 12288
# half-width of the outer integral's window around a resonance, in
# widths of its peak
_WINDOW_WIDTHS = 10.0


_NEAR_FIELD_WARNING = ("separation is below five times the sum of the "
                       "radii; the one-reflection approximation "
                       "degrades at close range")
_ORDER_CAP_WARNING = ("multipole series still changing at the order "
                      "cap; raise n_max for this geometry")
_GRID_CAP_WARNING = ("inner wavenumber grid still changing at the "
                     "refinement cap; results may be less accurate "
                     "than rel_tol")


@dataclass(frozen=True)
class ForceBreakdown:
    """All force-per-length components of one configuration, in N/m,
    on the lab axis (x from cylinder 2 to cylinder 1).

    f_int_21 is the force on 1 from sources in 2 (at T2); f_int_12 the
    force on 2 from sources in 1 (at T1).  f_pair_source_j and
    f_self_j are the pair force and net self-force driven by sources
    in j at T_j.  The identity f_self_j = f_pair_source_j - f_int_j,
    with f_int_j the force the same sources exert on the other
    cylinder, holds by construction.  f_eq is the ingested equilibrium
    force on cylinder 1; on cylinder 2 it is -f_eq.  f_total_1 > 0 and
    f_total_2 < 0 mean repulsion.
    """

    separation: float
    t1: float
    t2: float
    t_env: float
    f_eq: float
    f_int_21: float
    f_int_21_prop: float
    f_int_21_evan: float
    f_int_12: float
    f_int_12_prop: float
    f_int_12_evan: float
    f_pair_source_1: float
    f_pair_source_2: float
    f_self_1: float
    f_self_2: float
    f_env_subtraction_1: float
    f_env_subtraction_2: float
    f_total_1: float
    f_total_2: float

    @property
    def f1_sign(self):
        if self.f_total_1 == 0.0:
            return "zero"
        return "repel" if self.f_total_1 > 0 else "attract"

    @property
    def f2_sign(self):
        if self.f_total_2 == 0.0:
            return "zero"
        return "repel" if self.f_total_2 < 0 else "attract"


@dataclass
class Scenario:
    """One computable configuration set: a cylinder pair, an
    environment, separations, and solver settings."""

    cylinder1: CylinderSpec
    cylinder2: CylinderSpec
    separations: tuple
    environment_temperature: float = 0.0
    provider: str = "thin"
    controls: QuadratureControls = field(default_factory=QuadratureControls)
    equilibrium: EquilibriumTable | None = None
    temperature_sets: tuple | None = None
    name: str = "scenario"
    output: str | None = None

    def __post_init__(self):
        seps = tuple(float(d) for d in np.atleast_1d(self.separations))
        if not seps or any(not (d > 0 and math.isfinite(d)) for d in seps):
            raise ValueError("separations must be positive and finite")
        self.separations = seps
        if self.provider not in ("thin", "full"):
            raise ValueError("provider must be 'thin' or 'full', got %r"
                             % (self.provider,))
        if not 0 <= self.environment_temperature < math.inf:
            raise ValueError("environment_temperature must be finite and "
                             ">= 0, got %r"
                             % (self.environment_temperature,))
        if self.temperature_sets is not None:
            sets = tuple(tuple(float(t) for t in s)
                         for s in self.temperature_sets)
            if any(len(s) != 3 or not all(0 <= t < math.inf for t in s)
                   for s in sets):
                raise ValueError("temperature_sets must be (T1, T2, T_env) "
                                 "with finite nonnegative entries, got %r"
                                 % (sets,))
            self.temperature_sets = sets


def _make_provider(provider, spec):
    if provider == "thin":
        return ThinExpansion(spec.material, spec.radius)
    if provider == "full":
        return FullSolve(spec.material, spec.radius)
    raise ValueError("provider must be 'thin' or 'full'")


def _check_geometry(source, target, separation, stacklevel=3):
    """Raise on a missing, nonpositive or overlapping separation; warn
    of the near field at stacklevel, once per public call, unless None."""
    if separation is None:
        raise TypeError("separation is required")
    rsum = source.radius + target.radius
    if not (separation > 0 and math.isfinite(separation)):
        raise ValueError("separation must be positive and finite")
    if separation <= rsum:
        raise ValueError("cylinders overlap: separation must exceed "
                         "the sum of the radii")
    if stacklevel and separation < 5.0 * rsum:
        warnings.warn(_NEAR_FIELD_WARNING, RuntimeWarning,
                      stacklevel=stacklevel)


def _npanels(kd, per_panel):
    return max(4, int(math.ceil(kd / per_panel)))


@lru_cache(maxsize=256)
def _psi_grid(n_panels):
    """cos(psi), sin(psi) and the weights times sin(psi)^2 of the
    propagating sums at the composite Kronrod nodes on n_panels uniform
    panels of psi in [0, pi].  Read-only: the cache hands the same
    arrays to every caller."""
    nodes, wts = composite_nodes(uniform_edges(0.0, math.pi, n_panels))
    sin_psi = np.sin(nodes)
    grid = (np.cos(nodes), sin_psi, wts * (sin_psi * sin_psi))
    for a in grid:
        a.flags.writeable = False
    return grid


def _rows(src_prov, tgt_prov, omegas, d, orders, n_panels, evan):
    """Blocks on orders at m frequencies, on the rows [psi rows of node
    0 .. m-1 | y rows of node 0 .. m-1] with omega per row, so one
    provider call per distinct cylinder covers every node and both
    branches.  Node i has n_panels[i] uniform psi panels (none if
    n_panels is empty) and the y grid of evan (none if None).  Returns
    (k, tsrc, ttgt, psi): k = omega / c per node, and psi = (qd, weights
    times sin(psi)^2, first row of each node) or None."""
    k = np.asarray(omegas, dtype=float) / C_LIGHT
    kd = k * d
    ktz, w_rows, psi = [], [], None
    if len(n_panels):
        grids = [_psi_grid(int(n)) for n in n_panels]
        sizes = [g[0].size for g in grids]
        cos_psi, sin_psi, w_sin2 = (np.concatenate(a) for a in zip(*grids))
        psi = (np.repeat(kd, sizes) * sin_psi, w_sin2,
               np.cumsum([0] + sizes[:-1]))
        ktz.append(cos_psi)
        w_rows.append(np.repeat(omegas, sizes))
    if evan is not None:
        ktz.append(np.sqrt(1.0 + (evan[0] / kd[:, None]) ** 2).ravel())
        w_rows.append(np.repeat(omegas, evan[0].size))
    ktz, w_rows = np.concatenate(ktz), np.concatenate(w_rows)
    tsrc = src_prov.blocks(orders, ktz, w_rows)
    same = (type(src_prov) is type(tgt_prov)
            and src_prov.material == tgt_prov.material
            and src_prov.radius == tgt_prov.radius)
    ttgt = tsrc if same else tgt_prov.blocks(orders, ktz, w_rows)
    return k, tsrc, ttgt, psi


def _integrals(src_prov, n, sums, d, k, tsrc, ttgt, psi, evan):
    """Axial integrals of the _rows output (k, tsrc, ttgt, psi) on
    orders -n .. n, shape (m, len(sums)): row i holds the integrals at
    node i, one column per entry of sums.  The blocks may hold more
    orders, and the K-product table of evan = (y, weights, table) a
    higher table order; both are read at their central columns.

    'f' and 's' are the propagating interaction and pair integrals
    dk_z q * (kernel sum) over |k_z| < omega / c, mapped to psi with
    k_z = k cos(psi), weighted k^2 per node; 'e' is the evanescent
    interaction integral in the decay variable y = |q| d, weighted
    2 / d^2.  The psi integrals are segment sums over the ragged
    per-node grids; every node shares the y grid, so its integrals come
    from an (m, ny) reshape and the K-product table serves all nodes
    untiled.  The -k_z evanescent blocks are T(k_z) * [[1, -1],
    [-1, 1]] on both cylinders and the sum multiplies their entries
    pairwise, so the -k_z sum is the +k_z sum bitwise and the branch is
    twice the +k_z sum.  The evanescent sum runs before the Hankel
    tables and source amplitudes are built, so its working set does not
    add to theirs.  Every sum is checked finite."""
    mid = tsrc.shape[1] // 2
    tsrc, ttgt = tsrc[:, mid - n:mid + n + 1], ttgt[:, mid - n:mid + n + 1]
    nu_max = 2 * n
    n_psi = 0 if psi is None else psi[0].size
    out = np.empty((k.size, len(sums)))
    if "e" in sums:
        y, y_wts, kk = evan
        mid = kk.shape[1] // 2
        kk = kk[:, mid - nu_max:mid + nu_max + 1]
        vals = kernels.require_finite(kernels.evan_kernel_sum(
            tsrc[n_psi:], ttgt[n_psi:], kk, nu_max), kk, y, nu_max, "y")
        weights = y_wts * y * y / np.sqrt(np.square(k * d)[..., None] + y * y)
        out[:, sums.index("e")] = 2.0 / (d * d) * np.sum(
            weights * vals.reshape(-1, y.size), axis=1)
    if n_psi:
        qd, w_sin2, starts = psi
        hp, h, jp = kernels.hankel_tables(qd, nu_max)
        amp = kernels.prop_amplitude(tsrc[:n_psi], src_prov.quadratic_term)
    for col, s in enumerate(sums):
        if s == "f":
            vals = kernels.require_finite(kernels.prop_kernel_sum(
                amp, ttgt[:n_psi], hp, nu_max, src_prov.quadratic_term),
                hp, qd, nu_max, "qd")
        elif s == "s":
            vals = kernels.require_finite(kernels.pair_kernel_sum(
                amp, ttgt[:n_psi], h, jp, nu_max), h, qd, nu_max, "qd")
        else:
            continue
        out[:, col] = k * k * np.add.reduceat(w_sin2 * vals, starts)
    return out


def _evan_edges(rsum, d):
    """Panel edges of the y grid of a pass whose radii add up to rsum at
    separation d: _EVAN_EDGES cut at y_max = min(35, 16 / (1 - rsum / d)).

    The K-products fall like e^(-2 y), and each evanescent block grows
    at most like e^(2 y R_i / d), so the integrand is bounded by
    e^(-2 y (1 - rsum / d)), which is e^(-32) at y_max; measured, the
    cut tail holds at most 4e-10 of an evanescent integral (thin SiC at
    23 um).  The edge nearest to y_max moves onto it and the edges
    above it go, so the last panel is never a sliver: thin wires end on
    one panel [12, y_max] with y_max near 16 to 18, and a near-touching
    pair keeps the grid up to 35."""
    y_max = min(_EVAN_EDGES[-1], 0.5 * _EVAN_DECAY / (1.0 - rsum / d))
    last = min(range(len(_EVAN_EDGES)),
               key=lambda i: abs(_EVAN_EDGES[i] - y_max))
    return _EVAN_EDGES[:last] + (y_max,)


def _evan_tables(factor, orders, panels):
    """Evanescent y-grid (nodes, weights), with every panel of panels
    split into factor equal parts, and its K-product table.  A part
    keeps its panel's rule: Kronrod if the panel ends at or below
    _KRONROD_Y_MAX, else Gauss.  Neither depends on the frequency, so
    one pass builds them once and reuses them at every outer node."""
    edges, kronrod = [panels[0]], []
    for lo, hi in zip(panels[:-1], panels[1:]):
        edges.extend(np.linspace(lo, hi, factor + 1)[1:])
        kronrod.extend([hi <= _KRONROD_Y_MAX] * factor)
    nodes, wts = composite_nodes(edges, kronrod)
    return nodes, wts, kernels.k_product_table(nodes, int(orders[-1]) * 2)


def _groups(src_prov, tgt_prov, omegas, d, orders, n_panels, evan):
    """(run, rows) of each run of consecutive nodes whose block entries
    add up to at most _MAX_BLOCK_ENTRIES, with rows the _rows of the
    run: node i has the rows of n_panels[i] psi panels and of evan's y
    grid, each with the width of orders.  A node larger than that is a
    run of its own."""
    n_y = 0 if evan is None else evan[0].size
    starts, total = [], 0
    for i, p in enumerate(n_panels):
        size = (_psi_grid(p)[0].size + n_y) * orders.size
        if not starts or total + size > _MAX_BLOCK_ENTRIES:
            starts.append(i)
            total = 0
        total += size
    for a, b in zip(starts, starts[1:] + [len(n_panels)]):
        yield slice(a, b), _rows(src_prov, tgt_prov, omegas[a:b], d, orders,
                                 n_panels[a:b], evan)


def _axial(src_prov, tgt_prov, omegas, d, orders, sums, factor, evan):
    """The axial integrals of a pass at omegas, shape (m, len(sums)),
    on grids of density factor: factor times the psi panels its densest
    psi sum asks for (_PER_PANEL), and evan's y grid.  Each group of
    nodes within the entry budget is one _integrals call."""
    n_panels = [factor * max(_npanels(w * d / C_LIGHT, _PER_PANEL[s])
                             for s in sums if s in _PER_PANEL)
                for w in omegas]
    out = np.empty((len(omegas), len(sums)))
    for run, rows in _groups(src_prov, tgt_prov, omegas, d, orders,
                             n_panels, evan):
        out[run] = _integrals(src_prov, int(orders[-1]), sums, d, *rows,
                              evan)
    return out


def _probe_orders(src_prov, tgt_prov, omegas, d, kinds, n_cap, tol,
                  y_edges):
    """Pick the azimuthal truncation by growing shells on coarse grids
    at a few representative frequencies until the last shell of every
    kernel is at most tol of its integrals: the interaction integrals
    ('f' with 'e') and the pair integral ('s') each by its own shell
    test, and the largest order any of them needs at any frequency
    wins.  A pass takes tol = rel_tol / 10 and its own y_edges.  Each
    group of frequencies within the entry budget makes one provider
    call per distinct cylinder at the cap, on 2 psi panels and the y
    grid on y_edges, and each shell is the _integrals of its central
    orders.  The K-product table is built once at the cap, and only
    for the interaction kind; where it overflows below the cap, the
    blocks stop at the first shell that reads an overflowing order,
    and that shell raises."""
    if n_cap <= 1:
        return 1
    sums = sum((_SUMS[k] for k in kinds), ())
    first = np.cumsum([0] + [len(_SUMS[k]) for k in kinds[:-1]])
    evan, top = None, n_cap
    if "int" in kinds:
        evan = _evan_tables(1, np.arange(-n_cap, n_cap + 1), y_edges)
        # the blocks stop at the first shell whose table orders overflow
        # at some y: its sum raises, naming the order and the y, where
        # higher blocks would first overflow in the block solve
        held = np.isfinite(evan[2]).all(axis=0)[2 * n_cap::2]
        top = n_cap if held.all() else int(np.argmin(held))
    cap_orders = np.arange(-top, top + 1)
    omegas = np.asarray(omegas, dtype=float)
    need = np.zeros((omegas.size, len(kinds)), dtype=int)
    for run, rows in _groups(src_prov, tgt_prov, omegas, d, cap_orders,
                             [2] * omegas.size, evan):
        prev, got = _integrals(src_prov, 1, sums, d, *rows, evan), need[run]
        for n in range(2, top + 1):
            cur = _integrals(src_prov, n, sums, d, *rows, evan)
            shell = np.add.reduceat(np.abs(cur - prev), first, axis=1)
            scale = np.add.reduceat(np.abs(cur), first, axis=1)
            got[(got == 0) & (shell <= tol
                              * np.maximum(scale, 1e-300))] = n
            if got.all():
                break
            prev = cur
    if not need.all():
        warnings.warn(_ORDER_CAP_WARNING, RuntimeWarning, stacklevel=4)
        return n_cap
    return int(need.max())


def _grid_factor(src_prov, tgt_prov, omegas, d, orders, sums, rel_tol,
                 y_edges):
    """The grid-density factor of a pass: its psi panels and its y grid
    on y_edges double together, from factor 1, until every integral of
    sums at every frequency of omegas stops moving at the 0.2 * rel_tol
    level.  Each frequency is one temperature's, and as in the outer
    integral an integral is held to at least GROUP_FLOOR of the largest
    of its (temperature, kind) group, so an evanescent integral a
    millionth of the propagating one cannot drive the grid.  Each
    factor tried is one _axial call.  Returns (factor, evan), whose y
    tables (None without an evanescent sum) the outer integral reuses."""
    def integrals(factor):
        evan = _evan_tables(factor, orders, y_edges) if "e" in sums else None
        return evan, _axial(src_prov, tgt_prov, omegas, d, orders, sums,
                            factor, evan)

    pair = np.array([s == "s" for s in sums])
    factor, (evan, prev) = 1, integrals(1)
    for _ in range(_MAX_GRID_BUMPS):
        finer, cur = integrals(2 * factor)
        size = np.maximum(np.abs(prev), np.abs(cur))
        largest = np.empty_like(size)
        for group in (pair, ~pair):
            largest[:, group] = size[:, group].max(axis=1, keepdims=True,
                                                   initial=0.0)
        scale = np.maximum(np.maximum(size, GROUP_FLOOR * largest), 1e-300)
        rel = np.max(np.abs(cur - prev) / scale)
        if rel <= 0.2 * rel_tol:
            return factor, evan
        factor, evan, prev = 2 * factor, finer, cur
    if rel > rel_tol:
        warnings.warn(_GRID_CAP_WARNING, RuntimeWarning, stacklevel=4)
    return factor, evan


def _distinct(values):
    """values in increasing order, without those within four units in
    the last place of the one kept before them: temperatures in integer
    ratios give one seed edge twice, one rounding apart, and the panel
    between the two would repeat one node."""
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > 4.0 * math.ulp(v):
            out.append(v)
    return out


def _windows(poles, edges, jumps):
    """The windows of the outer integral around poles, a set of
    (omega_k, gamma_k), as (a, b, omega_k, gamma_k) in increasing order.

    A window reaches _WINDOW_WIDTHS widths gamma_k to either side of
    its pole.  It is skipped if it reaches into the first seed panel
    [edges[0], edges[1]] or past edges[-1], or if it holds a jump of
    the live mask (one of jumps: a temperature's u_min or X_MAX edge),
    which must stay a panel edge.  Windows that overlap then shrink to
    meet halfway between their poles."""
    kept = []
    for w, g in sorted(poles):
        a, b = w - _WINDOW_WIDTHS * g, w + _WINDOW_WIDTHS * g
        if edges[1] <= a and b <= edges[-1] \
                and not any(a < j < b for j in jumps):
            kept.append([a, b, w, g])
    for lo, hi in zip(kept, kept[1:]):
        if lo[1] > hi[0]:
            lo[1] = hi[0] = 0.5 * (lo[2] + hi[2])
    return [tuple(win) for win in kept]


def _outer_map(omega_1, windows):
    """The piecewise map x -> (omega, d omega / dx) of the outer
    integral, and the x of each window's pole.

    Below omega_1, omega = x^2 / omega_1; inside a window (a, b,
    omega_k, gamma_k) of _windows, omega = omega_k + (gamma_k / 2) tan t
    with x linear in t and x = omega at a and b; elsewhere omega = x.
    The windows lie above omega_1, so the map is continuous and
    monotone, and t = arctan(2 (omega - omega_k) / gamma_k) turns the
    Lorentzian peak at omega_k flat.  Outside the windows every value
    is bitwise that of the two-piece map without them."""
    pieces = []
    for a, b, w, g in windows:
        t_a = math.atan(2.0 * (a - w) / g)
        slope = (math.atan(2.0 * (b - w) / g) - t_a) / (b - a)
        pieces.append((a, b, w, 0.5 * g, t_a, slope))

    def omega_of(x):
        first = x < omega_1
        omegas = np.where(first, x * x / omega_1, x)
        jac = np.where(first, 2.0 * x / omega_1, 1.0)
        for a, b, w, half, t_a, slope in pieces:
            inside = (a < x) & (x < b)
            t = t_a + slope * (x[inside] - a)
            omegas[inside] = w + half * np.tan(t)
            jac[inside] = half * slope / np.cos(t) ** 2
        return omegas, jac

    return omega_of, [a - t_a / slope for a, _, _, _, t_a, slope in pieces]


def _pass(kinds, temps, src_prov, tgt_prov, d, controls):
    """Every channel of kinds at every temperature of temps (positive,
    increasing) in one adaptive frequency integral.

    kind 'int': the interaction channels (propagating, evanescent) on
    the target cylinder, on the axis running source -> target.
    Negative means attraction.  kind 'pair': the one channel of the
    force on the rigid pair, on the axis running target -> source.
    Only propagating modes carry momentum to infinity; the evanescent
    part vanishes.  Returns {(kind, T): channels}.

    The kernels do not depend on the temperature, which enters only
    through the Bose factor, so each outer node evaluates them once and
    weights them for every temperature whose window [u_min, X_MAX] in
    its own u = hbar omega / k_B T holds the node.  The orders and the
    grid factor are the largest that any temperature needs.

    The integral runs in x through _outer_map: omega = x^2 / omega_1 on
    the first seed panel, omega = omega_k + (gamma_k / 2) tan t with x
    linear in t inside the window of each resonance of either
    cylinder's material that _windows keeps, and omega = x elsewhere.
    Its seed edges are every temperature's thermal seed edges, less
    those inside a window, plus each window's ends and pole.
    """
    sums = sum((_SUMS[k] for k in kinds), ())
    scales = [K_BOLTZMANN * t / HBAR for t in temps]
    n_cap = int(src_prov.max_order or controls.n_max or 8)
    y_edges = _evan_edges(src_prov.radius + tgt_prov.radius, d)
    n_use = _probe_orders(src_prov, tgt_prov,
                          sorted({u * s for s in scales for u in _PROBE_US}),
                          d, kinds, n_cap, 0.1 * controls.rel_tol, y_edges)
    orders = np.arange(-n_use, n_use + 1)
    factor, evan = _grid_factor(src_prov, tgt_prov, 2.5 * np.asarray(scales),
                                d, orders, sums, controls.rel_tol, y_edges)

    # seed edges in omega; _distinct is idempotent, so without windows
    # they are bitwise the thermal ones
    edges = _distinct(u * s for s in scales
                      for u in thermal_seed_edges(controls))
    omega_1 = edges[1]
    windows = _windows(
        set(resonances(src_prov.material) + resonances(tgt_prov.material)),
        edges, [u * s for s in scales for u in (controls.u_min, X_MAX)])
    omega_of, centres = _outer_map(omega_1, windows)
    edges = _distinct([w for w in edges if not any(
        a < w < b for a, b, _, _ in windows)] + centres
        + [e for a, b, _, _ in windows for e in (a, b)])
    x_edges = [math.sqrt(w * omega_1) if w < omega_1 else w for w in edges]

    def integrand(x_nodes):
        omegas, jac = omega_of(x_nodes)
        us = omegas[:, None] / np.asarray(scales)
        live = (controls.u_min <= us) & (us <= X_MAX)
        bose = np.expm1(us, where=live, out=np.ones_like(us))
        weights = np.where(live, jac[:, None] / bose, 0.0)
        out = np.zeros((x_nodes.size, len(temps), len(sums)))
        at = np.flatnonzero(live.any(axis=1))
        vals = _axial(src_prov, tgt_prov, omegas[at], d, orders, sums,
                      factor, evan)
        out[at] = weights[at, :, None] * vals[:, None, :]
        return out.reshape(x_nodes.size, -1)

    # one tolerance group per (temperature, kind): the interaction
    # channels share one, the pair channel has its own
    groups = [2 * j + (s == "s") for j in range(len(temps)) for s in sums]
    vals, _ = adaptive_vector(integrand, x_edges[0], x_edges[-1],
                              controls.rel_tol, seed_edges=x_edges,
                              max_panels=MAX_PANELS * len(temps),
                              groups=groups)
    vals = HBAR / (2.0 * math.pi ** 2) * vals.reshape(len(temps), len(sums))
    out = {}
    for t, v in zip(temps, vals):
        if "int" in kinds:
            out["int", t] = (-float(v[0]), float(v[1]))
        if "pair" in kinds:
            out["pair", t] = (float(v[-1]),)
    return out


def _scenario_keywords(scenario, source, other, separation, memo):
    """Check the geometry of a total_force or self_force call, and
    return the keywords of its force calls: one memo, and as _temps the
    positive temperatures of the scenario's own (T1, T2, T_env) and of
    every temperature set."""
    _check_geometry(source, other, separation, stacklevel=4)
    own = (scenario.cylinder1.temperature, scenario.cylinder2.temperature,
           scenario.environment_temperature)
    temps = frozenset(float(t) for t in own + sum(
        scenario.temperature_sets or (), ()) if t > 0)
    return dict(provider=scenario.provider, controls=scenario.controls,
                _memo={} if memo is None else memo, _temps=temps)


def _force(kind, source, target, temperature, separation, provider,
           controls, memo, scenario_temps):
    """The checks, defaults and memo lookup of interaction_force and
    pair_source_force around one _pass: of both kinds at scenario_temps
    (from total_force or self_force) and this temperature, or else of
    this kind and temperature only.  A memo key names both.  Only a
    lone call warns of the near field; total_force and self_force
    warn once for their calls."""
    _check_geometry(source, target, separation,
                    4 if scenario_temps is None else None)
    provs = (_make_provider(provider, source),
             _make_provider(provider, target))
    controls = controls if controls is not None else QuadratureControls()
    temp = source.temperature if temperature is None else float(temperature)
    if not 0 <= temp < math.inf:
        raise ValueError("temperature must be finite and >= 0, got %r"
                         % (temp,))
    if temp == 0 or isinstance(source.material, Vacuum) \
            or isinstance(target.material, Vacuum):
        return (0.0, 0.0) if kind == "int" else (0.0,)
    if scenario_temps is None:
        kinds, temps = (kind,), (temp,)
    else:
        kinds = ("int", "pair")
        temps = tuple(sorted(scenario_temps | {temp}))
    key = (kinds, provider, source.material, source.radius,
           target.material, target.radius, temps, separation, controls)
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = _pass(kinds, temps, *provs, separation, controls)
    return memo[key][kind, temp]


def interaction_force(source, target, temperature=None, separation=None,
                      *, provider="thin", controls=None, _memo=None,
                      _temps=None):
    """Force per length on the target cylinder from thermal sources in
    the source cylinder at the given temperature.

    The axis runs from source to target, so a negative value attracts
    the target back toward the source.  Returns (force, channels)
    where channels maps 'propagating' and 'evanescent' to the two
    light-line contributions.

    Parameters
    ----------
    source, target : CylinderSpec
        Geometry and materials.  Only the source temperature matters;
        None defers to source.temperature.
    separation : float
        Axis-to-axis distance in m.
    provider : {'thin', 'full'}
        Scattering block route: small-radius expansion or the exact
        boundary-value solve.
    """
    prop, evan = _force("int", source, target, temperature, separation,
                        provider, controls, _memo, _temps)
    return prop + evan, {"propagating": prop, "evanescent": evan}


def pair_source_force(source, other, temperature=None, separation=None,
                      *, provider="thin", controls=None, _memo=None,
                      _temps=None):
    """Force per length on the rigid two-cylinder pair from thermal
    sources in the source cylinder, on the axis from other to source.
    Only propagating modes contribute."""
    return _force("pair", source, other, temperature, separation,
                  provider, controls, _memo, _temps)[0]


def self_force(index, scenario, separation, *, temperature=None,
               _memo=None):
    """Force per length on cylinder `index` (1 or 2) of the scenario
    from its own thermal sources, in the presence of the other
    cylinder, on the axis pointing from the other cylinder toward
    this one.

    Computed through the pair route: the force on the pair from this
    cylinder's sources, minus the force those sources exert on the
    other cylinder.
    """
    if index not in (1, 2):
        raise ValueError("index must be 1 or 2")
    source, other = scenario.cylinder1, scenario.cylinder2
    if index == 2:
        source, other = other, source
    kw = _scenario_keywords(scenario, source, other, separation, _memo)
    pair = pair_source_force(source, other, temperature, separation, **kw)
    onto_other, _ = interaction_force(source, other, temperature,
                                      separation, **kw)
    # minus the axis-reflected force on the other cylinder: a plain sum
    return pair + onto_other


def total_force(scenario, separation, *, _memo=None):
    """Full nonequilibrium force breakdown at one separation.

    Combines the equilibrium force at the environment temperature
    (interpolated from the scenario's ingested table, zero without
    one) with temperature-difference corrections built from the
    interaction and self-force integrals.  Returns a ForceBreakdown.
    """
    c1, c2 = scenario.cylinder1, scenario.cylinder2
    kw = _scenario_keywords(scenario, c1, c2, separation, _memo)
    f_eq = 0.0 if scenario.equilibrium is None \
        else scenario.equilibrium.force(separation)
    t1, t2, te = (c1.temperature, c2.temperature,
                  float(scenario.environment_temperature))
    pair1_t1 = pair_source_force(c1, c2, t1, separation, **kw)
    pair1_te = pair_source_force(c1, c2, te, separation, **kw)
    int12_t1, ch12_t1 = interaction_force(c1, c2, t1, separation, **kw)
    int12_te, _ = interaction_force(c1, c2, te, separation, **kw)
    int21_t2, ch21_t2 = interaction_force(c2, c1, t2, separation, **kw)
    int21_te, _ = interaction_force(c2, c1, te, separation, **kw)
    pair2_t2 = pair_source_force(c2, c1, t2, separation, **kw)
    pair2_te = pair_source_force(c2, c1, te, separation, **kw)

    self1_t1 = pair1_t1 + int12_t1
    self1_te = pair1_te + int12_te
    self2_t2 = pair2_t2 + int21_t2
    self2_te = pair2_te + int21_te

    # Difference-first assembly: when a driving temperature equals the
    # environment temperature both terms come from the same memo entry
    # and the correction vanishes exactly, so equal-temperature rows
    # reproduce f_eq bitwise.
    f1_env_sub = -self1_te - int21_te
    f1_total = f_eq + (self1_t1 - self1_te) + (int21_t2 - int21_te)

    f2_env_sub = self2_te + int12_te
    f2_total = -(f_eq + (self2_t2 - self2_te) + (int12_t1 - int12_te))

    return ForceBreakdown(
        separation=separation, t1=t1, t2=t2, t_env=te, f_eq=f_eq,
        f_int_21=int21_t2,
        f_int_21_prop=ch21_t2["propagating"],
        f_int_21_evan=ch21_t2["evanescent"],
        f_int_12=-int12_t1,
        f_int_12_prop=-ch12_t1["propagating"],
        f_int_12_evan=-ch12_t1["evanescent"],
        f_pair_source_1=pair1_t1,
        f_pair_source_2=-pair2_t2,
        f_self_1=self1_t1,
        f_self_2=-self2_t2,
        f_env_subtraction_1=f1_env_sub,
        f_env_subtraction_2=f2_env_sub,
        f_total_1=f1_total,
        f_total_2=f2_total,
    )


def set_scenarios(scenario):
    """The scenario at each temperature set's (T1, T2, T_env), in file
    order, or at its own without sets.  Each keeps every set, so its
    passes cover the temperatures of the whole sweep."""
    sets = scenario.temperature_sets
    if sets is None:
        sets = ((scenario.cylinder1.temperature,
                 scenario.cylinder2.temperature,
                 scenario.environment_temperature),)
    return [replace(scenario,
                    cylinder1=replace(scenario.cylinder1, temperature=t1),
                    cylinder2=replace(scenario.cylinder2, temperature=t2),
                    environment_temperature=te)
            for t1, t2, te in sets]


def sweep(scenario):
    """Evaluate a scenario over all its temperature sets and
    separations.  Returns a list of ForceBreakdown rows in file order:
    temperature sets outermost, separations innermost.  Each row is the
    total_force of its set_scenarios entry, and the rows of one
    separation share its passes (one per source cylinder, one for
    identical cylinders), so rows sharing a temperature and separation
    reuse bitwise-identical values."""
    memo = {}
    return [total_force(one, d, _memo=memo)
            for one in set_scenarios(scenario)
            for d in scenario.separations]
