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
factor from its own u_min of u = hbar omega / (k_B T) to the end of
the pass.  The pass has one outer grid, seeded as a pass at its
hottest temperature alone would be, and ends at that temperature's
u = X_MAX.  A cooler channel runs on past its own u = X_MAX, into
its e^-u Bose tail: 4e-12 of a channel whose weight grows like u^5.
Every pass integrates the same three axial integrals, by name
(_INTEGRALS): 'f' and 'e' are the propagating and evanescent
interaction integrals, and 's' is the pair integral.  The outer
integral is globally adaptive with one tolerance group per
temperature and integral group (_GROUPS: 'f' and 'e' share one, 's'
has its own), so each channel converges as if it were integrated
alone.

It runs in a variable x with one piecewise map x -> (omega,
d omega / dx) per pass, which makes a conductor's u^(-1/2) endpoint
singularity regular and turns the Lorentzian peak of each material
resonance flat inside its window (_outer_map, whose windows _windows
picks).

Each call of the outer integrand is one array pass over the nodes
adaptive_vector batches into it: every seed panel at once, then both
halves of each split.  The frequency map, its Jacobian and the Bose
weights of all its nodes come at once, and the live nodes go in node
order to _axial.  Every provider call of a pass (order probe, grid
calibration and outer integral) goes through _groups, so it keeps to
the same group budget.  A group's block rows are
[psi rows of node 0 .. m-1 | y rows of node 0 .. m-1], with omega per
row, so one provider call per distinct cylinder, one hankel_tables
call and one call of each kernel sum serve the whole group.  A group
holds at most _MAX_BLOCK_ENTRIES = 12,288 block entries (rows x
orders), which bounds the working set of its blocks, tables and sums.
One group peaks at about 190 bytes per entry (tracemalloc, five
full-provider tungsten nodes at orders -4 .. 4), so the budget costs
at most 2.2% more peak RSS than 6,144 entries did at 335 bytes each;
14,336 entries cost over 3%.  A node's values do not depend on its group.

The axial integral is split at the light line: the propagating side is
mapped to an angle psi with k_z = (omega / c) cos(psi); the evanescent
side uses the decaying scale y = |q| d, on the panels of _EVAN_EDGES
cut by _evan_edges.  Both sides are even in k_z, because every block
obeys T(-k_z) = S T(k_z) S with S = diag(1, -1): the psi grid is folded
at pi / 2 (_psi_grid) and the y grid takes k_z > 0 only, each counted
twice.  Inner grids are fixed composite rules with one density factor
per pass: the psi and y grids double together until every integral of
the pass at u = 2.5 of every temperature stops moving, each held to at
least 1% of the largest integral of its tolerance group at its
temperature, as the outer integral holds its channels.  The psi grid
takes the 15-point Kronrod rule: Gauss on its interior panels
moves the SiC pair source by 0.07 rel_tol.  The azimuthal truncation
is calibrated once per pass by a multipole shell probe of both
kernels, whose shells are the pass's own integrals (_integrals) on its
y grid and the central orders of blocks built once at the cap, each
shell held to rel_tol / 10.  Both take the largest value any
temperature needs.

Identical inputs produce bitwise identical outputs: panel sums are
accumulated in a fixed order, and passes are memoized.  total_force
hands the temperatures of every set of its scenario, which lists its
own, to interaction_force and pair_source_force as the private keyword
_temps, and their passes run at all of them.  So a force depends only
on (scenario, separation): equal temperatures cancel exactly,
identical cylinders share a pass, so mirrored rows agree bitwise, and
a sweep row is the total_force of its set.  A call without _temps runs
the same pass at its own temperature only, whatever its memo holds, so
a lone interaction_force and a lone pair_source_force of one memo
share it.  The provider's quadratic_term decides whether the source
amplitude keeps T T^dagger.

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
from .quadrature import (GROUP_FLOOR, MAX_PANELS, QuadratureControls,
                         adaptive_vector, composite_nodes,
                         thermal_seed_edges, uniform_edges)
from .tmatrix import PROVIDERS
from .units import C_LIGHT, HBAR, K_BOLTZMANN

# panel edges of the y grid, graded toward y = 0: a conductor's
# evanescent peak sits near y = (d / R) / |sqrt(eps)|, below 0.05 at low
# frequency, and a coarser first panel aliases it.  A pass cuts them at
# the y_max of _evan_edges, for its order probe as well.  Panels that
# end at or below _KRONROD_Y_MAX, where that peak sits, take the
# 15-point Kronrod rule, and the panels above it the 7-point Gauss rule
# that Kronrod embeds, which moves no field of the benchmark sweeps by
# more than 2.1e-10: Gauss on [0.05, 0.25] moves a thin tungsten wire's
# evanescent channel by 1.1e-6, and on [0, 0.01] by 7.3e-4
_EVAN_EDGES = (0.0, 0.01, 0.05, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0,
               12.0, 18.0, 26.0, 35.0)
_KRONROD_Y_MAX = 0.25
# the y grid ends where the evanescent integrand's bound
# e^(-2 y (1 - (R1 + R2) / d)) falls to e^(-_EVAN_DECAY)
_EVAN_DECAY = 32.0
# order probe: frequencies in u
_PROBE_US = (2.5, 7.0, 15.0)
# the axial integrals of every pass (see _integrals) in _force's order,
# the tolerance group of each, adjacent, and each group's force and start
_INTEGRALS = ("f", "e", "s")
_GROUPS = (0, 0, 1)
_GROUP_FORCES = ("interaction", "pair")
_GROUP_STARTS = tuple(np.flatnonzero(np.diff(_GROUPS, prepend=-1)))
# units of kd per psi panel over [0, pi], of which _psi_grid keeps the
# half below pi / 2: the pair sum needs this density, the
# propagating interaction sum only one panel per 10
_PER_PANEL = 3.0
_MAX_GRID_BUMPS = 4
# block entries (rows x orders) of one provider call: _axial and the
# order probe split their frequencies into runs of at most this size,
# which bounds the working set of every call's tables and sums.
# At about 190 bytes per entry this is the largest budget, in steps of
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
_ORDER_CAP_WARNING = ("multipole series of the %s force still changing "
                      "at the order cap; raise n_max for this geometry")
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
    f_total_2 < 0 mean repulsion.  The fields run in the order of the
    numeric columns of a sweep CSV (cli.CSV_COLUMNS).
    """

    separation: float
    t1: float
    t2: float
    t_env: float
    f_total_1: float
    f_total_2: float
    f_int_21: float
    f_int_21_prop: float
    f_int_21_evan: float
    f_self_1: float
    f_pair_source_1: float
    f_env_subtraction_1: float
    f_int_12: float
    f_int_12_prop: float
    f_int_12_evan: float
    f_self_2: float
    f_pair_source_2: float
    f_env_subtraction_2: float
    f_eq: float


@dataclass
class Scenario:
    """A cylinder pair, an environment, separations, solver settings,
    and temperature sets, which always list the scenario's own (T1, T2,
    T_env): as the only set when none are given."""

    cylinder1: CylinderSpec
    cylinder2: CylinderSpec
    separations: tuple
    environment_temperature: float = 0.0
    provider: str = "thin"
    controls: QuadratureControls = field(default_factory=QuadratureControls)
    equilibrium: EquilibriumTable | None = None
    temperature_sets: tuple | None = None

    def __post_init__(self):
        seps = tuple(float(d) for d in np.atleast_1d(self.separations))
        if not seps or any(not (d > 0 and math.isfinite(d)) for d in seps):
            raise ValueError("separations must be positive and finite")
        self.separations = seps
        _provider_class(self.provider)
        if not 0 <= self.environment_temperature < math.inf:
            raise ValueError("environment_temperature must be finite and "
                             ">= 0, got %r"
                             % (self.environment_temperature,))
        own = (self.cylinder1.temperature, self.cylinder2.temperature,
               self.environment_temperature)
        sets = tuple(tuple(float(t) for t in s)
                     for s in self.temperature_sets or (own,))
        if own not in sets or any(
                len(s) != 3 or not all(0 <= t < math.inf for t in s)
                for s in sets):
            raise ValueError("temperature_sets must be (T1, T2, T_env) "
                             "with finite nonnegative entries, one of "
                             "them the scenario's own %r, got %r"
                             % (own, sets))
        self.temperature_sets = sets


def _provider_class(provider):
    """The tmatrix.PROVIDERS class named provider."""
    if not isinstance(provider, str) or provider not in PROVIDERS:
        raise ValueError("provider must be %s, got %r"
                         % (" or ".join(map(repr, PROVIDERS)), provider))
    return PROVIDERS[provider]


def _check_geometry(source, target, separation):
    """Raise on a missing, nonpositive or overlapping separation; warn
    of the near field where the public function was called from, two
    frames above the caller: _force or _scenario_keywords."""
    if separation is None:
        raise TypeError("separation is required")
    rsum = source.radius + target.radius
    if not (separation > 0 and math.isfinite(separation)):
        raise ValueError("separation must be positive and finite")
    if separation <= rsum:
        raise ValueError("cylinders overlap: separation must exceed "
                         "the sum of the radii")
    if separation < 5.0 * rsum:
        warnings.warn(_NEAR_FIELD_WARNING, RuntimeWarning, stacklevel=4)


def _npanels(kd):
    return max(4, int(math.ceil(kd / _PER_PANEL)))


@lru_cache(maxsize=256)
def _psi_grid(n_panels):
    """cos(psi), sin(psi) and the weights times sin(psi)^2 of the
    propagating sums on the composite Kronrod rule of n_panels uniform
    panels of psi in [0, pi], folded at pi / 2.  The rule is symmetric
    about pi / 2 and both propagating sums are even in k_z (see
    _integrals), so of its N nodes the first ceil(N / 2) are kept and
    the first floor(N / 2) of them weigh twice; with an odd panel count
    the middle panel's centre node, psi = pi / 2, keeps its one weight.
    Read-only: the cache hands the same arrays to every caller."""
    nodes, wts = composite_nodes(uniform_edges(0.0, math.pi, n_panels))
    half = nodes.size // 2
    nodes, wts = nodes[:nodes.size - half], wts[:nodes.size - half]
    wts[:half] *= 2.0
    sin_psi = np.sin(nodes)
    grid = (np.cos(nodes), sin_psi, wts * (sin_psi * sin_psi))
    for a in grid:
        a.flags.writeable = False
    return grid


def _rows(src_prov, tgt_prov, omegas, d, orders, n_panels, evan):
    """Blocks on orders at m frequencies, on the rows [psi rows of node
    0 .. m-1 | y rows of node 0 .. m-1] with omega per row, so one
    provider call per distinct cylinder covers every node and both
    branches.  Node i has the folded psi grid of n_panels[i] uniform
    panels over [0, pi] (_psi_grid: psi <= pi / 2, so k_z >= 0 only)
    and the y grid of evan.  Returns (k, tsrc, ttgt, psi): k = omega / c
    per node, and psi = (qd, weights times sin(psi)^2, first row of each
    node).
    Identical cylinders share one provider (_force), and then one set
    of blocks."""
    k = np.asarray(omegas, dtype=float) / C_LIGHT
    kd = k * d
    grids = [_psi_grid(int(n)) for n in n_panels]
    sizes = [g[0].size for g in grids]
    cos_psi, sin_psi, w_sin2 = (np.concatenate(a) for a in zip(*grids))
    psi = (np.repeat(kd, sizes) * sin_psi, w_sin2,
           np.cumsum([0] + sizes[:-1]))
    ktz = np.concatenate(
        [cos_psi, np.sqrt(1.0 + (evan[0] / kd[:, None]) ** 2).ravel()])
    w_rows = np.concatenate([np.repeat(omegas, sizes),
                             np.repeat(omegas, evan[0].size)])
    tsrc = src_prov.blocks(orders, ktz, w_rows)
    ttgt = (tsrc if tgt_prov is src_prov
            else tgt_prov.blocks(orders, ktz, w_rows))
    return k, tsrc, ttgt, psi


def _integrals(src_prov, n, d, k, tsrc, ttgt, psi, evan):
    """Axial integrals of the _rows output (k, tsrc, ttgt, psi) on
    orders -n .. n, shape (m, 3): row i holds the integrals at node i,
    one column per name of _INTEGRALS.  The blocks may hold more
    orders, and the K-product table of evan = (y, weights, table) a
    higher table order; both are read at their central columns.

    'f' and 's' are the propagating interaction and pair integrals
    dk_z q * (kernel sum) over |k_z| < omega / c, mapped to psi with
    k_z = k cos(psi), weighted k^2 per node; 'e' is the evanescent
    interaction integral in the decay variable y = |q| d, weighted
    2 / d^2.  The psi integrals are segment sums over the ragged
    per-node grids; every node shares the y grid, so its integrals come
    from an (m, ny) reshape and the K-product table serves all nodes
    untiled.  Both branches count k_z > 0 twice, which the block parity
    T(-k_z) = S T(k_z) S, S = diag(1, -1), allows: the -k_z evanescent
    blocks are T(k_z) * [[1, -1], [-1, 1]] on both cylinders and the
    sum multiplies their entries pairwise, so the -k_z sum is the +k_z
    sum bitwise and the branch is twice the +k_z sum; the propagating
    sums take the same value at -k_z as at k_z to rounding, so the psi
    grid is folded at pi / 2 with doubled weights (_psi_grid).  'f'
    and 's' contract the same diagonal sums of the source amplitude
    against the target blocks, which kernels.prop_order_sums forms once
    per call.  The evanescent sum runs before the Hankel tables and
    those sums are built, so its working set does not add to theirs.
    Every call forms all three integrals, and checks each sum finite as
    it forms it: 'e', then 'f', then 's'."""
    mid = tsrc.shape[1] // 2
    tsrc, ttgt = tsrc[:, mid - n:mid + n + 1], ttgt[:, mid - n:mid + n + 1]
    nu_max = 2 * n
    qd, w_sin2, starts = psi
    y, y_wts, kk = evan
    out = np.empty((k.size, 3))
    mid = kk.shape[1] // 2
    kk = kk[:, mid - nu_max:mid + nu_max + 1]
    vals = kernels.require_finite(kernels.evan_kernel_sum(
        tsrc[qd.size:], ttgt[qd.size:], kk, nu_max), kk, y, nu_max, "y")
    weights = y_wts * y * y / np.sqrt(np.square(k * d)[..., None] + y * y)
    out[:, 1] = 2.0 / (d * d) * np.sum(weights * vals.reshape(-1, y.size),
                                       axis=1)
    hp, h, jp = kernels.hankel_tables(qd, nu_max)
    d_sums, dq_sums = kernels.prop_order_sums(
        tsrc[:qd.size], ttgt[:qd.size], nu_max, src_prov.quadratic_term)
    vals = kernels.require_finite(kernels.prop_kernel_sum(
        d_sums, dq_sums, hp), hp, qd, nu_max, "qd")
    out[:, 0] = k * k * np.add.reduceat(w_sin2 * vals, starts)
    vals = kernels.require_finite(kernels.pair_kernel_sum(
        d_sums, h, jp), h, qd, nu_max, "qd")
    out[:, 2] = k * k * np.add.reduceat(w_sin2 * vals, starts)
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
    keeps its panel's rule (see _EVAN_EDGES).  Neither depends on the
    frequency, so one pass builds them once and reuses them at every
    outer node."""
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
    starts, total = [], 0
    for i, p in enumerate(n_panels):
        size = (_psi_grid(p)[0].size + evan[0].size) * orders.size
        if not starts or total + size > _MAX_BLOCK_ENTRIES:
            starts.append(i)
            total = 0
        total += size
    for a, b in zip(starts, starts[1:] + [len(n_panels)]):
        yield slice(a, b), _rows(src_prov, tgt_prov, omegas[a:b], d, orders,
                                 n_panels[a:b], evan)


def _axial(src_prov, tgt_prov, omegas, d, orders, factor, evan):
    """The three axial integrals of a pass at omegas, shape (m, 3), on
    grids of density factor: factor times the psi panels of _npanels,
    and evan's y grid.  Each group of nodes within the entry budget is
    one _integrals call."""
    n_panels = [factor * _npanels(w * d / C_LIGHT) for w in omegas]
    out = np.empty((len(omegas), len(_INTEGRALS)))
    for run, rows in _groups(src_prov, tgt_prov, omegas, d, orders,
                             n_panels, evan):
        out[run] = _integrals(src_prov, int(orders[-1]), d, *rows, evan)
    return out


def _probe_orders(src_prov, tgt_prov, omegas, d, n_cap, tol, y_edges):
    """Pick the azimuthal truncation by growing shells on coarse grids
    at a few representative frequencies until the last shell of every
    tolerance group of the three integrals is at most tol of its
    integrals: the interaction integrals ('f' with 'e') and the pair
    integral ('s') each by its own shell test, and the largest order
    any of them needs at any frequency wins.  A pass takes
    tol = rel_tol / 10 and its own y_edges.  Each group of frequencies
    within the entry budget makes one provider call per distinct
    cylinder at the cap, on 2 psi panels and the y grid on y_edges, and
    each shell is the _integrals of its central orders.  The K-product
    table is built once at the cap; where it overflows below the cap,
    the blocks stop at the first shell that reads an overflowing order,
    and that shell raises."""
    if n_cap <= 1:
        return 1
    evan = _evan_tables(1, np.arange(-n_cap, n_cap + 1), y_edges)
    # the blocks stop at the first shell whose table orders overflow at
    # some y: its sum raises, naming the order and the y, where higher
    # blocks would first overflow in the block solve
    held = np.isfinite(evan[2]).all(axis=0)[2 * n_cap::2]
    top = n_cap if held.all() else int(np.argmin(held))
    cap_orders = np.arange(-top, top + 1)
    need = np.zeros((len(omegas), len(_GROUP_STARTS)), dtype=int)
    for run, rows in _groups(src_prov, tgt_prov, omegas, d, cap_orders,
                             [2] * len(omegas), evan):
        prev, got = _integrals(src_prov, 1, d, *rows, evan), need[run]
        for n in range(2, top + 1):
            cur = _integrals(src_prov, n, d, *rows, evan)
            shell = np.add.reduceat(np.abs(cur - prev), _GROUP_STARTS, axis=1)
            scale = np.add.reduceat(np.abs(cur), _GROUP_STARTS, axis=1)
            got[(got == 0) & (shell <= tol
                              * np.maximum(scale, 1e-300))] = n
            if got.all():
                break
            prev = cur
    unsettled = [f for f, ok in zip(_GROUP_FORCES, need.all(axis=0)) if not ok]
    if unsettled:
        warnings.warn(_ORDER_CAP_WARNING % " and ".join(unsettled),
                      RuntimeWarning, stacklevel=4)
    return n_cap if unsettled else int(need.max())


def _grid_factor(src_prov, tgt_prov, omegas, d, orders, rel_tol, y_edges):
    """The grid-density factor of a pass: its psi panels and its y grid
    on y_edges double together, from factor 1, until each of the three
    integrals at every frequency of omegas stops moving at the
    0.2 * rel_tol level.  Each frequency is one temperature's, and as in
    the outer integral an integral is held to at least GROUP_FLOOR of
    the largest of its tolerance group at that frequency, so an
    evanescent integral a millionth of the propagating one cannot drive
    the grid.  Each factor tried is one _axial call.  Returns
    (factor, evan), whose y tables the outer integral reuses."""
    def integrals(factor):
        evan = _evan_tables(factor, orders, y_edges)
        return evan, _axial(src_prov, tgt_prov, omegas, d, orders, factor,
                            evan)

    factor, (evan, prev) = 1, integrals(1)
    for _ in range(_MAX_GRID_BUMPS):
        finer, cur = integrals(2 * factor)
        size = np.maximum(np.abs(prev), np.abs(cur))
        largest = np.maximum.reduceat(size, _GROUP_STARTS, axis=1)[:, _GROUPS]
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
    the last place of the one kept before them: a pass lists its
    hottest temperature's u_min edge twice, and another temperature's
    u_min edge or a window's end can meet a seed edge one rounding
    apart; the panel between the two would repeat one node."""
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > 4.0 * math.ulp(v):
            out.append(v)
    return out


def _windows(poles, edges, jumps):
    """The windows of the outer integral around poles, a set of
    (omega_k, gamma_k), as (a, b, omega_k, gamma_k) in increasing order.

    Each material declares the real-axis poles of the integrand
    (materials.resonances: a polar crystal's omega_to and its surface
    mode, each of width gamma), and a pass takes the union over both
    cylinders.  A window reaches _WINDOW_WIDTHS widths gamma_k to either
    side of its pole.  It is skipped if it reaches into the first seed
    panel [edges[0], edges[1]] or past edges[-1], or if it holds a jump
    of the live mask (one of jumps: a temperature's u_min edge, the
    only place where a channel starts or stops inside the pass), which
    must stay a panel edge.  Windows that overlap then
    shrink to meet halfway between their poles.  A pass drops the
    thermal seed edges inside a window and seeds each window's ends and
    pole instead."""
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

    Below omega_1, the end of the first seed panel, omega = x^2 / omega_1,
    which makes the u^(-1/2) endpoint singularity of a conductor's
    evanescent integrand regular.  Inside a window (a, b, omega_k,
    gamma_k) of _windows, omega = omega_k + (gamma_k / 2) tan t with x
    linear in t and x = omega at a and b: t = arctan(2 (omega - omega_k)
    / gamma_k) turns the Lorentzian peak at omega_k flat, so the
    adaptive integral does not bisect its way into a gamma-wide peak.
    Elsewhere omega = x.  The windows lie above omega_1, so the map is
    continuous and monotone.  Outside the windows every value is
    bitwise that of the two-piece map without them, so a pass without
    poles (a conductor) has the nodes of that map."""
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


def _pass(temps, src_prov, tgt_prov, d, controls):
    """The three integrals of _INTEGRALS at every temperature of temps
    (positive, increasing) in one adaptive frequency integral.

    'f' and 'e' are the propagating and evanescent interaction channels
    on the target cylinder, on the axis running source -> target.
    Negative means attraction.  's' is the force on the rigid pair, on
    the axis running target -> source.  Only propagating modes carry
    momentum to infinity; the pair force has no evanescent part.
    Returns {(integral, T): value}.

    The kernels do not depend on the temperature, which enters only
    through the Bose factor, so each outer node evaluates them once and
    weights them for every temperature whose own u = hbar omega / k_B T
    at the node is at least u_min.  The orders and the grid factor are
    the largest that any temperature needs.

    The integral runs in x through _outer_map, on the windows that
    _windows keeps.  Its seed edges are the thermal seed edges of the
    hottest temperature, which end the pass at its u = X_MAX, and each
    other temperature's u_min, where its channel starts; less those
    inside a window, plus each window's ends and pole.  So a pass seeds
    as one at its hottest temperature alone, apart from those u_min
    edges, and its adaptive splits serve every channel.
    """
    scales = [K_BOLTZMANN * t / HBAR for t in temps]
    n_cap = int(src_prov.max_order or controls.n_max or 8)
    y_edges = _evan_edges(src_prov.radius + tgt_prov.radius, d)
    n_use = _probe_orders(src_prov, tgt_prov,
                          sorted({u * s for s in scales for u in _PROBE_US}),
                          d, n_cap, 0.1 * controls.rel_tol, y_edges)
    orders = np.arange(-n_use, n_use + 1)
    factor, evan = _grid_factor(src_prov, tgt_prov, 2.5 * np.asarray(scales),
                                d, orders, controls.rel_tol, y_edges)

    # seed edges in omega: the hottest temperature's thermal ones and
    # every temperature's u_min; _distinct is idempotent, so with
    # one temperature and no windows they are bitwise the thermal ones
    jumps = [controls.u_min * s for s in scales]
    edges = _distinct([u * scales[-1] for u in thermal_seed_edges(controls)]
                      + jumps)
    omega_1 = edges[1]
    windows = _windows(
        set(resonances(src_prov.material) + resonances(tgt_prov.material)),
        edges, jumps)
    omega_of, centres = _outer_map(omega_1, windows)
    edges = _distinct([w for w in edges if not any(
        a < w < b for a, b, _, _ in windows)] + centres
        + [e for a, b, _, _ in windows for e in (a, b)])
    x_edges = [math.sqrt(w * omega_1) if w < omega_1 else w for w in edges]

    def integrand(x_nodes):
        omegas, jac = omega_of(x_nodes)
        us = omegas[:, None] / np.asarray(scales)
        live = controls.u_min <= us
        # past u = 709 expm1 overflows, and the weight 1 / inf is 0
        with np.errstate(over="ignore"):
            bose = np.expm1(us, where=live, out=np.ones_like(us))
        weights = np.where(live, jac[:, None] / bose, 0.0)
        out = np.zeros((x_nodes.size, len(temps), len(_INTEGRALS)))
        at = np.flatnonzero(live.any(axis=1))
        vals = _axial(src_prov, tgt_prov, omegas[at], d, orders, factor,
                      evan)
        out[at] = weights[at, :, None] * vals[:, None, :]
        return out.reshape(x_nodes.size, -1)

    groups = [g + len(_GROUPS) * j for j in range(len(temps)) for g in _GROUPS]
    vals, _ = adaptive_vector(integrand, x_edges[0], x_edges[-1],
                              controls.rel_tol, seed_edges=x_edges,
                              max_panels=MAX_PANELS * len(temps),
                              groups=groups)
    vals = HBAR / (2.0 * math.pi ** 2) * vals.reshape(len(temps), -1)
    # the propagating interaction sum carries the opposite sign to the
    # force on the axis source -> target
    return {(s, t): -float(v) if s == "f" else float(v)
            for t, row in zip(temps, vals) for s, v in zip(_INTEGRALS, row)}


def _scenario_keywords(scenario, source, other, separation, memo):
    """Check the geometry of a total_force call, and return the
    keywords of its force calls: one memo, and as _temps the positive
    temperatures of every temperature set, which list the scenario's
    own (T1, T2, T_env)."""
    _check_geometry(source, other, separation)
    temps = frozenset(t for s in scenario.temperature_sets for t in s
                      if t > 0)
    return dict(provider=scenario.provider, controls=scenario.controls,
                _memo={} if memo is None else memo, _temps=temps)


def _force(source, target, temperature, separation, provider, controls,
           memo, scenario_temps):
    """The checks, defaults and memo lookup of interaction_force and
    pair_source_force around one _pass: the integrals (f, e, s) of this
    temperature, from a pass at scenario_temps (the temperatures of
    every set of total_force's scenario) and this temperature, or else
    at this temperature only.  A memo key names the temperatures, so a
    lone interaction_force and a lone pair_source_force at one
    temperature share one pass.  Identical cylinders share one
    provider, of the class tmatrix.PROVIDERS names.  Only a lone call
    checks the geometry here; total_force checks it once for its
    calls."""
    if scenario_temps is None:
        _check_geometry(source, target, separation)
    make = _provider_class(provider)
    src = make(source.material, source.radius)
    same = (target.material, target.radius) == (source.material,
                                                source.radius)
    tgt = src if same else make(target.material, target.radius)
    controls = controls if controls is not None else QuadratureControls()
    temp = source.temperature if temperature is None else float(temperature)
    if not 0 <= temp < math.inf:
        raise ValueError("temperature must be finite and >= 0, got %r"
                         % (temp,))
    if temp == 0 or isinstance(source.material, Vacuum) \
            or isinstance(target.material, Vacuum):
        return (0.0,) * len(_INTEGRALS)
    temps = (temp,) if scenario_temps is None \
        else tuple(sorted(scenario_temps | {temp}))
    key = (provider, source.material, source.radius, target.material,
           target.radius, temps, separation, controls)
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = _pass(temps, src, tgt, separation, controls)
    return tuple(memo[key][s, temp] for s in _INTEGRALS)


def interaction_force(source, target, temperature=None, separation=None,
                      *, provider="thin", controls=None, _memo=None,
                      _temps=None):
    """Force per length on the target cylinder from thermal sources in
    the source cylinder at the given temperature.

    The axis runs from source to target, so a negative value attracts
    the target back toward the source.  Returns (force, channels)
    where channels maps 'propagating' and 'evanescent' to the two
    light-line contributions.  Its pass, like every pass, integrates
    the pair force too, for pair_source_force on the same memo.

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
    prop, evan, _ = _force(source, target, temperature, separation,
                           provider, controls, _memo, _temps)
    return prop + evan, {"propagating": prop, "evanescent": evan}


def pair_source_force(source, other, temperature=None, separation=None,
                      *, provider="thin", controls=None, _memo=None,
                      _temps=None):
    """Force per length on the rigid two-cylinder pair from thermal
    sources in the source cylinder, on the axis from other to source.
    Only propagating modes contribute, but its pass, like every pass,
    integrates the interaction force too, and fails where that fails."""
    return _force(source, other, temperature, separation, provider,
                  controls, _memo, _temps)[2]


def _source_forces(source, other, temperature, separation, kw):
    """(self, pair, onto_other, channels) of the sources in source at
    temperature: the pair force (pair_source_force, on the axis from
    other toward source), the force those sources exert on the other
    cylinder with its channels (interaction_force, on the axis from
    source toward other), and the self force on source, pair +
    onto_other: the pair force minus the axis-reflected force on the
    other cylinder."""
    pair = pair_source_force(source, other, temperature, separation, **kw)
    onto_other, channels = interaction_force(source, other, temperature,
                                             separation, **kw)
    return pair + onto_other, pair, onto_other, channels


def total_force(scenario, separation, *, _memo=None):
    """Full nonequilibrium force breakdown at one separation and the
    scenario's own (T1, T2, T_env), one of its temperature sets.

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
    self1, pair1, int12, ch12 = _source_forces(c1, c2, t1, separation, kw)
    self1_te, _, int12_te, _ = _source_forces(c1, c2, te, separation, kw)
    self2, pair2, int21, ch21 = _source_forces(c2, c1, t2, separation, kw)
    self2_te, _, int21_te, _ = _source_forces(c2, c1, te, separation, kw)

    # Difference-first assembly: when a driving temperature equals the
    # environment temperature both terms come from the same memo entry
    # and the correction vanishes exactly, so equal-temperature rows
    # reproduce f_eq bitwise.
    return ForceBreakdown(
        separation=separation, t1=t1, t2=t2, t_env=te,
        f_total_1=f_eq + (self1 - self1_te) + (int21 - int21_te),
        f_total_2=-(f_eq + (self2 - self2_te) + (int12 - int12_te)),
        f_int_21=int21,
        f_int_21_prop=ch21["propagating"],
        f_int_21_evan=ch21["evanescent"],
        f_self_1=self1,
        f_pair_source_1=pair1,
        f_env_subtraction_1=-self1_te - int21_te,
        f_int_12=-int12,
        f_int_12_prop=-ch12["propagating"],
        f_int_12_evan=-ch12["evanescent"],
        f_self_2=-self2,
        f_pair_source_2=-pair2,
        f_env_subtraction_2=self2_te + int12_te,
        f_eq=f_eq,
    )


def set_scenarios(scenario):
    """The scenario at each temperature set's (T1, T2, T_env), in file
    order; a scenario given no sets has one, its own.  Each keeps every
    set, so its passes cover the temperatures of the whole sweep."""
    return [replace(scenario,
                    cylinder1=replace(scenario.cylinder1, temperature=t1),
                    cylinder2=replace(scenario.cylinder2, temperature=t2),
                    environment_temperature=te)
            for t1, t2, te in scenario.temperature_sets]


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
