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
converges as if it were integrated alone.  Its first seed panel
[omega_0, omega_1] is integrated in x with omega = x^2 / omega_1, which
makes the u^(-1/2) endpoint singularity of a conductor's evanescent
integrand regular.

Each outer panel is one array pass.  The frequency map, its Jacobian
and the Bose weights of all 15 nodes come at once, and the live nodes
go in node order to _inner in groups.  A group's block rows are
[psi rows of node 0 .. m-1 | y rows of node 0 .. m-1], with omega per
row, so one provider call per distinct cylinder, one hankel_tables
call and one call of each kernel sum serve the whole group.  A group
holds at most _MAX_BLOCK_ENTRIES = 12,288 block entries (rows x
orders), which bounds the working set of its blocks, tables and sums.
One _inner call peaks at about 150 bytes per entry (tracemalloc, five
full-provider tungsten nodes at orders -4 .. 4), so the budget costs
at most 2.2% more peak RSS than 6,144 entries did at 335 bytes each;
14,336 entries cost over 3%.  A node's values do not depend on its group.

The axial integral is split at the light line: the propagating side is
mapped to an angle psi with k_z = (omega / c) cos(psi); the evanescent
side uses the decaying scale y = |q| d.  Inner grids are fixed
composite Gauss-Kronrod rules whose density is calibrated once per
pass by a doubling probe at u = 2.5 of every temperature; the
azimuthal truncation is calibrated once per pass by a multipole shell
probe of both kernels.  Both take the largest value any temperature
needs.

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
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import kernels
from .equilibrium import EquilibriumTable
from .materials import CylinderSpec, Vacuum
from .quadrature import (MAX_PANELS, X_MAX, adaptive_vector,
                         composite_nodes, thermal_seed_edges, uniform_edges)
from .tmatrix import FullSolve, ThinExpansion
from .units import C_LIGHT, HBAR, K_BOLTZMANN

# panel edges of the y grid; the order probe's stops at y = 12
_EVAN_EDGES = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0,
               12.0, 18.0, 26.0, 35.0)
# order probe: frequencies in u, and the converged relative shell size
_PROBE_US = (2.5, 7.0, 15.0)
_SERIES_TOL = 1e-6
# axial integrals of each kind (see _inner), and psi panels per unit kd
# of the propagating interaction and pair sums
_SUMS = {"int": ("f", "e"), "pair": ("s",)}
_PER_PANEL = {"f": 10.0, "s": 3.0}
_MAX_GRID_BUMPS = 4
# block entries (rows x orders) of one _inner call in the outer
# integral: a panel's nodes share calls up to this size, which bounds
# the working set of its tables and sums.  At about 150 bytes per entry
# this is the largest budget, in steps of 2,048, that keeps the peak
# RSS of every benchmark workload within 3% of 6,144 entries at 335
# bytes each: +1.0 to +2.2% measured, against +3.3% at 14,336
_MAX_BLOCK_ENTRIES = 12288


_NEAR_FIELD_WARNING = ("separation is below five times the sum of the "
                       "radii; the one-reflection approximation "
                       "degrades at close range")
_ORDER_CAP_WARNING = ("multipole series still changing at the order "
                      "cap; raise n_max for this geometry")
_GRID_CAP_WARNING = ("inner wavenumber grid still changing at the "
                     "refinement cap; results may be less accurate "
                     "than rel_tol")


@dataclass(frozen=True)
class QuadratureControls:
    """Accuracy settings of the force integrals, each checked here.

    rel_tol : relative accuracy target of the frequency integral,
        held per temperature channel: each temperature's channels
        converge as if integrated alone.
    u_min : lower cutoff of u = hbar omega / k_B T, normally 0, per
        temperature channel; the upper cutoff is quadrature.X_MAX = 40.
        Needed for idealized frequency-independent lossy
        permittivities, whose near-field frequency integrand behaves
        like 1/u at u -> 0 and diverges logarithmically; causal
        materials (Im eps -> 0 with frequency) are integrable from 0
        and should leave this alone.  Comparisons between computation
        paths must share one window.
    n_max : azimuthal order cap, 1 to 32 (the order probe's kernel
        tables run to twice the cap); None means 1 for the thin
        provider and 8 for the full one.

    Fixed: 200 outer panels per temperature (quadrature.MAX_PANELS),
    a converged multipole shell of 1e-6 relative, and the evanescent
    grid up to y = |q| d = 35.  The provider decides whether the
    source amplitude keeps its quadratic term.
    """

    rel_tol: float = 1e-4
    u_min: float = 0.0
    n_max: int | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite, got %r"
                             % (self.rel_tol,))
        if not (0.0 <= self.u_min < X_MAX):
            raise ValueError("u_min must satisfy 0 <= u_min < %g, got %r"
                             % (X_MAX, self.u_min))
        if self.n_max is not None and (int(self.n_max) != self.n_max
                                       or not 1 <= self.n_max <= 32):
            raise ValueError("n_max must be an integer from 1 to 32 or "
                             "None, got %r" % (self.n_max,))


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
    rsum = source.radius + target.radius
    if not (separation > 0 and math.isfinite(separation)):
        raise ValueError("separation must be positive and finite")
    if separation <= rsum:
        raise ValueError("cylinders overlap: separation must exceed "
                         "the sum of the radii")
    if separation < 5.0 * rsum:
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


def _blocks(src_prov, tgt_prov, orders, ktz, omega):
    """Source and target blocks at omega (one frequency, or one per ktz
    node), with one provider call when both cylinders are the same."""
    tsrc = src_prov.blocks(orders, ktz, omega)
    same = (type(src_prov) is type(tgt_prov)
            and src_prov.material == tgt_prov.material
            and src_prov.radius == tgt_prov.radius)
    return tsrc, (tsrc if same else tgt_prov.blocks(orders, ktz, omega))


def _prop_vals(kernel, src_prov, amp, ttgt, tables, nu_max, qd):
    """Propagating ('f') or pair ('s') kernel sum per psi row of the
    source amplitude amp on hankel_tables output (hp, h, jp), with the
    quadratic term when src_prov has one, checked finite."""
    hp, h, jp = tables
    if kernel == "f":
        vals = kernels.prop_kernel_sum(amp, ttgt, hp, nu_max,
                                       src_prov.quadratic_term)
        return kernels.require_finite(vals, hp, qd, nu_max, "qd")
    vals = kernels.pair_kernel_sum(amp, ttgt, h, jp, nu_max)
    return kernels.require_finite(vals, h, qd, nu_max, "qd")


def _evan_vals(tsrc, ttgt, kk, nu_max, y):
    """Evanescent kernel sum per y row of +k_z blocks on a K-product
    table of the y grid, checked finite."""
    vals = kernels.evan_kernel_sum(tsrc, ttgt, kk, nu_max)
    return kernels.require_finite(vals, kk, y, nu_max, "y")


def _evan_weights(y, y_wts, kd):
    """Weights y^2 / sqrt(kd^2 + y^2) of the y grid, one row per kd."""
    return y_wts * y * y / np.sqrt(np.square(kd)[..., None] + y * y)


def _evan_tables(factor, orders):
    """Evanescent y-grid (nodes, weights), with every panel of
    _EVAN_EDGES split into factor equal parts, and its K-product table.
    Neither depends on the frequency, so one pass builds them once and
    reuses them at every outer node."""
    edges = [_EVAN_EDGES[0]]
    for lo, hi in zip(_EVAN_EDGES[:-1], _EVAN_EDGES[1:]):
        edges.extend(np.linspace(lo, hi, factor + 1)[1:])
    nodes, wts = composite_nodes(edges)
    return nodes, wts, kernels.k_product_table(nodes, int(orders[-1]) * 2)


def _inner(src_prov, tgt_prov, omegas, d, orders, sums, n_panels, evan):
    """Axial integrals at m frequencies, shape (m, len(sums)): row i
    holds the integrals at omegas[i], one column per entry of sums.

    'f' and 's' are the propagating interaction and pair integrals
    dk_z q * (kernel sum) over |k_z| < omega / c, mapped to psi with
    k_z = k cos(psi) on n_panels[i] uniform panels; 'e' is the
    evanescent interaction integral in the decay variable y = |q| d on
    the tables evan from _evan_tables.

    The block rows are [psi rows of node 0 .. m-1 | y rows of node
    0 .. m-1], with omega given per row: one provider call per
    distinct cylinder covers every node and both branches, one
    hankel_tables call all psi rows, and each kernel sum is one call.
    The psi integrals are segment sums over the ragged per-node grids;
    every node shares the y grid, so its integrals come from an
    (m, ny) reshape and its K-product table serves all nodes untiled.
    The -k_z evanescent blocks are T(k_z) * [[1, -1], [-1, 1]] on both
    cylinders and the sum multiplies their entries pairwise, so the
    -k_z sum is the +k_z sum bitwise and the branch is twice the +k_z
    sum.  The evanescent sum runs before the propagating tables and
    source amplitudes are built, so its working set does not add to
    theirs."""
    omegas = np.asarray(omegas, dtype=float)
    k = omegas / C_LIGHT
    kd = k * d
    nu_max = int(orders[-1]) * 2
    out = np.empty((omegas.size, len(sums)))
    ktz, w_rows = [], []
    n_psi = 0
    if "f" in sums or "s" in sums:
        grids = [_psi_grid(int(n)) for n in n_panels]
        sizes = [g[0].size for g in grids]
        starts = np.cumsum([0] + sizes[:-1])
        n_psi = sum(sizes)
        cos_psi, sin_psi, w_sin2 = (np.concatenate(a) for a in zip(*grids))
        qd = np.repeat(kd, sizes) * sin_psi
        ktz.append(cos_psi)
        w_rows.append(np.repeat(omegas, sizes))
    if "e" in sums:
        y, y_wts, kk = evan
        ktz.append(np.sqrt(1.0 + (y / kd[:, None]) ** 2).ravel())
        w_rows.append(np.repeat(omegas, y.size))
    tsrc, ttgt = _blocks(src_prov, tgt_prov, orders, np.concatenate(ktz),
                         np.concatenate(w_rows))
    if "e" in sums:
        vals = _evan_vals(tsrc[n_psi:], ttgt[n_psi:], kk, nu_max, y)
        out[:, sums.index("e")] = 2.0 / (d * d) * np.sum(
            _evan_weights(y, y_wts, kd) * vals.reshape(-1, y.size), axis=1)
    if n_psi:
        tables = kernels.hankel_tables(qd, nu_max)
        amp = kernels.prop_amplitude(tsrc[:n_psi], src_prov.quadratic_term)
    for col, s in enumerate(sums):
        if s != "e":
            vals = _prop_vals(s, src_prov, amp, ttgt[:n_psi], tables,
                              nu_max, qd)
            out[:, col] = k * k * np.add.reduceat(w_sin2 * vals, starts)
    return out


def _probe_orders(src_prov, tgt_prov, omegas, d, kinds, n_cap):
    """Pick the azimuthal truncation by growing shells on coarse grids
    at a few representative frequencies until the last shell of every
    kernel is negligible: the interaction kernel ('f' with 'e') and the
    pair kernel ('s') each by its own shell test, and the largest order
    any of them needs wins.  Each frequency makes one provider call per
    cylinder at the cap, on the psi and y nodes together, and one
    hankel_tables call; shells read their central orders.  The
    K-product table is built once, and only for the interaction kind."""
    if n_cap <= 1:
        return 1
    cos_psi, sin_psi, w_sin2 = _psi_grid(2)
    n_psi = sin_psi.size
    cap_orders = np.arange(-n_cap, n_cap + 1)
    if "int" in kinds:
        y_nodes, y_wts = composite_nodes(_EVAN_EDGES[:10])
        kk = kernels.k_product_table(y_nodes, 2 * n_cap)
    need = 1
    for omega in omegas:
        kd = omega * d / C_LIGHT
        qd = kd * sin_psi
        ktz = cos_psi
        if "int" in kinds:
            ktz = np.concatenate([ktz, np.sqrt(1.0 + (y_nodes / kd) ** 2)])
        ts, tt = _blocks(src_prov, tgt_prov, cap_orders, ktz, omega)
        if "int" in kinds:
            y_weights = _evan_weights(y_nodes, y_wts, kd)
        hp, h, jp = kernels.hankel_tables(qd, 2 * n_cap)
        pending = [_SUMS[k] for k in kinds]
        prev = {}
        for n_cur in range(1, n_cap + 1):
            lo, hi = n_cap - n_cur, n_cap + n_cur + 1
            nu_cur = 2 * n_cur
            off = 2 * (n_cap - n_cur)
            end = off + 4 * n_cur + 1
            amp = kernels.prop_amplitude(ts[:n_psi, lo:hi],
                                         src_prov.quadratic_term)
            tables = (hp[:, off:end + 1], h[:, off:end], jp[:, off:end])
            for ks in list(pending):
                cur = tuple(
                    float(np.dot(y_weights, _evan_vals(
                        ts[n_psi:, lo:hi], tt[n_psi:, lo:hi],
                        kk[:, off:end], nu_cur, y_nodes)))
                    if s == "e" else
                    float(np.dot(w_sin2, _prop_vals(
                        s, src_prov, amp, tt[:n_psi, lo:hi], tables,
                        nu_cur, qd)))
                    for s in ks)
                if ks in prev:
                    shell = sum(abs(a - b) for a, b in zip(cur, prev[ks]))
                    scale = max(sum(abs(a) for a in cur), 1e-300)
                    if shell <= _SERIES_TOL * scale:
                        need = max(need, n_cur)
                        pending.remove(ks)
                prev[ks] = cur
            if not pending:
                break
        else:
            need = n_cap
            warnings.warn(_ORDER_CAP_WARNING, RuntimeWarning, stacklevel=4)
    return need


def _bump_factor(evaluate, rel_tol):
    """Double a grid-density factor until a probe integral stops
    moving at the 0.2 * rel_tol level."""
    factor = 1
    prev = evaluate(factor)
    rel = 0.0
    for _ in range(_MAX_GRID_BUMPS):
        cur = evaluate(2 * factor)
        scale = max(abs(prev), abs(cur), 1e-300)
        rel = abs(cur - prev) / scale
        if rel <= 0.2 * rel_tol:
            return factor
        factor *= 2
        prev = cur
    if rel > rel_tol:
        warnings.warn(_GRID_CAP_WARNING, RuntimeWarning, stacklevel=5)
    return factor


def _grid_factor(s, src_prov, tgt_prov, omega, d, orders, rel_tol):
    """Grid-density factor that the axial integral s of _inner needs
    at frequency omega: its psi panels per _PER_PANEL[s], or its
    evanescent y-grid, doubled until the integral stops moving."""
    omegas = np.array([omega])
    if s == "e":
        def evaluate(f):
            return _inner(src_prov, tgt_prov, omegas, d, orders, ("e",), (),
                          _evan_tables(f, orders))[0, 0]
    else:
        n_panels = _npanels(omega * d / C_LIGHT, _PER_PANEL[s])

        def evaluate(f):
            return _inner(src_prov, tgt_prov, omegas, d, orders, (s,),
                          (n_panels * f,), None)[0, 0]
    return _bump_factor(evaluate, rel_tol)


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


def _runs(sizes, limit):
    """Split positions 0 .. len(sizes) - 1 into consecutive runs whose
    sizes add up to at most limit; an item larger than limit is a run
    of its own."""
    runs, total = [], 0
    for i, size in enumerate(sizes):
        if not runs or total + size > limit:
            runs.append([])
            total = 0
        runs[-1].append(i)
        total += size
    return runs


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
    grid factors are the largest that any temperature needs.
    """
    sums = sum((_SUMS[k] for k in kinds), ())
    scales = [K_BOLTZMANN * t / HBAR for t in temps]
    n_cap = int(src_prov.max_order or controls.n_max or 8)
    n_use = _probe_orders(src_prov, tgt_prov,
                          sorted({u * s for s in scales for u in _PROBE_US}),
                          d, kinds, n_cap)
    orders = np.arange(-n_use, n_use + 1)

    fac = {s: max(_grid_factor(s, src_prov, tgt_prov, 2.5 * w, d, orders,
                               controls.rel_tol)
                  for w in scales)
           for s in sums}
    evan = _evan_tables(fac["e"], orders) if "e" in sums else None

    def psi_panels(kd):
        return max(_npanels(kd, _PER_PANEL[s]) * fac[s]
                   for s in sums if s != "e")

    # Seed edges: every temperature's thermal seed edges in absolute
    # omega.  The first seed panel [omega_0, omega_1] is integrated in
    # x with omega = x^2 / omega_1, which makes the u^(-1/2) endpoint
    # singularity of a conductor's evanescent channel regular.
    edges = _distinct(u * s for s in scales
                      for u in thermal_seed_edges(controls))
    omega_1 = edges[1]
    x_edges = [math.sqrt(w * omega_1) if w < omega_1 else w for w in edges]

    n_y = evan[0].size if evan else 0

    def integrand(x_nodes):
        first = x_nodes < omega_1
        omegas = np.where(first, x_nodes * x_nodes / omega_1, x_nodes)
        jac = np.where(first, 2.0 * x_nodes / omega_1, 1.0)
        us = omegas[:, None] / np.asarray(scales)
        live = (controls.u_min <= us) & (us <= X_MAX)
        bose = np.expm1(us, where=live, out=np.ones_like(us))
        weights = np.where(live, jac[:, None] / bose, 0.0)
        out = np.zeros((x_nodes.size, len(temps), len(sums)))
        nodes = np.flatnonzero(live.any(axis=1))
        panels = [psi_panels(w * d / C_LIGHT) for w in omegas[nodes]]
        entries = [(_psi_grid(p)[0].size + n_y) * orders.size
                   for p in panels]
        for run in _runs(entries, _MAX_BLOCK_ENTRIES):
            at = nodes[run]
            vals = _inner(src_prov, tgt_prov, omegas[at], d, orders, sums,
                          [panels[r] for r in run], evan)
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


def _scenario_temperatures(scenario):
    """The positive temperatures of a scenario: its own (T1, T2, T_env)
    and every entry of its temperature sets."""
    own = (scenario.cylinder1.temperature, scenario.cylinder2.temperature,
           scenario.environment_temperature)
    return frozenset(float(t) for t in own + sum(
        scenario.temperature_sets or (), ()) if t > 0)


def _force(kind, source, target, temperature, separation, provider,
           controls, memo, scenario_temps):
    """The checks, defaults and memo lookup of interaction_force and
    pair_source_force around one _pass: of both kinds at scenario_temps
    (from total_force or self_force) and this temperature, or else of
    this kind and temperature only.  A memo key names both."""
    if separation is None:
        raise TypeError("separation is required")
    _check_geometry(source, target, separation, stacklevel=5)
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
    if memo is not None and key in memo:
        return memo[key][kind, temp]
    value = _pass(kinds, temps, *provs, separation, controls)
    if memo is not None:
        memo[key] = value
    return value[kind, temp]


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
    if index == 1:
        source, other = scenario.cylinder1, scenario.cylinder2
    else:
        source, other = scenario.cylinder2, scenario.cylinder1
    kw = dict(provider=scenario.provider, controls=scenario.controls,
              _memo={} if _memo is None else _memo,
              _temps=_scenario_temperatures(scenario))
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
    _check_geometry(c1, c2, separation)
    f_eq = 0.0 if scenario.equilibrium is None \
        else scenario.equilibrium.force(separation)
    t1 = c1.temperature
    t2 = c2.temperature
    te = float(scenario.environment_temperature)
    kw = dict(provider=scenario.provider, controls=scenario.controls,
              _memo={} if _memo is None else _memo,
              _temps=_scenario_temperatures(scenario))
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
    rsum = scenario.cylinder1.radius + scenario.cylinder2.radius
    if any(d < 5.0 * rsum for d in scenario.separations):
        warnings.warn(_NEAR_FIELD_WARNING, RuntimeWarning, stacklevel=2)
    memo = {}
    return [total_force(one, d, _memo=memo)
            for one in set_scenarios(scenario)
            for d in scenario.separations]
