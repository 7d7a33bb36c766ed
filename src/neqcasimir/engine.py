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

Frequency integrals substitute u = hbar omega / (k_B T) of the driving
temperature and truncate at controls.x_max.  The axial integral is
split at the light line: the propagating side is mapped to an angle
psi with k_z = (omega / c) cos(psi); the evanescent side uses the
decaying scale y = |q| d.  Inner grids are fixed composite
Gauss-Kronrod rules whose density is calibrated once per integral by a
doubling probe; the azimuthal truncation is calibrated by a multipole
shell probe.  The outer frequency integral is globally adaptive with
one error channel per light-line branch.

Identical inputs produce bitwise identical outputs: panel sums are
accumulated in a fixed order, and repeated sub-integrals inside one
sweep are memoized, so equal-temperature differences cancel exactly.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .equilibrium import EquilibriumTable
from .materials import CylinderSpec, Vacuum
from .quadrature import (adaptive_vector, composite_nodes,
                         thermal_seed_edges, uniform_edges)
from .tmatrix import FullSolve, ThinExpansion
from .units import C_LIGHT, HBAR, K_BOLTZMANN

_EVAN_EDGES = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0,
               12.0, 18.0, 26.0, 35.0)
_PROBE_US = (2.5, 7.0, 15.0)
_MAX_GRID_BUMPS = 4
# blocks(-ktilde_z) = blocks(ktilde_z) * _KZ_FLIP (see tmatrix)
_KZ_FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])


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
    """Tunable accuracy knobs for the force integrals.

    rel_tol : relative accuracy target of the frequency integral.
    x_max : upper cutoff of the substituted variable
        u = hbar omega / k_B T; exp(-40) leaves no visible tail.
    u_min : lower cutoff of the same variable, normally 0.  Needed for
        idealized frequency-independent lossy permittivities, whose
        near-field frequency integrand behaves like 1/u at u -> 0 and
        diverges logarithmically; causal materials (Im eps -> 0 with
        frequency) are integrable from 0 and should leave this alone.
        Comparisons between computation paths must share one window.
    n_max : azimuthal order cap; None means 1 for the thin provider
        and 8 for the full one.
    series_tol : relative shell size at which the multipole series
        counts as converged.
    y_cut : upper cutoff of the evanescent decay variable y = |q| d.
    max_panels : outer adaptive panel budget before giving up.
    kz_symmetry : exploit the exact evenness in k_z of the kernel sums
        and integrate half the axial range.  Off by default so that
        evenness stays a testable property instead of an assumption.
        Either way the -k_z evanescent blocks come from the exact
        block parity T(-k_z) = T(k_z) * [[1, -1], [-1, 1]], which the
        tmatrix tests check bitwise; only the kernel sum over both
        branches depends on this flag.
    include_quadratic : force the quadratic part of the source
        amplitude on or off; None defers to the provider default
        (off for thin, on for full).
    """

    rel_tol: float = 1e-4
    x_max: float = 40.0
    u_min: float = 0.0
    n_max: int | None = None
    series_tol: float = 1e-6
    y_cut: float = 35.0
    max_panels: int = 200
    kz_symmetry: bool = False
    include_quadratic: bool | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        if not (self.x_max > 0 and math.isfinite(self.x_max)):
            raise ValueError("x_max must be positive and finite")
        if not (0.0 <= self.u_min < self.x_max):
            raise ValueError("u_min must satisfy 0 <= u_min < x_max")
        if self.n_max is not None and (int(self.n_max) != self.n_max
                                       or self.n_max < 1):
            raise ValueError("n_max must be a positive integer or None")
        if not (self.series_tol > 0):
            raise ValueError("series_tol must be positive")
        if not (self.y_cut > 0 and math.isfinite(self.y_cut)):
            raise ValueError("y_cut must be positive and finite")
        if self.max_panels < 8:
            raise ValueError("max_panels must be at least 8")


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
    include_quadratic: bool | None = None
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
            raise ValueError("provider must be 'thin' or 'full'")
        if self.environment_temperature < 0:
            raise ValueError("environment temperature must be >= 0")
        if self.temperature_sets is not None:
            sets = tuple(tuple(float(t) for t in s)
                         for s in self.temperature_sets)
            if any(len(s) != 3 or min(s) < 0 for s in sets):
                raise ValueError("temperature sets must be (T1, T2, "
                                 "T_env) with nonnegative entries")
            self.temperature_sets = sets


def _make_provider(provider, spec):
    if provider == "thin":
        return ThinExpansion(spec.material, spec.radius)
    if provider == "full":
        return FullSolve(spec.material, spec.radius)
    raise ValueError("provider must be 'thin' or 'full'")


def _resolve_quadratic(arg, controls, provider):
    if arg is not None:
        return bool(arg)
    if controls.include_quadratic is not None:
        return bool(controls.include_quadratic)
    return provider == "full"


def _resolve_n_cap(controls, provider):
    if controls.n_max is not None:
        return int(controls.n_max)
    return 1 if provider == "thin" else 8


def _check_geometry(source, target, separation):
    rsum = source.radius + target.radius
    if not (separation > 0 and math.isfinite(separation)):
        raise ValueError("separation must be positive and finite")
    if separation <= rsum:
        raise ValueError("cylinders overlap: separation must exceed "
                         "the sum of the radii")
    if separation < 5.0 * rsum:
        warnings.warn(_NEAR_FIELD_WARNING, RuntimeWarning, stacklevel=3)


def _same_provider(a, b):
    return (type(a) is type(b) and a.material == b.material
            and a.radius == b.radius)


def _npanels_f(kd):
    return max(4, int(math.ceil(kd / 10.0)))


def _npanels_s(kd):
    return max(4, int(math.ceil(kd / 3.0)))


def _evan_grid(y_cut, factor):
    base = [e for e in _EVAN_EDGES if e < y_cut] + [y_cut]
    if factor > 1:
        refined = [base[0]]
        for lo, hi in zip(base[:-1], base[1:]):
            refined.extend(np.linspace(lo, hi, factor + 1)[1:])
        base = refined
    return composite_nodes(np.asarray(base, dtype=float))


def _inner_prop(src_prov, tgt_prov, omega, d, orders, controls,
                include_quad, kernel, n_panels):
    """Axial integral over the propagating branch at one frequency.

    Returns integral dk_z q * (kernel sum) over |k_z| < omega / c,
    mapped to psi with k_z = k cos(psi)."""
    k = omega / C_LIGHT
    kd = k * d
    if controls.kz_symmetry:
        n_panels = max(2, (n_panels + 1) // 2)
        hi = 0.5 * math.pi
    else:
        hi = math.pi
    nodes, wts = composite_nodes(uniform_edges(0.0, hi, n_panels))
    sin_psi = np.sin(nodes)
    ktz = np.cos(nodes)
    qd = kd * sin_psi
    nu_max = int(orders[-1]) * 2
    tsrc = src_prov.blocks(orders, ktz, omega)
    ttgt = tsrc if _same_provider(src_prov, tgt_prov) \
        else tgt_prov.blocks(orders, ktz, omega)
    hp, h, jp = kernels.hankel_tables(qd, nu_max)
    amp = kernels.prop_amplitude(tsrc, include_quad)
    if kernel == "f":
        vals = kernels.prop_kernel_sum(amp, ttgt, hp, nu_max, include_quad)
        vals = kernels.require_finite(vals, hp, qd, nu_max, "qd")
    else:
        vals = kernels.pair_kernel_sum(amp, ttgt, h, jp, nu_max)
        vals = kernels.require_finite(vals, h, qd, nu_max, "qd")
    total = k * k * float(np.dot(wts, sin_psi * sin_psi * vals))
    if controls.kz_symmetry:
        total *= 2.0
    return total


def _evan_tables(controls, factor, orders):
    """Evanescent y-grid (nodes, weights) at a grid-density factor and
    its K-product table.  Neither depends on the frequency, so one
    integral builds them once and reuses them at every outer node."""
    nodes, wts = _evan_grid(controls.y_cut, factor)
    return nodes, wts, kernels.k_product_table(nodes, int(orders[-1]) * 2)


def _inner_evan(src_prov, tgt_prov, omega, d, orders, controls, tables):
    """Axial integral over the evanescent branch at one frequency,
    in the decay variable y = |q| d, on tables from _evan_tables."""
    kd = omega * d / C_LIGHT
    nodes, wts, kk = tables
    ktz = np.sqrt(1.0 + (nodes / kd) ** 2)
    nu_max = int(orders[-1]) * 2
    tsrc = src_prov.blocks(orders, ktz, omega)
    ttgt = tsrc if _same_provider(src_prov, tgt_prov) \
        else tgt_prov.blocks(orders, ktz, omega)
    vals = kernels.evan_kernel_sum(tsrc, ttgt, kk, nu_max)
    if controls.kz_symmetry:
        vals = 2.0 * vals
    else:
        # the -k_z blocks by the exact k_z parity of every provider
        vals = vals + kernels.evan_kernel_sum(
            tsrc * _KZ_FLIP, ttgt * _KZ_FLIP, kk, nu_max)
    vals = kernels.require_finite(vals, kk, nodes, nu_max, "y")
    measure = nodes * nodes / np.sqrt(kd * kd + nodes * nodes)
    return float(np.dot(wts, measure * vals)) / (d * d)


def _probe_orders(src_prov, tgt_prov, omega_scale, d, controls,
                  include_quad, kind, n_cap):
    """Pick the azimuthal truncation by growing shells on coarse grids
    at a few representative frequencies until the last shell is
    negligible."""
    if n_cap <= 1:
        return 1
    probe_us = [u for u in _PROBE_US if u <= 0.9 * controls.x_max]
    if not probe_us:
        probe_us = [0.5 * controls.x_max]
    need = 1
    for u in probe_us:
        omega = u * omega_scale
        kd = omega * d / C_LIGHT
        prop_grid = composite_nodes(uniform_edges(0.0, math.pi, 2))
        nodes, wts = prop_grid
        sin_psi = np.sin(nodes)
        ktz_p = np.cos(nodes)
        qd = kd * sin_psi
        y_nodes, y_wts = _evan_grid(min(12.0, controls.y_cut), 1)
        ktz_e = np.sqrt(1.0 + (y_nodes / kd) ** 2)
        cap_orders = np.arange(-n_cap, n_cap + 1)
        ts_p = src_prov.blocks(cap_orders, ktz_p, omega)
        tt_p = ts_p if _same_provider(src_prov, tgt_prov) \
            else tgt_prov.blocks(cap_orders, ktz_p, omega)
        ts_e = src_prov.blocks(cap_orders, ktz_e, omega)
        tt_e = ts_e if _same_provider(src_prov, tgt_prov) \
            else tgt_prov.blocks(cap_orders, ktz_e, omega)
        hp, h, jp = kernels.hankel_tables(qd, 2 * n_cap)
        kk = kernels.k_product_table(y_nodes, 2 * n_cap)
        meas_e = y_nodes * y_nodes / np.sqrt(kd * kd + y_nodes ** 2)
        prev = None
        converged = False
        for n_cur in range(1, n_cap + 1):
            lo, hi = n_cap - n_cur, n_cap + n_cur + 1
            nu_cur = 2 * n_cur
            off = 2 * (n_cap - n_cur)
            hp_c = hp[:, off: off + 4 * n_cur + 2]
            kk_c = kk[:, off: off + 4 * n_cur + 1]
            h_c = h[:, off: off + 4 * n_cur + 1]
            jp_c = jp[:, off: off + 4 * n_cur + 1]
            if kind == "int":
                amp = kernels.prop_amplitude(ts_p[:, lo:hi], include_quad)
                fsum = kernels.require_finite(
                    kernels.prop_kernel_sum(amp, tt_p[:, lo:hi], hp_c,
                                            nu_cur, include_quad),
                    hp_c, qd, nu_cur, "qd")
                ip = float(np.dot(wts, sin_psi ** 2 * fsum))
                esum = kernels.require_finite(
                    kernels.evan_kernel_sum(ts_e[:, lo:hi], tt_e[:, lo:hi],
                                            kk_c, nu_cur),
                    kk_c, y_nodes, nu_cur, "y")
                ie = float(np.dot(y_wts, meas_e * esum))
                cur = (ip, ie)
            else:
                amp = kernels.prop_amplitude(ts_p[:, lo:hi], include_quad)
                ssum = kernels.require_finite(
                    kernels.pair_kernel_sum(amp, tt_p[:, lo:hi], h_c, jp_c,
                                            nu_cur),
                    h_c, qd, nu_cur, "qd")
                cur = (float(np.dot(wts, sin_psi ** 2 * ssum)),)
            if prev is not None:
                shell = sum(abs(a - b) for a, b in zip(cur, prev))
                scale = max(sum(abs(a) for a in cur), 1e-300)
                if shell <= controls.series_tol * scale:
                    need = max(need, n_cur)
                    converged = True
                    break
            prev = cur
        if not converged:
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
        warnings.warn(_GRID_CAP_WARNING, RuntimeWarning, stacklevel=4)
    return factor


def _int_core(src_prov, tgt_prov, temperature, d, controls, include_quad):
    """Interaction force channels (propagating, evanescent) on the
    target cylinder from thermal sources in the source cylinder, on
    the axis running source -> target.  Negative means attraction."""
    if temperature == 0 or isinstance(src_prov.material, Vacuum) \
            or isinstance(tgt_prov.material, Vacuum):
        return 0.0, 0.0
    omega_scale = K_BOLTZMANN * temperature / HBAR
    n_cap = src_prov.max_order if src_prov.max_order is not None \
        else _resolve_n_cap(controls, "full")
    n_use = _probe_orders(src_prov, tgt_prov, omega_scale, d, controls,
                          include_quad, "int", min(n_cap, 64 // 2))
    orders = np.arange(-n_use, n_use + 1)

    u_star = min(2.5, 0.5 * controls.x_max)
    omega_star = u_star * omega_scale
    kd_star = omega_star * d / C_LIGHT

    fac_p = _bump_factor(
        lambda f: _inner_prop(src_prov, tgt_prov, omega_star, d, orders,
                              controls, include_quad, "f",
                              _npanels_f(kd_star) * f),
        controls.rel_tol)
    fac_e = _bump_factor(
        lambda f: _inner_evan(src_prov, tgt_prov, omega_star, d, orders,
                              controls, _evan_tables(controls, f, orders)),
        controls.rel_tol)
    evan = _evan_tables(controls, fac_e, orders)

    def integrand(u_nodes):
        out = np.empty((u_nodes.shape[0], 2))
        for i, u in enumerate(u_nodes):
            omega = u * omega_scale
            kd = omega * d / C_LIGHT
            nb = 1.0 / math.expm1(u)
            ip = _inner_prop(src_prov, tgt_prov, omega, d, orders,
                             controls, include_quad, "f",
                             _npanels_f(kd) * fac_p)
            ie = _inner_evan(src_prov, tgt_prov, omega, d, orders,
                             controls, evan)
            out[i, 0] = nb * ip
            out[i, 1] = nb * ie
        return out

    vals, _ = adaptive_vector(integrand, controls.u_min, controls.x_max,
                              controls.rel_tol,
                              seed_edges=thermal_seed_edges(controls),
                              max_panels=controls.max_panels)
    pref = K_BOLTZMANN * temperature / (2.0 * math.pi ** 2)
    return -pref * float(vals[0]), pref * float(vals[1])


def _pair_core(src_prov, oth_prov, temperature, d, controls, include_quad):
    """Force on the rigid pair from thermal sources in the source
    cylinder, on the axis running other -> source.  Only propagating
    modes carry momentum to infinity; the evanescent part vanishes."""
    if temperature == 0 or isinstance(src_prov.material, Vacuum) \
            or isinstance(oth_prov.material, Vacuum):
        return 0.0
    omega_scale = K_BOLTZMANN * temperature / HBAR
    n_cap = src_prov.max_order if src_prov.max_order is not None \
        else _resolve_n_cap(controls, "full")
    n_use = _probe_orders(src_prov, oth_prov, omega_scale, d, controls,
                          include_quad, "pair", min(n_cap, 64 // 2))
    orders = np.arange(-n_use, n_use + 1)

    u_star = min(2.5, 0.5 * controls.x_max)
    omega_star = u_star * omega_scale
    kd_star = omega_star * d / C_LIGHT
    fac_s = _bump_factor(
        lambda f: _inner_prop(src_prov, oth_prov, omega_star, d, orders,
                              controls, include_quad, "s",
                              _npanels_s(kd_star) * f),
        controls.rel_tol)

    def integrand(u_nodes):
        out = np.empty((u_nodes.shape[0], 1))
        for i, u in enumerate(u_nodes):
            omega = u * omega_scale
            kd = omega * d / C_LIGHT
            nb = 1.0 / math.expm1(u)
            out[i, 0] = nb * _inner_prop(src_prov, oth_prov, omega, d,
                                         orders, controls, include_quad,
                                         "s", _npanels_s(kd) * fac_s)
        return out

    vals, _ = adaptive_vector(integrand, controls.u_min, controls.x_max,
                              controls.rel_tol,
                              seed_edges=thermal_seed_edges(controls),
                              max_panels=controls.max_panels)
    pref = K_BOLTZMANN * temperature / (2.0 * math.pi ** 2)
    return pref * float(vals[0])


def _memo_call(memo, key, compute):
    if memo is not None and key in memo:
        return memo[key]
    value = compute()
    if memo is not None:
        memo[key] = value
    return value


def interaction_force(source, target, temperature=None, separation=None,
                      *, provider="thin", controls=None,
                      include_quadratic=None, _memo=None):
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
    if separation is None:
        raise TypeError("separation is required")
    _check_geometry(source, target, separation)
    controls = controls if controls is not None else QuadratureControls()
    temp = source.temperature if temperature is None else float(temperature)
    if temp < 0:
        raise ValueError("temperature must be >= 0")
    inc = _resolve_quadratic(include_quadratic, controls, provider)
    key = ("int", provider, source.material, source.radius,
           target.material, target.radius, temp, separation, controls, inc)
    src_prov = _make_provider(provider, source)
    tgt_prov = _make_provider(provider, target)
    prop, evan = _memo_call(
        _memo, key,
        lambda: _int_core(src_prov, tgt_prov, temp, separation,
                          controls, inc))
    return prop + evan, {"propagating": prop, "evanescent": evan}


def pair_source_force(source, other, temperature=None, separation=None,
                      *, provider="thin", controls=None,
                      include_quadratic=None, _memo=None):
    """Force per length on the rigid two-cylinder pair from thermal
    sources in the source cylinder, on the axis from other to source.
    Only propagating modes contribute."""
    if separation is None:
        raise TypeError("separation is required")
    _check_geometry(source, other, separation)
    controls = controls if controls is not None else QuadratureControls()
    temp = source.temperature if temperature is None else float(temperature)
    if temp < 0:
        raise ValueError("temperature must be >= 0")
    inc = _resolve_quadratic(include_quadratic, controls, provider)
    key = ("pair", provider, source.material, source.radius,
           other.material, other.radius, temp, separation, controls, inc)
    src_prov = _make_provider(provider, source)
    oth_prov = _make_provider(provider, other)
    return _memo_call(
        _memo, key,
        lambda: _pair_core(src_prov, oth_prov, temp, separation,
                           controls, inc))


def _self_force(source, other, temperature, separation, *, provider,
                controls, include_quadratic, _memo):
    """Net self-force on the source cylinder along other -> source:
    the pair force minus the axis-reflected force on the other
    cylinder, which turns into a plain sum of the two integrals."""
    pair = pair_source_force(source, other, temperature, separation,
                             provider=provider, controls=controls,
                             include_quadratic=include_quadratic,
                             _memo=_memo)
    onto_other, _ = interaction_force(source, other, temperature,
                                      separation, provider=provider,
                                      controls=controls,
                                      include_quadratic=include_quadratic,
                                      _memo=_memo)
    return pair + onto_other


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
    return _self_force(source, other, temperature, separation,
                       provider=scenario.provider,
                       controls=scenario.controls,
                       include_quadratic=scenario.include_quadratic,
                       _memo=_memo)


def total_force(scenario, separation, f_eq=None, *, _memo=None):
    """Full nonequilibrium force breakdown at one separation.

    Combines the equilibrium force at the environment temperature
    (given directly as f_eq, or interpolated from the scenario's
    ingested table, defaulting to zero) with temperature-difference
    corrections built from the interaction and self-force integrals.
    Returns a ForceBreakdown.
    """
    c1, c2 = scenario.cylinder1, scenario.cylinder2
    _check_geometry(c1, c2, separation)
    memo = {} if _memo is None else _memo
    if f_eq is None:
        table = scenario.equilibrium if scenario.equilibrium is not None \
            else EquilibriumTable.zero()
        f_eq = table.force(separation)
    t1 = c1.temperature
    t2 = c2.temperature
    te = float(scenario.environment_temperature)
    kw = dict(provider=scenario.provider, controls=scenario.controls,
              include_quadratic=scenario.include_quadratic, _memo=memo)

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


def sweep(scenario, d_grid=None, controls=None):
    """Evaluate a scenario over all its temperature sets and
    separations.  Returns a list of ForceBreakdown rows in file order:
    temperature sets outermost, separations innermost.  Sub-integrals
    are memoized across the whole sweep, so rows sharing a temperature
    and separation reuse bitwise-identical values."""
    memo = {}
    rows = []
    if scenario.temperature_sets is not None:
        sets = scenario.temperature_sets
    else:
        sets = ((scenario.cylinder1.temperature,
                 scenario.cylinder2.temperature,
                 scenario.environment_temperature),)
    seps = scenario.separations if d_grid is None \
        else tuple(float(d) for d in np.atleast_1d(d_grid))
    base = scenario if controls is None else replace(scenario,
                                                     controls=controls)
    rsum = scenario.cylinder1.radius + scenario.cylinder2.radius
    if any(d < 5.0 * rsum for d in seps):
        warnings.warn(_NEAR_FIELD_WARNING, RuntimeWarning, stacklevel=2)
    for t1, t2, te in sets:
        one = replace(
            base,
            cylinder1=replace(base.cylinder1, temperature=t1),
            cylinder2=replace(base.cylinder2, temperature=t2),
            environment_temperature=te)
        for d in seps:
            rows.append(total_force(one, d, _memo=memo))
    return rows
