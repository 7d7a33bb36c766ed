"""Closed-form thin-cylinder force limits.

For cylinders much thinner than every other scale (separation, thermal
wavelength, skin depth), the source-cylinder force collapses to single
frequency integrals over auxiliary functions of the two permittivities.
Four regimes are covered:

* near field (d much less than the thermal wavelength of the source):
  attractive d^-6 and d^-4 terms weighted by ``g6`` and ``g4``;
* far field (d much greater): a repulsive d^-1 term weighted by ``g1``;
* the low-temperature versions of both, where the permittivity is
  linear in frequency (eps = eps0 + i lambda_in w / c) and the
  frequency integral itself is closed, leaving the real auxiliary
  functions ``f6``, ``f4``, ``f1``.

These forms are an independent oracle for the scattering engine: they
import nothing from engine, tmatrix or kernels, only the material
models and quadrature's bose_integral, which holds the integral
settings.  All forces are per unit length (N/m) on the non-source
cylinder, along the line of centers, negative meaning attraction.
"""

import math
import warnings

import numpy as np

from .materials import eps_function, thermal_wavelength
from .quadrature import bose_integral
from .units import C_LIGHT, HBAR

# Scale-separation factor below which a regime precondition counts as
# violated.  The closed forms are leading-order, so "much less than"
# is graded, not sharp; 5 flags clearly marginal uses without drowning
# legitimate ones in warnings.
_MARGIN = 5.0


def _warn_outside_regime(regime, radius1, radius2, separation,
                         source_temperature, material_scales=()):
    """Warn once if a closed form is used outside its regime, naming
    every violated precondition: thin cylinders; d on the near or far
    side (the regime name's prefix) of the source thermal wavelength,
    which in the far field must also dwarf the radii; and for the
    low-temperature forms a thermal wavelength much longer than each
    of material_scales (m)."""
    out = []
    r_max = max(radius1, radius2)
    if separation < _MARGIN * r_max:
        out.append("separation %.3g m is not much larger than the "
                   "cylinder radius %.3g m" % (separation, r_max))
    if source_temperature > 0:
        lam_t = thermal_wavelength(source_temperature)
        if regime.startswith("near"):
            if separation > lam_t / _MARGIN:
                out.append("separation %.3g m is not much smaller "
                           "than the thermal wavelength %.3g m"
                           % (separation, lam_t))
        else:
            if separation < _MARGIN * lam_t:
                out.append("separation %.3g m is not much larger "
                           "than the thermal wavelength %.3g m"
                           % (separation, lam_t))
            if lam_t < _MARGIN * r_max:
                out.append("thermal wavelength %.3g m is not much "
                           "larger than the radius %.3g m"
                           % (lam_t, r_max))
        for lam0 in material_scales:
            if lam_t < _MARGIN * lam0:
                out.append("thermal wavelength %.3g m is not much "
                           "larger than the material scale %.3g m"
                           % (lam_t, lam0))
    if out:
        warnings.warn("closed-form %s evaluation outside its regime: %s"
                      % (regime, "; ".join(out)), stacklevel=3)


def _check_not_surface_pole(eps, name):
    e = np.asarray(eps, dtype=complex)
    if np.any(np.abs(e + 1.0) == 0.0):
        raise ValueError("%s = -1 sits on the surface-mode pole; the "
                         "auxiliary functions diverge there" % (name,))
    return e


def g6(eps1, eps2):
    """d^-6 near-field auxiliary function of the two permittivities.

    Negative for ordinary lossy dielectrics (attraction).  Accepts
    scalars or broadcastable arrays; returns real values.
    """
    e1 = _check_not_surface_pole(eps1, "eps1")
    e2 = _check_not_surface_pole(eps2, "eps2")
    im_part = (1.0 / (e2 + 1.0)).imag
    a1 = np.abs(e1 + 1.0) ** 2
    re1 = e1.real
    bracket = ((np.abs(e1) ** 2 - 1.0)
               * (4.0 * (33.0 + 5.0 * re1)
                  + (7.0 + 3.0 * re1) * np.abs(e2 + 1.0) ** 2)
               + (re1 ** 2 - 1.0)
               * (40.0 + 6.0 * np.abs(e2 + 1.0) ** 2))
    out = (45.0 / 2048.0) * im_part / a1 * bracket
    return out[()] if np.ndim(out) == 0 else out


def g4(eps1, eps2):
    """d^-4 near-field auxiliary function; same conventions as g6."""
    e1 = _check_not_surface_pole(eps1, "eps1")
    e2 = _check_not_surface_pole(eps2, "eps2")
    im_part = (1.0 / (e2 + 1.0)).imag
    a1 = np.abs(e1 + 1.0) ** 2
    a2 = np.abs(e2 + 1.0) ** 2
    re1 = e1.real
    bracket = (e1.imag ** 2 * (a2 * (7.0 - re1) + 12.0 * re1 + 76.0)
               + (re1 ** 2 - 1.0)
               * (a2 * (5.0 - re1) + 12.0 * re1 + 100.0))
    out = (3.0 / 256.0) * im_part / a1 * bracket
    return out[()] if np.ndim(out) == 0 else out


def g1(eps1, eps2):
    """d^-1 far-field auxiliary function, symmetric in its arguments.

    Nonnegative for passive media: the far interaction is repulsive.
    """
    e1 = _check_not_surface_pole(eps1, "eps1")
    e2 = _check_not_surface_pole(eps2, "eps2")
    a1 = np.abs(e1 + 1.0) ** 2
    a2 = np.abs(e2 + 1.0) ** 2
    out = (2.0 / (15.0 * math.pi)
           * (1.0 / (e1 + 1.0)).imag * (1.0 / (e2 + 1.0)).imag
           * (a1 * a2 + a1 + a2 + 36.0))
    return out[()] if np.ndim(out) == 0 else out


def _check_static(eps0, name):
    e = np.asarray(eps0, dtype=float)
    if np.any(e <= 0.0):
        raise ValueError("%s must be a positive static permittivity"
                         % (name,))
    if np.any(e == -1.0):
        raise ValueError("%s = -1 sits on the surface-mode pole"
                         % (name,))
    return e


def f6(eps01, eps02):
    """Low-temperature d^-6 auxiliary function of static permittivities."""
    e1 = _check_static(eps01, "eps01")
    e2 = _check_static(eps02, "eps02")
    num = (e1 - 1.0) * (172.0 + (13.0 + 3.0 * e1) * (e2 + 1.0) ** 2
                        + 20.0 * e1)
    out = (15.0 * math.pi ** 2 / 4096.0) * num / ((e1 + 1.0)
                                                  * (e2 + 1.0) ** 2)
    return out[()] if np.ndim(out) == 0 else out


def f4(eps01, eps02):
    """Low-temperature d^-4 auxiliary function of static permittivities."""
    e1 = _check_static(eps01, "eps01")
    e2 = _check_static(eps02, "eps02")
    out = (math.pi ** 4 * (e1 - 1.0) / (1280.0 * (e1 + 1.0))
           * ((12.0 * e1 + 100.0) / (e2 + 1.0) ** 2 - e1 + 5.0))
    return out[()] if np.ndim(out) == 0 else out


def f1(eps01, eps02):
    """Low-temperature d^-1 auxiliary function, symmetric and positive."""
    e1 = _check_static(eps01, "eps01")
    e2 = _check_static(eps02, "eps02")
    p1 = (e1 + 1.0) ** 2
    p2 = (e2 + 1.0) ** 2
    out = (16.0 * math.pi ** 7 / 225.0) * (p1 + p2 + p1 * p2
                                           + 36.0) / (p1 * p2)
    return out[()] if np.ndim(out) == 0 else out


def interaction_near(radius1, radius2, material1, material2,
                     source_temperature, separation, *, controls=None):
    """Near-field thin-cylinder force per length from source 2 on 1.

    Evaluates hbar * integral of the Bose factor at the source
    temperature against R1^2 R2^2 (g6 / d^6 + w^2 g4 / (c^2 d^4)).
    Negative values mean attraction toward the source.  Emits a
    warning when the geometry strays outside the regime (thin
    cylinders, d much below the source thermal wavelength).
    """
    eps1 = eps_function(material1)
    eps2 = eps_function(material2)
    _warn_outside_regime("near_field", radius1, radius2, separation,
                         source_temperature)

    def weight(w):
        e1 = eps1(w)
        e2 = eps2(w)
        return (g6(e1, e2) / separation ** 6
                + w ** 2 * g4(e1, e2) / (C_LIGHT ** 2 * separation ** 4))

    value = HBAR * bose_integral(weight, source_temperature, controls)
    return radius1 ** 2 * radius2 ** 2 * value


def interaction_far(radius1, radius2, material1, material2,
                    source_temperature, separation, *, controls=None):
    """Far-field thin-cylinder force per length from source 2 on 1.

    hbar * integral of Bose * w^5 R1^2 R2^2 g1 / (c^5 d); strictly
    repulsive (positive) for passive media.  Warns outside the regime
    (d much above the source thermal wavelength, thin cylinders).
    """
    eps1 = eps_function(material1)
    eps2 = eps_function(material2)
    _warn_outside_regime("far_field", radius1, radius2, separation,
                         source_temperature)

    def weight(w):
        return w ** 5 * g1(eps1(w), eps2(w)) / C_LIGHT ** 5

    value = HBAR * bose_integral(weight, source_temperature, controls)
    return radius1 ** 2 * radius2 ** 2 * value / separation


def interaction_near_lowT(radius1, radius2, eps01, eps02, lambda_in1,
                          lambda_in2, source_temperature, separation):
    """Closed low-temperature near-field force per length.

    Valid when the source thermal wavelength dwarfs every material
    scale and eps_j(w) = eps0_j + i lambda_in_j w / c.  Attractive
    (negative) for ordinary dielectrics; vanishes when the source side
    has no absorption (lambda_in2 = 0).
    """
    _warn_outside_regime("near_field_low_t", radius1, radius2, separation,
                         source_temperature, (lambda_in1, lambda_in2))
    if source_temperature == 0.0:
        return 0.0
    lam_t = thermal_wavelength(source_temperature)
    rr = radius1 ** 2 * radius2 ** 2
    return (-HBAR * C_LIGHT * lambda_in2 * rr * f6(eps01, eps02)
            / (lam_t ** 2 * separation ** 6)
            - HBAR * C_LIGHT * lambda_in2 * rr * f4(eps01, eps02)
            / (lam_t ** 4 * separation ** 4))


def interaction_far_lowT(radius1, radius2, eps01, eps02, lambda_in1,
                         lambda_in2, source_temperature, separation):
    """Closed low-temperature far-field force per length (repulsive)."""
    _warn_outside_regime("far_field_low_t", radius1, radius2, separation,
                         source_temperature, (lambda_in1, lambda_in2))
    if source_temperature == 0.0:
        return 0.0
    lam_t = thermal_wavelength(source_temperature)
    rr = radius1 ** 2 * radius2 ** 2
    return (HBAR * C_LIGHT * lambda_in1 * lambda_in2 * rr
            * f1(eps01, eps02) / (lam_t ** 8 * separation))
