"""Dilute-limit cross-check built from sphere pair forces.

When both permittivities are close to 1, the force between two volume
elements held at different temperatures has a closed form, and the
cylinder-cylinder force per length follows by summing that sphere pair
force over the two cylinder volumes, in closed form along the axes.
This composition is a path to the interaction force that is
independent of both the scattering engine and the thin-cylinder
closed forms (it imports nothing from engine, tmatrix, kernels or
asymptotics, only the material models and quadrature): the three must
agree in their common regime, which is the backbone cross-validation
of the package.

Sign conventions follow the rest of the package: the returned value is
the force on body 1 along the line of centers with positive pointing
away from body 2, so negative means attraction.  The source is body 2
at ``source_temperature``; body 1 and the environment are cold.

The d^-3 sphere term, (Re eps1 - 1) Im eps2 omega^4 / (c^4 s^3), is the
gradient of the radiation-zone omega^4/s^2 part of the source's field
intensity; its d^-7 : d^-5 : d^-3 weights 9 : 2 : 1 are exactly the
gradient of |E|^2 ~ k^4/r^2 + k^2/r^4 + 3/r^6.  Summed over the
cylinders it gives a physical d^-2 force per length, the intensity
gradient of the outgoing cylindrical wave, and the scattering engine
contains it.  It is subleading in both the near (d^-6) and the far
(d^-1) regime, so the leading-order closed forms of
``dilute_closed_forms`` omit it; ``excluded_d2_term`` returns it, and
it is added back to the closed forms whenever they are compared with
the engine or with the full four-term summation.
"""

import math
import warnings

import numpy as np

from .materials import eps_function
from .quadrature import bose_integral
from .units import C_LIGHT, HBAR, K_BOLTZMANN

_ALL_TERMS = ("d2", "d3", "d5", "d7")


def _check_terms(terms):
    terms = tuple(terms)
    for term in terms:
        if term not in _ALL_TERMS:
            raise ValueError("unknown sphere force term %r; expected a "
                             "subset of %r" % (term, _ALL_TERMS))
    return terms


def _warn_if_not_dilute(eps1, eps2, source_temperature):
    if source_temperature <= 0:
        return
    scale = K_BOLTZMANN * source_temperature / HBAR
    probe = scale * np.array([1.0, 3.0])
    worst = max(float(np.max(np.abs(np.asarray(fn(probe)) - 1.0)))
                for fn in (eps1, eps2))
    if worst > 0.1:
        warnings.warn("permittivity departs from 1 by %.3g at thermal "
                      "frequencies; the dilute expansion is unreliable "
                      "there" % (worst,), stacklevel=3)


def _sphere_weight(omega, eps1, eps2, separation, scale):
    """Frequency weight of the sphere pair force per unit V1 V2, of the
    terms in scale, each times scale[term].

    Returns the integrand of the Bose integral such that
    F_sphere / (V1 V2) = hbar/(4 pi^3 c^7) * integral(weight * n_B).
    """
    w = np.asarray(omega, dtype=float)
    e1 = np.asarray(eps1(w), dtype=complex)
    e2 = np.asarray(eps2(w), dtype=complex)
    s = separation
    out = np.zeros_like(w)
    if "d2" in scale:
        out = out + scale["d2"] * w ** 5 * C_LIGHT ** 2 / s ** 2 * e1.imag
    attract = np.zeros_like(w)
    if "d3" in scale:
        attract = attract + scale["d3"] * w ** 4 * C_LIGHT ** 3 / s ** 3
    if "d5" in scale:
        attract = attract + scale["d5"] * 2.0 * w ** 2 * C_LIGHT ** 5 / s ** 5
    if "d7" in scale:
        attract = attract + scale["d7"] * 9.0 * C_LIGHT ** 7 / s ** 7
    out = out - (e1.real - 1.0) * attract
    return e2.imag * out


def sphere_pair_force(volume1, volume2, material1, material2,
                      source_temperature, separation, *,
                      terms=_ALL_TERMS, controls=None):
    """Force in N between two dilute volume elements, source in 2.

    Positive values push element 1 away from element 2.  The force is
    bilinear in the two volumes.  ``terms`` selects which inverse
    separation powers of the expansion to keep (all four by default).
    """
    if volume1 <= 0 or volume2 <= 0:
        raise ValueError("volumes must be positive")
    if separation <= 0:
        raise ValueError("separation must be positive")
    scale = dict.fromkeys(_check_terms(terms), 1.0)
    eps1 = eps_function(material1)
    eps2 = eps_function(material2)
    _warn_if_not_dilute(eps1, eps2, source_temperature)

    def weight(w):
        return _sphere_weight(w, eps1, eps2, separation, scale)

    value = bose_integral(weight, source_temperature, controls)
    return (volume1 * volume2 * HBAR
            / (4.0 * math.pi ** 3 * C_LIGHT ** 7) * value)


def cylinder_force_by_summation(radius1, radius2, material1, material2,
                                source_temperature, separation, *,
                                terms=_ALL_TERMS, controls=None):
    """Cylinder force per length (N/m) from summed sphere pair forces.

    Integrates the volume-normalized sphere force over the relative
    axial offset of the two thin cylinders: per unit source length,
    F/L = pi^2 R1^2 R2^2 * integral dl F_sphere(sqrt(d^2+l^2))
    * d / sqrt(d^2+l^2) / (V1 V2).  With l = d sinh t, a term falling
    like s^-p sums to its value at s = d times 2 d int_0^inf sech(t)^p dt
    = d sqrt(pi) Gamma(p/2) / Gamma((p+1)/2).  With all four terms
    (the default) this matches the engine.  The "d3" sphere term sums
    to the physical d^-2 cylinder force returned by
    ``excluded_d2_term``; leaving "d3" out of ``terms`` gives the
    leading-order path that ``dilute_closed_forms`` matches.
    """
    if radius1 <= 0 or radius2 <= 0:
        raise ValueError("radii must be positive")
    if separation <= 0:
        raise ValueError("separation must be positive")
    terms = _check_terms(terms)
    eps1 = eps_function(material1)
    eps2 = eps_function(material2)
    _warn_if_not_dilute(eps1, eps2, source_temperature)
    if source_temperature == 0.0:
        return 0.0

    # s-powers of each retained term and the axial factors they pick up
    power_of = {"d2": 2.0, "d3": 3.0, "d5": 5.0, "d7": 7.0}
    axial = {t: separation * math.sqrt(math.pi) * math.gamma(power_of[t] / 2)
             / math.gamma((power_of[t] + 1) / 2) for t in terms}

    def weight(w):
        return _sphere_weight(w, eps1, eps2, separation, axial)

    value = bose_integral(weight, source_temperature, controls)
    pref = (math.pi ** 2 * radius1 ** 2 * radius2 ** 2 * HBAR
            / (4.0 * math.pi ** 3 * C_LIGHT ** 7))
    return pref * value


def dilute_closed_forms(radius1, radius2, material1, material2,
                        source_temperature, separation, regime="sum", *,
                        controls=None):
    """Closed dilute near/far force per length (N/m) on cylinder 1.

    regime "near" evaluates the attractive d^-6 + d^-4 form, "far" the
    repulsive d^-1 form, and "sum" their total.  These are leading-order
    forms: they omit the physical d^-2 force of ``excluded_d2_term``,
    which is subleading in both regimes.  "sum" plus that term matches
    the full summed sphere path and the engine at every separation, not
    only deep in either regime.
    """
    if regime not in ("near", "far", "sum"):
        raise ValueError("regime must be 'near', 'far', or 'sum', "
                         "got %r" % (regime,))
    if separation <= 0:
        raise ValueError("separation must be positive")
    eps1 = eps_function(material1)
    eps2 = eps_function(material2)
    _warn_if_not_dilute(eps1, eps2, source_temperature)
    rr = radius1 ** 2 * radius2 ** 2
    d = separation

    def weight(w):
        e1 = np.asarray(eps1(w), dtype=complex)
        e2 = np.asarray(eps2(w), dtype=complex)
        total = np.zeros_like(np.asarray(w, dtype=float))
        if regime in ("near", "sum"):
            total = total - (e1.real - 1.0) * e2.imag * (
                45.0 / (64.0 * d ** 6)
                + 3.0 * w ** 2 / (16.0 * C_LIGHT ** 2 * d ** 4))
        if regime in ("far", "sum"):
            total = total + (e1.imag * e2.imag * w ** 5
                             / (2.0 * math.pi * C_LIGHT ** 5 * d))
        return total

    value = bose_integral(weight, source_temperature, controls)
    return HBAR * rr * value


def excluded_d2_term(radius1, radius2, material1, material2,
                     source_temperature, separation, *, controls=None):
    """The d^-2 cylinder contribution of the summed d^-3 sphere term.

    This is a physical force, the intensity gradient of the outgoing
    cylindrical wave, and the engine contains it.  The leading-order
    ``dilute_closed_forms`` omit it, so cross-validations add it to the
    closed forms before comparing them with the engine or with the full
    four-term summation.  Returned in N/m with the usual sign
    convention (it is attractive, hence negative, for ordinary
    dielectrics).
    """
    eps1 = eps_function(material1)
    eps2 = eps_function(material2)
    if source_temperature == 0.0:  # -0.0 from the product below
        return 0.0

    def weight(w):
        e1 = np.asarray(eps1(w), dtype=complex)
        e2 = np.asarray(eps2(w), dtype=complex)
        return w ** 4 * e2.imag * (e1.real - 1.0)

    value = bose_integral(weight, source_temperature, controls)
    return (-HBAR * radius1 ** 2 * radius2 ** 2
            / (8.0 * C_LIGHT ** 4 * separation ** 2) * value)
