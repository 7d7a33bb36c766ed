"""Physical constants and unit conversions.

All internal computation is in SI: lengths in meters, angular
frequencies in rad/s, temperatures in kelvin, forces per length in N/m.
Material data files and scenario files may declare parameters in eV or
micrometers; the converters here normalize them on load.
"""

import math

from scipy import constants as _const

C_LIGHT = _const.c                  # m/s
HBAR = _const.hbar                  # J s
K_BOLTZMANN = _const.k              # J/K
E_CHARGE = _const.e                 # C
EPSILON_0 = _const.epsilon_0        # F/m
MU_0 = _const.mu_0                  # H/m
G_STANDARD = _const.g               # m/s^2


_LENGTH_FACTORS = {
    "m": 1.0,
    "mm": 1e-3,
    "um": 1e-6,
    "nm": 1e-9,
}


def length_to_m(value, unit):
    """Convert a length with a declared unit to meters."""
    try:
        return value * _LENGTH_FACTORS[unit]
    except KeyError:
        raise ValueError("unsupported length unit %r" % (unit,)) from None


def frequency_to_radps(value, unit):
    """Convert a frequency-like quantity with a declared unit to rad/s.

    Supported units: 'rad/s' (identity), 'eV' (photon energy), 'um'
    (vacuum wavelength, converted through 2 pi c / lambda).
    """
    if unit == "rad/s":
        return value
    if unit == "eV":
        return value * E_CHARGE / HBAR
    if unit == "um":
        if value <= 0:
            raise ValueError("wavelength must be positive, got %r" % (value,))
        return 2.0 * math.pi * C_LIGHT / (value * 1e-6)
    raise ValueError("unsupported frequency unit %r" % (unit,))
