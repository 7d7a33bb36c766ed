"""Dielectric models, material files, and cylinder specifications.

Every model maps an angular frequency omega > 0 (rad/s) to a complex
relative permittivity with Im(eps) >= 0 (passivity).  Magnetic response
is taken as mu = 1 throughout.

Models
------
Vacuum
    eps = 1.
Constant
    Fixed complex eps, Im >= 0.
Lorentz
    Single phonon resonance
    eps(w) = eps_inf * (w^2 - w_lo^2 + i w g) / (w^2 - w_to^2 + i w g),
    appropriate for polar crystals; static value eps_inf (w_lo/w_to)^2.
Conductivity-sum
    Metallic response built from measured conductivity components:
    eps(w) = 1 - lambda^2/(2 pi c eps0) * sum_q sigma_q / (lambda_rq + i lambda)
    with lambda = 2 pi c / w the vacuum wavelength.  In the long
    wavelength limit this reduces to the conductor form
    eps -> 1 + i (sum_q sigma_q) / (eps0 w).
Low-frequency expansion
    eps(w) = eps0 + i lambda_in w / c, the leading behavior of any
    absorber at small frequency; used by the low-temperature closed
    forms.

Resonances
----------
resonances(model) lists the real-axis poles of the force integrand that
a model puts there, as (omega_k, gamma_k) pairs: a peak of width
gamma_k in omega at omega_k, which the outer frequency integral of the
engine flattens.  A Lorentz model has two, both of width gamma:

* the pole of eps itself at omega_to;
* the surface mode of a cylinder at omega_sp, where eps = -1 (the
  pole of the thin cylinder's polarizability (eps - 1) / (eps + 1)).
  Setting Re eps = -1 at gamma -> 0,
  eps_inf (w^2 - w_lo^2) = -(w^2 - w_to^2), gives
  omega_sp = sqrt((eps_inf w_lo^2 + w_to^2) / (eps_inf + 1)),
  which lies between w_to and w_lo.

Every other model returns ().  A conductor's eps has no real-axis pole
above omega = 0, and a constant or vacuum has none at all.

Material JSON files carry {"name", "model", "parameters", "units"}.
Parameters declared in eV or um are converted to SI on load, and
resolve_material returns the model with its SI document
{"name", "model", "parameters"}, which loads back to an equal model.
A field, parameter or unit the model does not take is an error that
names it, and so is a unit on a dimensionless parameter.
"""

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MaterialError
from .units import (
    C_LIGHT,
    EPSILON_0,
    HBAR,
    K_BOLTZMANN,
    conductivity_to_si,
    frequency_to_radps,
    length_to_m,
)

_DATA_DIR = Path(__file__).parent / "data"


def _finite(**values):
    """Raise a MaterialError naming the first value that is not finite."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise MaterialError("%s must be finite, got %r" % (name, value))


@dataclass(frozen=True)
class Vacuum:
    """Unit permittivity."""

    def epsilon(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.ones(omega.shape, dtype=complex)
        return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class Constant:
    """Frequency-independent permittivity."""

    value: complex

    def __post_init__(self):
        _finite(eps_re=self.value.real, eps_im=self.value.imag)
        if not self.value.imag >= 0:
            raise MaterialError(
                "constant permittivity must have Im >= 0, got %r"
                % (self.value,))

    def epsilon(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.full(omega.shape, complex(self.value))
        return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class Lorentz:
    """Single-resonance phonon model.  Frequencies in rad/s."""

    eps_inf: float
    omega_lo: float
    omega_to: float
    gamma: float

    def __post_init__(self):
        _finite(**vars(self))
        if not self.eps_inf > 0:
            raise MaterialError("eps_inf must be positive")
        if not (self.omega_lo > self.omega_to > 0):
            raise MaterialError(
                "need omega_lo > omega_to > 0 for a passive resonance")
        if not self.gamma > 0:
            raise MaterialError("gamma must be positive")

    def epsilon(self, omega):
        w = np.asarray(omega, dtype=float)
        num = w * w - self.omega_lo ** 2 + 1j * w * self.gamma
        den = w * w - self.omega_to ** 2 + 1j * w * self.gamma
        out = self.eps_inf * num / den
        return out[()] if out.ndim == 0 else out

    def static_value(self):
        """Zero-frequency limit eps_inf (omega_lo / omega_to)^2."""
        return self.eps_inf * (self.omega_lo / self.omega_to) ** 2


@dataclass(frozen=True)
class ConductivitySum:
    """Metallic permittivity from conductivity components.

    terms holds (sigma_q, lambda_rq) pairs: a partial DC conductivity in
    1/(ohm m) and its relaxation wavelength in meters.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise MaterialError("conductivity model needs at least one term")
        for sigma, lam_r in self.terms:
            _finite(sigma=sigma, lambda_r=lam_r)
            if not (sigma > 0 and lam_r > 0):
                raise MaterialError(
                    "conductivity terms must be positive, got (%r, %r)"
                    % (sigma, lam_r))

    def epsilon(self, omega):
        w = np.asarray(omega, dtype=float)
        lam = 2.0 * math.pi * C_LIGHT / w
        acc = np.zeros(w.shape, dtype=complex)
        for sigma, lam_r in self.terms:
            acc = acc + sigma / (lam_r + 1j * lam)
        out = 1.0 - lam * lam / (2.0 * math.pi * C_LIGHT * EPSILON_0) * acc
        return out[()] if out.ndim == 0 else out

    def dc_conductivity(self):
        return sum(sigma for sigma, _ in self.terms)


@dataclass(frozen=True)
class LowFreqExpansion:
    """Leading low-frequency absorber: eps = eps0 + i lambda_in w / c.

    eps0 is the static permittivity, lambda_in (meters) sets the
    absorption scale.
    """

    eps0: float
    lambda_in: float

    def __post_init__(self):
        _finite(**vars(self))
        if not self.eps0 >= 1.0:
            raise MaterialError("static permittivity must be >= 1")
        if not self.lambda_in >= 0:
            raise MaterialError("lambda_in must be nonnegative")

    def epsilon(self, omega):
        w = np.asarray(omega, dtype=float)
        out = self.eps0 + 1j * self.lambda_in * w / C_LIGHT
        return out[()] if out.ndim == 0 else out


def epsilon(model, omega):
    """Evaluate a dielectric model at angular frequency omega (rad/s).

    omega may be a scalar or array; entries must be positive and
    finite.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise MaterialError("omega must be positive and finite")
    return model.epsilon(omega)


def resonances(model):
    """Real-axis poles of the force integrand that model puts there, as
    a tuple of (omega_k, gamma_k) pairs in rad/s (see the module
    docstring): ((omega_to, gamma), (omega_sp, gamma)) for a Lorentz
    model, () for every other."""
    if not isinstance(model, Lorentz):
        return ()
    omega_sp = math.sqrt((model.eps_inf * model.omega_lo ** 2
                          + model.omega_to ** 2) / (model.eps_inf + 1.0))
    return ((model.omega_to, model.gamma), (omega_sp, model.gamma))


def eps_function(material):
    """Return the vectorized eps(omega) of a material model."""
    if hasattr(material, "epsilon"):
        return material.epsilon
    raise TypeError("expected a material model with .epsilon(omega), "
                    "got %r" % (type(material),))


def thermal_wavelength(temperature):
    """hbar c / (k_B T) in meters; the scale separating near and far
    thermal regimes.  About 7.6 um at 300 K."""
    if temperature <= 0:
        raise ValueError("temperature must be positive, got %r"
                         % (temperature,))
    return HBAR * C_LIGHT / (K_BOLTZMANN * temperature)


def skin_depth(model, omega):
    """Field penetration depth c / (omega Im sqrt(eps)).

    Uses the principal square root (Im sqrt >= 0 for passive media).
    Returns math.inf for lossless media where the wave propagates
    without decay.
    """
    eps = epsilon(model, omega)
    root = cmath.sqrt(complex(eps))
    if root.imag <= 0.0:
        return math.inf
    return C_LIGHT / (root.imag * omega)


# --- material file handling -------------------------------------------------

def _parameter(params, units, field, convert=None, si_unit=None):
    """params[field] (KeyError when absent) as a float, converted to SI
    from units[field] (si_unit when absent) if convert is given.  A
    boolean, a value float() cannot read, or a unit or value the
    converter rejects is a MaterialError naming the field."""
    value, unit = params[field], units.get(field)
    try:
        if isinstance(value, bool):
            raise TypeError
        value = float(value)
    except (TypeError, ValueError):
        raise MaterialError("expected a number for %s, got %r"
                            % (field, value)) from None
    if convert is None:
        return value
    try:
        return convert(value, si_unit if unit is None else unit)
    except (TypeError, ValueError) as exc:
        raise MaterialError("%s for %s" % (exc, field)) from None


# the parameters of each model (of each term, for conductivity_sum),
# with the converter and SI unit of each that may declare a unit, or
# () for a dimensionless one, and those a document may leave out
_RADPS, _METERS = (frequency_to_radps, "rad/s"), (length_to_m, "m")
_PARAMETERS = {
    "vacuum": {},
    "constant": {"eps_re": (), "eps_im": ()},
    "lorentz": {"eps_inf": (), "omega_lo": _RADPS, "omega_to": _RADPS,
                "gamma": _RADPS},
    "low_freq": {"eps0": (), "lambda_in": _METERS},
    "conductivity_sum": {"sigma": (conductivity_to_si, "1/(ohm m)"),
                         "lambda_r": _METERS},
}
_DEFAULTS = {"eps_im": 0.0}
# the model of each SI parameter set, but conductivity_sum's
_MODELS = {
    "vacuum": Vacuum, "lorentz": Lorentz, "low_freq": LowFreqExpansion,
    "constant": lambda eps_re, eps_im: Constant(complex(eps_re, eps_im))}


def _known(names, valid, what):
    """Raise a MaterialError naming every entry of names not in valid."""
    unknown = sorted(set(names) - set(valid))
    if unknown:
        raise MaterialError("unknown %s %s; valid ones are %s"
                            % (what, unknown, sorted(valid)))


def _build_model(model_name, params, units):
    """(model, SI parameters) of a material document."""
    if model_name not in _PARAMETERS:
        raise MaterialError("unknown dielectric model %r" % (model_name,))
    fields = _PARAMETERS[model_name]
    _known(units, [f for f, conversion in fields.items() if conversion],
           "unit keys")
    if model_name in _MODELS:
        _known(params, fields, "parameters")
        params = {**_DEFAULTS, **params}
        try:
            si = {field: _parameter(params, units, field, *conversion)
                  for field, conversion in fields.items()}
        except KeyError as exc:
            raise MaterialError("%s model missing parameter %s"
                                % (model_name, exc)) from None
        return _MODELS[model_name](**si), si
    _known(params, ("terms",), "parameters")
    raw = params.get("terms")
    if not raw or not isinstance(raw, (list, tuple)):
        raise MaterialError("conductivity_sum model needs parameters.terms")
    terms = []
    for i, term in enumerate(raw):
        if not isinstance(term, dict):
            raise MaterialError("conductivity term %d must be an object, "
                                "got %r" % (i, term))
        _known(term, fields, "parameters of conductivity term %d" % (i,))
        try:
            terms.append(tuple(_parameter(term, units, field, *conversion)
                               for field, conversion in fields.items()))
        except KeyError as exc:
            raise MaterialError(
                "conductivity term %d missing %s" % (i, exc)) from None
    return ConductivitySum(terms=tuple(terms)), {"terms": [
        {"sigma": sigma, "lambda_r": lam_r} for sigma, lam_r in terms]}


def resolve_material(source):
    """Load a material from a JSON file, a dict, or a packaged name.

    Packaged names: 'vacuum', 'sic', 'tungsten_2400K'.

    Returns
    -------
    (model, doc) : the dielectric model and its SI document
        {"name", "model", "parameters"}
    """
    if isinstance(source, dict):
        doc = source
    elif str(source) == "vacuum":
        doc = {"name": "vacuum", "model": "vacuum", "parameters": {}}
    else:
        name = str(source)
        path = Path(name)
        if not path.suffix and not path.exists():
            path = _DATA_DIR / (name.lower() + ".json")
        if not path.exists():
            raise MaterialError("no material file or packaged name %r"
                                % (source,))
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise MaterialError("bad JSON in %s: %s" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise MaterialError("material document must be an object")
    _known(doc, ("name", "model", "parameters", "units"),
           "material document fields")
    for field in ("name", "model", "parameters"):
        if field not in doc:
            raise MaterialError("material document missing %r" % (field,))
    params = doc["parameters"]
    units = doc.get("units", {})
    if not isinstance(params, dict) or not isinstance(units, dict):
        raise MaterialError("parameters and units must be objects")
    model, si = _build_model(str(doc["model"]), params, units)
    return model, {"name": str(doc["name"]), "model": str(doc["model"]),
                   "parameters": si}


def load_material(source):
    """(name, model) of a material, loaded as by resolve_material."""
    model, doc = resolve_material(source)
    return doc["name"], model


@dataclass(frozen=True)
class CylinderSpec:
    """One cylinder: radius in meters, dielectric model, temperature in
    kelvin.  Temperature 0 means no thermal sources."""

    radius: float
    material: object
    temperature: float = 0.0

    def __post_init__(self):
        if not isinstance(self.radius, numbers.Real) \
                or isinstance(self.radius, bool) or self.radius <= 0:
            raise ValueError("radius must be positive, got %r"
                             % (self.radius,))
        if not isinstance(self.temperature, numbers.Real) \
                or isinstance(self.temperature, bool) \
                or not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0, got %r"
                             % (self.temperature,))
        if not hasattr(self.material, "epsilon"):
            raise ValueError("material must provide an epsilon(omega) method")
