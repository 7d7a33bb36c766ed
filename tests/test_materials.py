"""Dielectric models: passivity, limits, packaged data, unit handling."""

import json
import math

import numpy as np
import pytest

from neqcasimir import materials
from neqcasimir.errors import MaterialError
from neqcasimir.units import C_LIGHT, EPSILON_0, HBAR, K_BOLTZMANN

OMEGAS = np.geomspace(1e10, 1e17, 120)

sic_name, SIC = materials.load_material("sic")
w_name, TUNGSTEN = materials.load_material("tungsten_2400K")


def test_packaged_names():
    assert sic_name == "SiC"
    assert w_name == "tungsten_2400K"
    name, vac = materials.load_material("vacuum")
    assert name == "vacuum"
    assert vac.epsilon(1e14) == 1.0 + 0.0j


def test_passivity():
    # Im eps >= 0 at every positive frequency for every shipped model
    for model in (SIC, TUNGSTEN,
                  materials.Constant(2.0 + 0.5j),
                  materials.LowFreqExpansion(eps0=3.0, lambda_in=1e-8)):
        eps = materials.epsilon(model, OMEGAS)
        assert np.all(eps.imag >= 0.0)


def test_sic_static_and_resonance():
    # static limit eps_inf (omega_lo / omega_to)^2
    static = SIC.static_value()
    assert abs(static - 10.0459) < 2e-3
    low = materials.epsilon(SIC, 1e9)
    assert abs(low.real - static) < 1e-3
    # absorption peaks at the transverse resonance
    peak = OMEGAS[np.argmax(materials.epsilon(SIC, OMEGAS).imag)]
    assert abs(peak / SIC.omega_to - 1.0) < 0.1
    # metallic window between the resonances: Re eps < 0
    mid = math.sqrt(SIC.omega_to * SIC.omega_lo)
    assert materials.epsilon(SIC, mid).real < 0.0


def test_resonances():
    # a Lorentz model's poles: eps itself at omega_to, and the surface
    # mode where Re eps = -1 as gamma -> 0, both of width gamma
    (w_to, g_to), (w_sp, g_sp) = materials.resonances(SIC)
    assert (w_to, g_to, g_sp) == (SIC.omega_to, SIC.gamma, SIC.gamma)
    assert SIC.omega_to < w_sp < SIC.omega_lo
    # at 300 K, u = hbar omega / k_B T is 3.79 and 4.54
    kt = K_BOLTZMANN * 300.0 / HBAR
    assert (w_to / kt, w_sp / kt) == pytest.approx((3.79, 4.54), abs=0.01)
    pole_strength = SIC.eps_inf * (SIC.omega_lo ** 2 - SIC.omega_to ** 2)
    for gamma in (1e-3, 1e-5, 1e-7):
        model = materials.Lorentz(SIC.eps_inf, SIC.omega_lo, SIC.omega_to,
                                  gamma * SIC.omega_to)
        assert materials.resonances(model)[1][0] == w_sp
        # |eps(omega_to)| = eps_inf (w_lo^2 - w_to^2) / (w_to gamma)
        # to O(gamma), and Re eps(omega_sp) + 1 = O(gamma^2)
        at_pole = abs(model.epsilon(w_to)) * model.gamma * w_to
        assert at_pole == pytest.approx(pole_strength, rel=2 * gamma)
        assert abs(model.epsilon(w_sp).real + 1.0) < 100.0 * gamma ** 2
    for model in (TUNGSTEN, materials.Vacuum(), materials.Constant(2.0 + 0.5j),
                  materials.LowFreqExpansion(eps0=3.0, lambda_in=1e-8)):
        assert materials.resonances(model) == ()


def test_tungsten_low_frequency_conductor():
    # the permittivity approaches 1 + i sigma_dc / (eps0 w) as w -> 0
    w = 1e9
    eps = materials.epsilon(TUNGSTEN, w)
    sigma = TUNGSTEN.dc_conductivity()
    assert sigma == pytest.approx(1.19e6 + 2.5e5)
    expected_im = sigma / (EPSILON_0 * w)
    assert abs(eps.imag / expected_im - 1.0) < 0.05
    # and decays at optical frequencies
    assert abs(materials.epsilon(TUNGSTEN, 1e17).imag) < 1e-2


def test_thermal_wavelength():
    lam300 = materials.thermal_wavelength(300.0)
    assert abs(lam300 - 7.6316e-6) < 2e-9
    assert abs(materials.thermal_wavelength(2400.0) - lam300 / 8.0) < 1e-12
    with pytest.raises(ValueError):
        materials.thermal_wavelength(0.0)


def test_skin_depth():
    # lossless constant: no decay
    assert materials.skin_depth(materials.Constant(2.0 + 0.0j),
                                1e14) == math.inf
    # good conductor: c / (w Im sqrt(eps)) with sqrt(eps) ~ sqrt(i s/(e0 w))
    w = 1e12
    delta = materials.skin_depth(TUNGSTEN, w)
    sigma = TUNGSTEN.dc_conductivity()
    classical = C_LIGHT / (w * math.sqrt(sigma / (2.0 * EPSILON_0 * w)))
    assert abs(delta / classical - 1.0) < 0.2


def test_low_freq_expansion_shape():
    model = materials.LowFreqExpansion(eps0=4.0, lambda_in=2e-8)
    w = 3e13
    eps = model.epsilon(w)
    assert eps.real == 4.0
    assert abs(eps.imag - 2e-8 * w / C_LIGHT) < 1e-18
    with pytest.raises(MaterialError):
        materials.LowFreqExpansion(eps0=0.5, lambda_in=1e-8)
    with pytest.raises(MaterialError):
        materials.LowFreqExpansion(eps0=2.0, lambda_in=-1e-8)


def test_model_validation():
    with pytest.raises(MaterialError):
        materials.Constant(2.0 - 0.1j)
    with pytest.raises(MaterialError):
        materials.Lorentz(eps_inf=6.7, omega_lo=1.0, omega_to=2.0,
                          gamma=0.1)
    with pytest.raises(MaterialError):
        materials.ConductivitySum(terms=())
    with pytest.raises(MaterialError):
        materials.epsilon(SIC, -1e13)


def test_inline_and_file_documents(tmp_path):
    doc = {"name": "custom", "model": "constant",
           "parameters": {"eps_re": 3.0, "eps_im": 0.7}}
    name, model = materials.load_material(doc)
    assert name == "custom"
    assert model.epsilon(1e13) == 3.0 + 0.7j

    path = tmp_path / "mat.json"
    path.write_text(json.dumps(doc))
    name2, model2 = materials.load_material(str(path))
    assert (name2, model2.epsilon(1e13)) == (name, 3.0 + 0.7j)

    with pytest.raises(MaterialError):
        materials.load_material("no_such_material_name")


def test_unit_conversion_in_files(tmp_path):
    # the same resonance given in eV and in rad/s must load identically
    ev = 0.12
    radps = ev * 1.602176634e-19 / 1.054571817e-34
    doc_ev = {"name": "m1", "model": "lorentz",
              "parameters": {"eps_inf": 6.7, "omega_lo": ev,
                             "omega_to": 0.098, "gamma": 5.88e-4},
              "units": {"omega_lo": "eV", "omega_to": "eV", "gamma": "eV"}}
    _, m1 = materials.load_material(doc_ev)
    assert abs(m1.omega_lo / radps - 1.0) < 1e-9

    # lengths in nm and um load equal to their SI values
    for unit, scale in (("nm", 1e-9), ("um", 1e-6)):
        doc = {"name": "m2", "model": "conductivity_sum",
               "parameters": {"terms": [{"sigma": 5e6, "lambda_r": 3.0}]},
               "units": {"lambda_r": unit}}
        _, m2 = materials.load_material(doc)
        assert m2.terms[0][1] == pytest.approx(3.0 * scale, rel=1e-15)
        doc = {"name": "m3", "model": "low_freq",
               "parameters": {"eps0": 4.0, "lambda_in": 250.0},
               "units": {"lambda_in": unit}}
        _, m3 = materials.load_material(doc)
        assert m3.lambda_in == pytest.approx(250.0 * scale, rel=1e-15)

    # an unsupported unit is a MaterialError naming the field
    bad_length = {"name": "m4", "model": "low_freq",
                  "parameters": {"eps0": 4.0, "lambda_in": 1.0},
                  "units": {"lambda_in": "furlong"}}
    with pytest.raises(MaterialError, match="lambda_in"):
        materials.load_material(bad_length)
    bad_frequency = dict(doc_ev, units={"omega_lo": "GHz"})
    with pytest.raises(MaterialError, match="omega_lo"):
        materials.load_material(bad_frequency)

    # so is a value that is not a finite number, for a plain parameter
    # and for one that carries a unit
    for field in ("eps0", "lambda_in"):
        for value in (None, "fast", [1.0], True, math.nan, math.inf,
                      -math.inf):
            bad = {"name": "m5", "model": "low_freq",
                   "parameters": {"eps0": 4.0, "lambda_in": 1.0,
                                  field: value},
                   "units": {"lambda_in": "um"}}
            with pytest.raises(MaterialError, match=field):
                materials.load_material(bad)
    # and a conductivity term that is not an object
    bad_term = {"name": "m6", "model": "conductivity_sum",
                "parameters": {"terms": [{"sigma": 5e6, "lambda_r": 3.0},
                                         5e6]}}
    with pytest.raises(MaterialError, match="term 1"):
        materials.load_material(bad_term)


_LORENTZ = {"name": "polar", "model": "lorentz",
            "parameters": {"eps_inf": 6.7, "omega_lo": 0.12,
                           "omega_to": 0.098, "gamma": 5.88e-4},
            "units": {"omega_lo": "eV", "omega_to": "eV", "gamma": "eV"}}
_METAL = {"name": "metal", "model": "conductivity_sum",
          "parameters": {"terms": [{"sigma": 1.19e6, "lambda_r": 3.66}]},
          "units": {"sigma": "1/(ohm m)", "lambda_r": "um"}}


@pytest.mark.parametrize("doc, named", [
    # a conductivity in S/cm would load 100x off as 1/(ohm m)
    (dict(_METAL, units={"sigma": "S/cm"}), "sigma"),
    # a misspelt eps_im would load as eps_im = 0
    ({"name": "glass", "model": "constant",
      "parameters": {"eps_re": 2.0, "eps_img": 0.5}}, "eps_img"),
    # a misspelt unit key would leave gamma in rad/s, 1.5e15 too narrow
    (dict(_LORENTZ, units={"omega_lo": "eV", "omega_to": "eV",
                           "gama": "eV"}), "gama"),
    (dict(_LORENTZ, comment="from a table"), "comment"),
    (dict(_LORENTZ, parameters={**_LORENTZ["parameters"], "q": 1.0}),
     "'q'"),
    (dict(_METAL, parameters={"terms": _METAL["parameters"]["terms"],
                              "sigma": 1.0}), "'sigma'"),
    (dict(_METAL, parameters={"terms": [{"sigma": 1.19e6, "lambda_r": 3.66,
                                         "lambda": 3.0}]}), "'lambda'"),
    ({"name": "void", "model": "vacuum", "parameters": {"eps_re": 1.0}},
     "eps_re"),
    # a unit on a dimensionless parameter
    (dict(_LORENTZ, units={**_LORENTZ["units"], "eps_inf": "eV"}),
     "eps_inf"),
    ({"name": "absorber", "model": "low_freq",
      "parameters": {"eps0": 4.0, "lambda_in": 0.25},
      "units": {"eps0": "um"}}, "eps0"),
    ({"name": "glass", "model": "constant",
      "parameters": {"eps_re": 2.0, "eps_im": 0.5},
      "units": {"eps_im": "eV"}}, "eps_im"),
    ({"name": "glass", "model": "constant", "parameters": {"eps_re": 2.0},
      "units": {"eps_re": "m"}}, "eps_re"),
])
def test_undeclared_parameters_and_units_named(doc, named):
    # each model declares its parameters and the units they may carry:
    # anything else in a document is an error naming it, not a value
    # silently read as something else
    with pytest.raises(MaterialError, match=named):
        materials.resolve_material(doc)


def test_conductivity_in_its_one_unit():
    # sigma is read in 1/(ohm m) with or without that declared unit
    declared = materials.resolve_material(_METAL)[0]
    bare = materials.resolve_material(dict(_METAL,
                                           units={"lambda_r": "um"}))[0]
    assert declared == bare
    assert declared.terms[0][0] == 1.19e6


def test_cylinder_spec():
    spec = materials.CylinderSpec(radius=1e-7, material=SIC,
                                  temperature=300.0)
    assert spec.radius == 1e-7
    with pytest.raises(ValueError):
        materials.CylinderSpec(radius=-1e-7, material=SIC, temperature=0.0)
    with pytest.raises(ValueError):
        materials.CylinderSpec(radius=1e-7, material=SIC, temperature=-1.0)
    for radius, temperature in ((True, 0.0), (1e-7, True), (1e-7, False)):
        with pytest.raises(ValueError):
            materials.CylinderSpec(radius=radius, material=SIC,
                                   temperature=temperature)
