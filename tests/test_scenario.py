"""Scenario file parsing: units, grids, exclusivity rules, resolved
round-trips, and the packaged presets."""

import copy
import json
import math
import pathlib
import re

import numpy as np
import pytest

from neqcasimir import cli
from neqcasimir.engine import QuadratureControls
from neqcasimir.errors import SchemaError
from neqcasimir.materials import Constant, Lorentz
from neqcasimir.scenario import load_scenario, parse_scenario
from neqcasimir.units import C_LIGHT, E_CHARGE, HBAR

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _minimal_doc():
    return {
        "name": "demo",
        "cylinder1": {"radius": {"value": 0.1, "unit": "um"},
                      "material": "sic",
                      "temperature": {"value": 300, "unit": "K"}},
        "cylinder2": {"radius": {"value": 100, "unit": "nm"},
                      "material": "sic",
                      "temperature": {"value": 0, "unit": "K"}},
        "environment_temperature": {"value": 0, "unit": "K"},
        "separations": {"values": [0.5, 2.0, 8.0], "unit": "um"},
    }


def test_minimal_parse():
    sc, resolved = parse_scenario(_minimal_doc())
    assert resolved["name"] == "demo"
    assert sc.cylinder1.radius == pytest.approx(1e-7, rel=1e-15)
    assert sc.cylinder2.radius == pytest.approx(1e-7, rel=1e-15)
    assert sc.cylinder1.temperature == 300.0
    assert sc.environment_temperature == 0.0
    assert sc.separations == (0.5e-6, 2e-6, 8e-6)
    assert sc.provider == "thin"
    assert sc.controls == QuadratureControls()
    assert sc.equilibrium is None
    assert isinstance(sc.cylinder1.material, Lorentz)
    assert resolved["separations"]["unit"] == "m"


def test_grid_spacings():
    doc = _minimal_doc()
    doc["separations"] = {"min": {"value": 1, "unit": "um"},
                          "max": {"value": 10, "unit": "um"},
                          "count": 5, "spacing": "log"}
    sc, _ = parse_scenario(doc)
    assert np.allclose(sc.separations,
                       np.geomspace(1e-6, 1e-5, 5), rtol=1e-14)
    doc["separations"]["spacing"] = "linear"
    sc, _ = parse_scenario(doc)
    assert np.allclose(sc.separations,
                       np.linspace(1e-6, 1e-5, 5), rtol=1e-14)
    doc["separations"]["spacing"] = "cubic"
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    doc["separations"] = {"min": {"value": 5, "unit": "um"},
                          "max": {"value": 1, "unit": "um"}, "count": 3}
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_inline_material():
    doc = _minimal_doc()
    doc["cylinder1"]["material"] = {
        "name": "weak", "model": "constant",
        "parameters": {"eps_re": 1.0001, "eps_im": 1e-4}}
    sc, resolved = parse_scenario(doc)
    assert isinstance(sc.cylinder1.material, Constant)
    assert sc.cylinder1.material.epsilon(1e14) == 1.0001 + 1e-4j
    assert resolved["cylinder1"]["material"]["model"] == "constant"


def test_material_path_resolved_relative_and_inlined(tmp_path, monkeypatch):
    # a {"path": ...} material, or a string with a suffix, is read
    # relative to the scenario file, not the working directory; its
    # frequencies may be vacuum wavelengths in um, and the resolved
    # header inlines it in SI.  A name without a suffix is packaged,
    # even where the working directory holds a folder of that name
    (tmp_path / "mats").mkdir()
    (tmp_path / "mats" / "polar.json").write_text(json.dumps({
        "name": "polar", "model": "lorentz",
        "parameters": {"eps_inf": 6.7, "omega_lo": 10.3, "omega_to": 12.6,
                       "gamma": 2100.0},
        "units": {"omega_lo": "um", "omega_to": "um", "gamma": "um"}}))
    (tmp_path / "elsewhere" / "sic").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "elsewhere")
    doc = _minimal_doc()
    scenario_file = tmp_path / "run.json"
    for ref in ({"path": "mats/polar.json"}, "mats/polar.json"):
        doc["cylinder1"]["material"] = ref
        scenario_file.write_text(json.dumps(doc))
        sc, resolved = load_scenario(scenario_file)
        mat = sc.cylinder1.material
        two_pi_c = 2.0 * math.pi * C_LIGHT
        assert isinstance(mat, Lorentz) and mat.eps_inf == 6.7
        for got, wavelength in ((mat.omega_lo, 10.3e-6),
                                (mat.omega_to, 12.6e-6),
                                (mat.gamma, 2100e-6)):
            assert got == pytest.approx(two_pi_c / wavelength, rel=1e-15)
        assert resolved["cylinder1"]["material"] == {
            "name": "polar", "model": "lorentz",
            "parameters": {"eps_inf": 6.7, "omega_lo": mat.omega_lo,
                           "omega_to": mat.omega_to, "gamma": mat.gamma}}
        assert parse_scenario(resolved)[0].cylinder1.material == mat
        assert resolved["cylinder2"]["material"]["name"] == "SiC"

    doc["cylinder1"]["material"] = {"path": "mats/absent.json"}
    with pytest.raises(SchemaError, match=r"^cylinder1\.material\.path: "
                       r".*absent\.json"):
        parse_scenario(doc, base_dir=tmp_path)
    # a wavelength must be positive, and the error names its field
    doc["cylinder1"]["material"] = {
        "name": "bad", "model": "lorentz",
        "parameters": {"eps_inf": 6.7, "omega_lo": 10.3, "omega_to": -12.6,
                       "gamma": 2100.0},
        "units": {"omega_lo": "um", "omega_to": "um", "gamma": "um"}}
    with pytest.raises(SchemaError, match=r"^cylinder1\.material: "
                       r"wavelength must be positive.* for omega_to"):
        parse_scenario(doc)


def test_temperature_sets_exclusive_with_per_cylinder():
    doc = _minimal_doc()
    doc["temperature_sets"] = {"unit": "K",
                               "sets": [[300, 0, 0], [0, 300, 0]]}
    # per-cylinder temperatures must go away first
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    del doc["cylinder1"]["temperature"]
    del doc["cylinder2"]["temperature"]
    with pytest.raises(SchemaError):
        parse_scenario(doc)  # environment_temperature still present
    del doc["environment_temperature"]
    sc, resolved = parse_scenario(doc)
    assert sc.temperature_sets == ((300.0, 0.0, 0.0), (0.0, 300.0, 0.0))
    assert resolved["temperature_sets"]["sets"] == [[300.0, 0.0, 0.0],
                                                    [0.0, 300.0, 0.0]]


def test_missing_temperature_rejected():
    doc = _minimal_doc()
    del doc["cylinder2"]["temperature"]
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    doc = _minimal_doc()
    del doc["environment_temperature"]
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_unknown_fields_named():
    doc = _minimal_doc()
    doc["separation"] = doc["separations"]
    with pytest.raises(SchemaError, match="separation"):
        parse_scenario(doc)


def _set(path, value, sets=False):
    """A change to a scenario document: the field at the dotted path set
    to value, after the temperatures moved into temperature_sets if
    sets."""
    def change(doc):
        if sets:
            for key in ("cylinder1", "cylinder2"):
                del doc[key]["temperature"]
            del doc["environment_temperature"]
            doc["temperature_sets"] = {"unit": "K", "sets": [[300, 0, 0]]}
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        return doc
    return change


@pytest.mark.parametrize("change, where, field", [
    (_set("cylinder1.temprature", {"value": 300, "unit": "K"}, sets=True),
     "cylinder1", "temprature"),
    (_set("separations.min", {"value": 1, "unit": "um"}),
     "separations", "min"),
    (_set("separations", {"min": {"value": 1, "unit": "um"},
                          "max": {"value": 10, "unit": "um"},
                          "count": 5, "spacng": "linear"}),
     "separations", "spacng"),
    (_set("temperature_sets.note", "hot", sets=True), "temperature_sets",
     "note"),
    (_set("flavour", "strange"), "scenario", "flavour"),
    (_set("cylinder1.radius.scale", 2), r"cylinder1\.radius", "scale"),
    (_set("environment_temperature.units", "K"),
     "environment_temperature", "units"),
    (_set("controls", {"rel_tol": 1e-3, "reltol": 1e-3}), "controls",
     "reltol"),
    (_set("equilibrium", {"d_m": [1e-7, 1e-5],
                          "F_eq_N_per_m": [-2.0, -1.0], "unit": "m"}),
     "equilibrium", "unit"),
    (_set("cylinder1.material", {"path": "sic.json", "format": "json"}),
     r"cylinder1\.material", "format"),
])
def test_misspelt_or_extra_fields_named(change, where, field):
    # every object of a scenario names a field it does not take, so a
    # misspelt field is never dropped without a word: a per-cylinder
    # temperature that a temperature-set scenario would not read, the
    # second form of a separation grid, a misspelt spacing that would
    # give a log grid
    with pytest.raises(SchemaError, match=r"^%s: unknown fields .*'%s'"
                       % (where, field)):
        parse_scenario(change(_minimal_doc()))


def test_unit_validation():
    doc = _minimal_doc()
    doc["cylinder1"]["radius"]["unit"] = "furlong"
    with pytest.raises(SchemaError, match="furlong"):
        parse_scenario(doc)
    doc = _minimal_doc()
    doc["environment_temperature"]["unit"] = "C"
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    doc = _minimal_doc()
    doc["cylinder1"]["radius"] = {"value": 0.1}
    with pytest.raises(SchemaError, match="unit"):
        parse_scenario(doc)


def test_controls_parsing():
    doc = _minimal_doc()
    doc["controls"] = {"rel_tol": 1e-3, "u_min": 1e-3, "n_max": 2}
    sc, _ = parse_scenario(doc)
    assert sc.controls.rel_tol == 1e-3
    assert sc.controls.u_min == 1e-3
    assert sc.controls.n_max == 2
    doc["controls"] = {"rel_tol": 0.0}
    with pytest.raises(SchemaError):
        parse_scenario(doc)
    doc["controls"] = {"reltol": 1e-3}
    with pytest.raises(SchemaError, match="reltol"):
        parse_scenario(doc)
    doc["controls"] = {"max_panels": 0}
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_legacy_header_fields(tmp_path, capsys):
    # headers written by earlier versions carried fields that have since
    # been removed, each at one value; they no longer parse: each is an
    # unknown field that the error names, and `zeros` exits 2 on it
    row = ",".join(["1e-06"] + ["0"] * (len(cli.CSV_COLUMNS) - 3)
                   + ["+", "+"])
    for path, text in (("include_quadratic", "null"),
                       ("controls.include_quadratic", "null"),
                       ("controls.kz_symmetry", "false"),
                       ("controls.x_max", "40.0"),
                       ("controls.series_tol", "1e-06"),
                       ("controls.y_cut", "35.0"),
                       ("controls.max_panels", "200")):
        doc = _minimal_doc()
        doc["controls"] = {"rel_tol": 1e-3}
        *parents, key = path.split(".")
        (doc[parents[0]] if parents else doc)[key] = json.loads(text)
        where = parents[0] if parents else "scenario"
        with pytest.raises(SchemaError, match=r"^%s: unknown .*'%s'"
                           % (where, key)):
            parse_scenario(doc)
        csv_path = tmp_path / "old.csv"
        csv_path.write_text("# scenario: %s\n%s\n%s\n" % (
            json.dumps(doc), ",".join(cli.CSV_COLUMNS), row))
        assert cli.main(["zeros", str(csv_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and key in err[0]


_DELETE = object()


@pytest.mark.parametrize("changes, field", [
    ({"controls.rel_tol": 0}, "rel_tol"),
    ({"controls.rel_tol": -1e-3}, "rel_tol"),
    ({"controls.rel_tol": "1e-3"}, "rel_tol"),
    ({"controls.u_min": -1.0}, "u_min"),
    ({"controls.u_min": 40.0}, "u_min"),
    ({"controls.u_min": 1e3}, "u_min"),
    ({"controls.n_max": 0}, "n_max"),
    ({"controls.n_max": 2.5}, "n_max"),
    ({"controls.n_max": True}, "n_max"),
    ({"controls.x_max": -1.0}, "x_max"),
    ({"controls.series_tol": 0.0}, "series_tol"),
    ({"controls.y_cut": 0.0}, "y_cut"),
    ({"controls.max_panels": 0}, "max_panels"),
    ({"controls.max_panels": 7}, "max_panels"),
    ({"provider": "exact"}, "provider"),
    ({"provider": 1}, "provider"),
    ({"environment_temperature.value": -1}, "environment_temperature"),
    ({"cylinder1.temperature.value": -1}, "cylinder1.*temperature"),
    ({"cylinder2.temperature.value": -0.5}, "cylinder2.*temperature"),
    ({"cylinder1.temperature": _DELETE, "cylinder2.temperature": _DELETE,
      "environment_temperature": _DELETE,
      "temperature_sets": {"unit": "K", "sets": [[300, -1, 0]]}},
     "temperature_sets"),
    ({"controls.n_max": 33}, "n_max"),
    # an unhashable value, which the table of providers cannot look up
    ({"provider": ["thin"]}, "provider"),
])
def test_rejected_inputs_name_their_field(changes, field, tmp_path, capsys):
    # each value is checked once, in the dataclass that owns it, and
    # still reaches the user as a schema error naming the field: exit 2
    doc = _minimal_doc()
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        if value is _DELETE:
            del node[key]
        else:
            node[key] = value
    with pytest.raises(SchemaError) as info:
        parse_scenario(doc)
    assert re.search(field, str(info.value))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    assert re.search(field, capsys.readouterr().err)


def test_inline_equilibrium():
    doc = _minimal_doc()
    doc["equilibrium"] = {"d_m": [1e-7, 1e-5],
                          "F_eq_N_per_m": [-2.0, -1.0]}
    sc, resolved = parse_scenario(doc)
    assert sc.equilibrium is not None
    assert sc.equilibrium.force(1e-7) == -2.0
    assert resolved["equilibrium"]["d_m"] == [1e-7, 1e-5]
    doc["equilibrium_file"] = "somewhere.csv"
    with pytest.raises(SchemaError, match="not both"):
        parse_scenario(doc)


def test_equilibrium_file_resolved_relative(tmp_path):
    eq = tmp_path / "eq.csv"
    eq.write_text("d_m,F_eq_N_per_m\n1e-7,-2.0\n1e-5,-1.0\n")
    doc = _minimal_doc()
    doc["equilibrium_file"] = "eq.csv"
    sc, resolved = parse_scenario(doc, base_dir=tmp_path)
    assert sc.equilibrium.force(1e-7) == -2.0
    # the resolved document inlines the table so it travels with output
    assert resolved["equilibrium"]["F_eq_N_per_m"] == [-2.0, -1.0]
    assert "equilibrium_file" not in resolved
    doc["equilibrium_file"] = "missing.csv"
    with pytest.raises(SchemaError, match="missing.csv"):
        parse_scenario(doc, base_dir=tmp_path)


# one inline document per material model, with the SI parameters its
# resolved header must carry
_MATERIALS = {
    "vacuum": ({"name": "void", "model": "vacuum", "parameters": {}}, {}),
    "constant": ({"name": "glass", "model": "constant",
                  "parameters": {"eps_re": 2.25}},
                 {"eps_re": 2.25, "eps_im": 0.0}),
    "lorentz-eV": ({"name": "polar", "model": "lorentz",
                    "parameters": {"eps_inf": 6.7, "omega_lo": 0.12,
                                   "omega_to": 0.098, "gamma": 5.88e-4},
                    "units": {"omega_lo": "eV", "omega_to": "eV",
                              "gamma": "eV"}},
                   {"eps_inf": 6.7, "omega_lo": 0.12 * E_CHARGE / HBAR,
                    "omega_to": 0.098 * E_CHARGE / HBAR,
                    "gamma": 5.88e-4 * E_CHARGE / HBAR}),
    "conductivity_sum-um": (
        {"name": "metal", "model": "conductivity_sum",
         "parameters": {"terms": [{"sigma": 1.19e6, "lambda_r": 3.66},
                                  {"sigma": 2.5e5, "lambda_r": 0.36}]},
         "units": {"sigma": "1/(ohm m)", "lambda_r": "um"}},
        {"terms": [{"sigma": 1.19e6, "lambda_r": 3.66 * 1e-6},
                   {"sigma": 2.5e5, "lambda_r": 0.36 * 1e-6}]}),
    "low_freq-um": ({"name": "absorber", "model": "low_freq",
                     "parameters": {"eps0": 4.0, "lambda_in": 0.25},
                     "units": {"lambda_in": "um"}},
                    {"eps0": 4.0, "lambda_in": 0.25 * 1e-6}),
}


@pytest.mark.parametrize("kind", sorted(_MATERIALS) + ["path", "packaged"])
def test_resolved_round_trip(kind, tmp_path):
    # "path" writes the Lorentz document to a file and refers to it;
    # "packaged" names the shipped SiC, which has the same parameters
    material, si = _MATERIALS.get(kind, _MATERIALS["lorentz-eV"])
    expected = {"name": "SiC" if kind == "packaged" else material["name"],
                "model": material["model"], "parameters": si}
    if kind == "path":
        (tmp_path / "mat.json").write_text(json.dumps(material))
        material = {"path": "mat.json"}
    elif kind == "packaged":
        material = "sic"
    doc = _minimal_doc()
    doc["cylinder1"]["material"] = material
    doc["controls"] = {"rel_tol": 2e-3}
    doc["equilibrium"] = {"d_m": [1e-7, 1e-5],
                          "F_eq_N_per_m": [-2.0, -1.0]}
    doc["provider"] = "full"
    sc1, resolved = parse_scenario(doc, base_dir=tmp_path)
    # the header inlines the material in SI, without its units
    assert resolved["cylinder1"]["material"] == expected
    # resolved must be JSON-serializable and parse to the same scenario
    text = json.dumps(resolved)
    sc2, resolved2 = parse_scenario(json.loads(text))
    assert sc2.separations == sc1.separations
    assert sc2.provider == sc1.provider
    assert sc2.controls == sc1.controls
    assert sc2.cylinder1.radius == sc1.cylinder1.radius
    assert sc2.cylinder1.material == sc1.cylinder1.material
    assert sc2.cylinder2.material == sc1.cylinder2.material
    assert sc2.cylinder2.temperature == sc1.cylinder2.temperature
    assert np.array_equal(sc2.equilibrium.forces, sc1.equilibrium.forces)
    assert resolved2 == resolved


def test_load_scenario_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_minimal_doc()))
    _, resolved = load_scenario(path)
    assert resolved["name"] == "demo"
    with pytest.raises(SchemaError):
        load_scenario(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scenario(bad)


def test_doc_mutation_isolation():
    doc = _minimal_doc()
    snapshot = copy.deepcopy(doc)
    parse_scenario(doc)
    assert doc == snapshot


def test_packaged_presets_parse():
    presets = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(presets) >= 3
    for path in presets:
        sc, resolved = parse_scenario(json.loads(path.read_text()),
                                      base_dir=SCENARIO_DIR)
        assert sc.separations[0] > 0
        # each preset carries its ingested equilibrium data
        assert sc.equilibrium is not None
        sc2, _ = parse_scenario(resolved)
        assert sc2.separations == sc.separations


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
