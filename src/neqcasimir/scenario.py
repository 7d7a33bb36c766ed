"""Scenario files: JSON descriptions of sweep runs.

A scenario names two cylinders (radius, material, temperature), an
environment temperature, a separation grid, and numerical options.
Every dimensional quantity carries an explicit unit field; there are
no silent defaults, because mixed eV / micrometer / kelvin inputs are
the main user hazard in this problem.  Example:

    {
      "name": "demo",
      "cylinder1": {"radius": {"value": 0.1, "unit": "um"},
                    "material": "sic",
                    "temperature": {"value": 300, "unit": "K"}},
      "cylinder2": {"radius": {"value": 0.1, "unit": "um"},
                    "material": "sic",
                    "temperature": {"value": 0, "unit": "K"}},
      "environment_temperature": {"value": 0, "unit": "K"},
      "separations": {"min": {"value": 0.5, "unit": "um"},
                      "max": {"value": 50, "unit": "um"},
                      "count": 40, "spacing": "log"},
      "provider": "thin"
    }

Materials may be packaged names ('sic', 'tungsten_2400K', 'vacuum'),
inline material documents, or {"path": "file.json"} relative to the
scenario file.  Optional fields: "temperature_sets" (several
{T1, T2, T_env} triples sharing one geometry; mutually exclusive with
per-cylinder temperatures), "controls" (rel_tol, u_min, n_max),
"equilibrium_file" / "equilibrium" (ingested equilibrium force table),
"output".  Any other field, in any object, is an error that names it.

Here the JSON shape, types, units and ordering are checked.  Value
ranges are checked once, by the dataclass that owns the value
(QuadratureControls, CylinderSpec, Scenario), and its ValueError
becomes a SchemaError under the path being parsed.

`parse_scenario` returns the engine scenario together with a fully
resolved plain dict (defaults filled in, units normalized to SI,
materials and equilibrium data inlined) that round-trips through
`parse_scenario` again; sweep CSVs embed it as a comment header so any
output file can be re-run or refined without its original inputs.
Each inlined material is the SI document {"name", "model",
"parameters"} that `materials.resolve_material` returns next to the
model it built.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .engine import Scenario
from .equilibrium import EquilibriumTable
from .errors import MaterialError, SchemaError
from .materials import CylinderSpec, resolve_material
from .quadrature import QuadratureControls
from .units import length_to_m


def _fail(path, message):
    raise SchemaError("%s: %s" % (path, message))


def _fields(node, path, required, optional=()):
    """node, checked to be an object that has every field of required
    and no field outside required and optional."""
    if not isinstance(node, dict):
        _fail(path, "expected an object, got %s" % (type(node).__name__,))
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        _fail(path, "unknown fields %s; valid ones are %s"
              % (sorted(unknown), sorted({*required, *optional})))
    for key in required:
        if key not in node:
            _fail(path, "missing required field %r" % (key,))
    return node


def _build(cls, path, **fields):
    """cls(**fields), with its ValueError as a SchemaError at path."""
    try:
        return cls(**fields)
    except ValueError as exc:
        _fail(path, str(exc))


def _number(node, path, *, positive=False):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, "expected a number, got %r" % (node,))
    value = float(node)
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, "must be > 0")
    return value


def _length_m(node, path):
    node = _fields(node, path, ("value", "unit"))
    value = _number(node["value"], path + ".value", positive=True)
    try:
        return length_to_m(value, node["unit"])
    except ValueError as exc:
        _fail(path + ".unit", str(exc))


def _temperature_k(node, path):
    node = _fields(node, path, ("value", "unit"))
    value = _number(node["value"], path + ".value")
    if node["unit"] != "K":
        _fail(path + ".unit", "temperatures must be in 'K', got %r"
              % (node["unit"],))
    return value


def _material(node, path, base_dir):
    """Resolve a material reference to (model, SI material document): a
    packaged name or file, an inline document, or {"path": file}
    relative to base_dir."""
    if not isinstance(node, (str, dict)):
        _fail(path, "expected an object, got %s" % (type(node).__name__,))
    if isinstance(node, dict) and "path" in node and "model" not in node:
        ref = _fields(node, path, ("path",))["path"]
        node, path = str(Path(base_dir) / str(ref)), path + ".path"
    try:
        return resolve_material(node)
    except MaterialError as exc:
        _fail(path, str(exc))


def _cylinder(node, path, base_dir, *, allow_temperature):
    """(CylinderSpec, resolved cylinder) of a cylinder node."""
    node = _fields(node, path, ("radius", "material", "temperature")
                   if allow_temperature else ("radius", "material"),
                   ("temperature",))
    radius = _length_m(node["radius"], path + ".radius")
    model, mat_doc = _material(node["material"], path + ".material",
                               base_dir)
    temp_node = node.get("temperature")
    if temp_node is not None and not allow_temperature:
        _fail(path + ".temperature", "per-cylinder temperatures are "
              "mutually exclusive with temperature_sets")
    temperature = (_temperature_k(temp_node, path + ".temperature")
                   if temp_node is not None else 0.0)
    spec = _build(CylinderSpec, path, radius=radius, material=model,
                  temperature=temperature)
    resolved = {"radius": {"value": radius, "unit": "m"}, "material": mat_doc}
    if allow_temperature:
        resolved["temperature"] = {"value": temperature, "unit": "K"}
    return spec, resolved


def _separations(node, path):
    """The grid of either form, {values, unit} or {min, max, count,
    spacing}; a field of the other form is an unknown field."""
    if isinstance(node, dict) and "values" in node:
        unit = _fields(node, path, ("values", "unit"))["unit"]
        raw = node["values"]
        if not isinstance(raw, list) or not raw:
            _fail(path + ".values", "expected a non-empty list")
        out = []
        for i, entry in enumerate(raw):
            value = _number(entry, "%s.values[%d]" % (path, i),
                            positive=True)
            try:
                out.append(length_to_m(value, unit))
            except ValueError as exc:
                _fail(path + ".unit", str(exc))
        grid = tuple(out)
    else:
        node = _fields(node, path, ("min", "max", "count"), ("spacing",))
        lo = _length_m(node["min"], path + ".min")
        hi = _length_m(node["max"], path + ".max")
        if hi <= lo:
            _fail(path, "max must exceed min")
        count_node = node["count"]
        if isinstance(count_node, bool) or not isinstance(count_node, int):
            _fail(path + ".count", "expected an integer")
        if count_node < 2:
            _fail(path + ".count", "need at least 2 points")
        spacing = node.get("spacing", "log")
        if spacing == "log":
            grid = tuple(np.geomspace(lo, hi, count_node).tolist())
        elif spacing == "linear":
            grid = tuple(np.linspace(lo, hi, count_node).tolist())
        else:
            _fail(path + ".spacing", "expected 'log' or 'linear', got %r"
                  % (spacing,))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        _fail(path, "separations must be strictly increasing")
    return grid


def _controls(node, path):
    if node is None:
        return QuadratureControls()
    kwargs = {}
    names = [f.name for f in dataclasses.fields(QuadratureControls)]
    for key, value in _fields(node, path, (), names).items():
        where = "%s.%s" % (path, key)
        if key != "n_max":
            value = _number(value, where)
        elif not (value is None or type(value) is int):
            _fail(where, "expected an integer or null")
        kwargs[key] = value
    return _build(QuadratureControls, path, **kwargs)


def _temperature_sets(node, path):
    node = _fields(node, path, ("unit", "sets"))
    if node["unit"] != "K":
        _fail(path + ".unit", "temperature sets must be in 'K', got %r"
              % (node["unit"],))
    raw = node["sets"]
    if not isinstance(raw, list) or not raw:
        _fail(path + ".sets", "expected a non-empty list of "
              "[T1, T2, T_env] triples")
    out = []
    for i, entry in enumerate(raw):
        where = "%s.sets[%d]" % (path, i)
        if not isinstance(entry, list) or len(entry) != 3:
            _fail(where, "expected a [T1, T2, T_env] triple")
        out.append(tuple(_number(v, "%s[%d]" % (where, j))
                         for j, v in enumerate(entry)))
    return tuple(out)


def _equilibrium(doc, base_dir):
    inline = doc.get("equilibrium")
    file_ref = doc.get("equilibrium_file")
    if inline is not None and file_ref is not None:
        _fail("equilibrium", "give either 'equilibrium' or "
              "'equilibrium_file', not both")
    allow = doc.get("allow_equilibrium_extrapolation", False)
    if not isinstance(allow, bool):
        _fail("allow_equilibrium_extrapolation", "expected a boolean")
    if inline is not None:
        inline = _fields(inline, "equilibrium", ("d_m", "F_eq_N_per_m"))
        d, f = inline["d_m"], inline["F_eq_N_per_m"]
        if not isinstance(d, list) or not isinstance(f, list):
            _fail("equilibrium", "d_m and F_eq_N_per_m must be lists")
        try:
            return EquilibriumTable(d, f, allow_extrapolation=allow)
        except SchemaError as exc:
            _fail("equilibrium", str(exc))
    if file_ref is not None:
        target = Path(base_dir) / str(file_ref)
        if not target.exists():
            _fail("equilibrium_file", "no such file: %s" % (target,))
        return EquilibriumTable.from_csv(str(target),
                                         allow_extrapolation=allow)
    return None


def parse_scenario(doc, base_dir="."):
    """Build an engine scenario from a parsed JSON document.

    Returns (scenario, resolved) where resolved is a plain dict with
    defaults filled in, all units normalized to SI, and materials and
    equilibrium data inlined; parsing the resolved dict again gives an
    equivalent scenario.  Raises SchemaError naming the offending
    field on any violation.
    """
    doc = _fields(doc, "scenario", ("cylinder1", "cylinder2", "separations"),
                  ("name", "environment_temperature", "provider", "controls",
                   "equilibrium_file", "equilibrium",
                   "allow_equilibrium_extrapolation", "temperature_sets",
                   "output"))
    name = doc.get("name", "scenario")
    if not isinstance(name, str) or not name:
        _fail("name", "expected a non-empty string")

    sets_node = doc.get("temperature_sets")
    temperature_sets = (_temperature_sets(sets_node, "temperature_sets")
                        if sets_node is not None else None)
    per_cylinder = temperature_sets is None

    (cyl1, resolved1), (cyl2, resolved2) = (
        _cylinder(doc[key], key, base_dir, allow_temperature=per_cylinder)
        for key in ("cylinder1", "cylinder2"))

    env_node = doc.get("environment_temperature")
    if temperature_sets is not None:
        if env_node is not None:
            _fail("environment_temperature", "mutually exclusive with "
                  "temperature_sets")
        t_env = 0.0
    else:
        if env_node is None:
            _fail("scenario", "missing required field "
                  "'environment_temperature'")
        t_env = _temperature_k(env_node, "environment_temperature")

    separations = _separations(doc["separations"], "separations")
    provider = doc.get("provider", "thin")
    controls = _controls(doc.get("controls"), "controls")
    equilibrium = _equilibrium(doc, base_dir)
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        _fail("output", "expected a string path")

    scenario = _build(
        Scenario, "scenario", cylinder1=cyl1, cylinder2=cyl2,
        separations=separations, environment_temperature=t_env,
        provider=provider, controls=controls, equilibrium=equilibrium,
        temperature_sets=temperature_sets, name=name, output=output)

    resolved = {
        "name": name,
        "cylinder1": resolved1,
        "cylinder2": resolved2,
        "separations": {"values": [float(d) for d in separations],
                        "unit": "m"},
        "provider": provider,
        "controls": dataclasses.asdict(controls),
    }
    if temperature_sets is not None:
        resolved["temperature_sets"] = {
            "unit": "K", "sets": [list(s) for s in temperature_sets]}
    else:
        resolved["environment_temperature"] = {"value": t_env, "unit": "K"}
    if equilibrium is not None:
        resolved["equilibrium"] = {
            "d_m": equilibrium.separations.tolist(),
            "F_eq_N_per_m": equilibrium.forces.tolist()}
        resolved["allow_equilibrium_extrapolation"] = \
            equilibrium.allow_extrapolation
    if output is not None:
        resolved["output"] = output
    return scenario, resolved


def load_scenario(path):
    """Parse a scenario JSON file; see parse_scenario."""
    target = Path(path)
    try:
        text = target.read_text()
    except OSError as exc:
        raise SchemaError("cannot read scenario file %s: %s"
                          % (path, exc)) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("scenario file %s is not valid JSON: %s"
                          % (path, exc)) from None
    return parse_scenario(doc, base_dir=target.parent)
