"""Seeded workload inputs, one pass of each workload, and its output
checks.

Every input is generated from (workload name, seed): the same seed
gives the same scenario file and the same zero bracket.  The program
only ever sees the generated scenario file.

Separations are jittered uniformly in log d by at most 0.1 either way,
i.e. within about +-10% of the nominal value.  The zero bracket stays
inside [6.0, 6.5] x [7.0, 7.6] um, which holds the unstable zero near
6.72 um and no other: the neighbouring zeros of that force lie in
3-4 um and 8-11 um.  It is at least 0.9 um wide, so the work of a
bisection does not depend on the seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
# Held out: no change to the program or the benchmark is tuned on it.
HELDOUT_SEED = 4099

JITTER_LOG_D = 0.1
ZERO_LO_UM = (6.0, 6.5)
ZERO_HI_UM = (7.0, 7.6)
ZERO_REL_TOL = 1e-3
# At least 128 * ZERO_REL_TOL * 6.72 um wide, so every bracket takes
# the same 8 bisection steps (10 engine calls) to reach ZERO_REL_TOL.
ZERO_MIN_WIDTH_UM = 0.9

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "sweep" or "zero"
    material: str
    radius_um: float
    provider: str
    rel_tol: float       # tolerance the checked values are held to
    engine_rel_tol: float
    separations_um: tuple
    temperature_sets: tuple = ()
    temperatures: tuple = ()   # (T1, T2, T_env) of the zero workload
    equilibrium: str = ""


WORKLOADS = {
    "sic-thin-sweep": Workload(
        name="sic-thin-sweep", kind="sweep", material="sic",
        radius_um=0.1, provider="thin", rel_tol=1e-4, engine_rel_tol=1e-4,
        separations_um=(1.7, 23.0),
        temperature_sets=((450, 300, 300), (300, 450, 300),
                          (300, 150, 300), (300, 300, 300)),
        equilibrium="sic_equilibrium_standin.csv"),
    "tungsten-full-sweep": Workload(
        name="tungsten-full-sweep", kind="sweep",
        material="tungsten_2400K", radius_um=0.02, provider="full",
        rel_tol=1e-3, engine_rel_tol=1e-3, separations_um=(0.5, 1.5),
        temperature_sets=((0, 0, 2400), (2400, 0, 2400),
                          (2400, 2400, 2400)),
        equilibrium="tungsten_equilibrium_standin.csv"),
    "sic-thin-zero": Workload(
        name="sic-thin-zero", kind="zero", material="sic", radius_um=0.1,
        provider="thin", rel_tol=ZERO_REL_TOL, engine_rel_tol=1e-4,
        separations_um=(), temperatures=(300, 0, 0),
        equilibrium="sic_equilibrium_standin.csv"),
}


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload.name, seed))


def separations_um(workload, seed):
    """Jittered separations of a sweep workload, in um, increasing."""
    rng = _rng(workload, seed)
    return [d * math.exp(rng.uniform(-JITTER_LOG_D, JITTER_LOG_D))
            for d in workload.separations_um]


def zero_bracket_um(seed, workload=None):
    """(lo, hi) of the zero workload's bisection bracket, in um."""
    rng = _rng(workload or WORKLOADS["sic-thin-zero"], seed)
    lo = rng.uniform(*ZERO_LO_UM)
    return lo, rng.uniform(max(ZERO_HI_UM[0], lo + ZERO_MIN_WIDTH_UM),
                           ZERO_HI_UM[1])


def scenario_doc(workload, seed, *, engine_rel_tol=None, eq_dir="."):
    """Scenario JSON document for one seed.  eq_dir is the directory of
    the shipped equilibrium tables, relative to where the document is
    written."""
    cyl = {"radius": {"value": workload.radius_um, "unit": "um"},
           "material": workload.material}
    doc = {"name": "%s-seed%d" % (workload.name, seed),
           "cylinder1": dict(cyl), "cylinder2": dict(cyl),
           "provider": workload.provider,
           "controls": {"rel_tol": engine_rel_tol or workload.engine_rel_tol},
           "equilibrium_file": "%s/%s" % (eq_dir, workload.equilibrium)}
    if workload.kind == "sweep":
        doc["separations"] = {"values": separations_um(workload, seed),
                              "unit": "um"}
        doc["temperature_sets"] = {
            "unit": "K", "sets": [list(s) for s in workload.temperature_sets]}
    else:
        t1, t2, t_env = workload.temperatures
        doc["cylinder1"]["temperature"] = {"value": t1, "unit": "K"}
        doc["cylinder2"]["temperature"] = {"value": t2, "unit": "K"}
        doc["environment_temperature"] = {"value": t_env, "unit": "K"}
        doc["separations"] = {"values": list(zero_bracket_um(seed, workload)),
                              "unit": "um"}
    return doc


def write_scenario(workload, seed, out_dir, repo_root, stem, **kwargs):
    """Write the generated scenario as out_dir/stem.json and return its
    path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    eq_dir = os.path.relpath(Path(repo_root) / "scenarios", out_dir)
    path = out_dir / (stem + ".json")
    doc = scenario_doc(workload, seed, eq_dir=Path(eq_dir).as_posix(),
                       **kwargs)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


# --- one pass ---------------------------------------------------------------

def sweep_pass(nq, scenario, resolved, csv_path):
    """Sweep the scenario and write its CSV; returns the rows."""
    rows = nq.engine.sweep(scenario)
    with open(csv_path, "w", newline="") as handle:
        nq.cli.write_sweep_csv(rows, resolved, handle)
    return rows


def zero_pass(nq, scenario, rel_tol=ZERO_REL_TOL):
    """Refine the zero inside the scenario's two separations, as the
    `zeros` command composes it.  Returns (crossing, evaluated forces
    by separation)."""
    seen = {}

    def force_at(d):
        seen[d] = nq.engine.total_force(scenario, d).f_total_1
        return seen[d]

    lo, hi = scenario.separations
    root = nq.analysis.refine_zero(force_at, lo, hi, rel_tol=rel_tol)
    return root, seen


# --- output checks ----------------------------------------------------------

FORCE_FIELDS = ("f_eq", "f_int_21", "f_int_21_prop", "f_int_21_evan",
                "f_int_12", "f_int_12_prop", "f_int_12_evan",
                "f_pair_source_1", "f_pair_source_2", "f_self_1",
                "f_self_2", "f_env_subtraction_1", "f_env_subtraction_2",
                "f_total_1", "f_total_2")


def _row_key(row):
    return (row.separation, row.t1, row.t2, row.t_env)


# Integral channels carried by a row, grouped by the outer integral that
# computed them: the pair-source integral of each cylinder and the two
# light-line channels of each interaction integral.
CHANNEL_GROUPS = (("f_pair_source_1",), ("f_pair_source_2",),
                  ("f_int_12_prop", "f_int_12_evan"),
                  ("f_int_21_prop", "f_int_21_evan"))


def check_rows(rows, reference=None, rel_tol=None):
    """Failure reason of every row (None when it passes): finite
    forces, bitwise equal-temperature reduction, bitwise mirror
    symmetry and, given reference rows, agreement of every integral
    channel within rel_tol.

    A channel is held to rel_tol of its reference value, or of 1% of
    the largest channel of the same integral if that is larger: the
    scale the adaptive quadrature itself converges each channel to.
    Totals are assembled from these channels and the tabulated F_eq.
    """
    reasons = [None] * len(rows)
    by_key = {_row_key(r): i for i, r in enumerate(rows)}
    for i, r in enumerate(rows):
        if not all(math.isfinite(getattr(r, f)) for f in FORCE_FIELDS):
            reasons[i] = "non-finite force"
        elif r.t1 == r.t2 == r.t_env and not (
                r.f_total_1 == r.f_eq and r.f_total_2 == -r.f_eq):
            reasons[i] = "equal-temperature row differs from F_eq"
        else:
            j = by_key.get((r.separation, r.t2, r.t1, r.t_env))
            if j is not None and not (
                    r.f_total_1 == -rows[j].f_total_2
                    and r.f_total_2 == -rows[j].f_total_1):
                reasons[i] = "mirror rows differ"
    if reference is None:
        return reasons
    if len(reference) != len(rows):
        return ["reference has %d rows" % len(reference)] * len(rows)
    for i, (r, ref) in enumerate(zip(rows, reference)):
        if (r.t1, r.t2, r.t_env) != tuple(ref["T_K"]) or not math.isclose(
                r.separation, ref["d_m"], rel_tol=1e-12):
            reasons[i] = reasons[i] or "row does not match its reference"
            continue
        for group in CHANNEL_GROUPS:
            floor = 0.01 * max(abs(ref[f]) for f in group)
            for f in group:
                off = abs(getattr(r, f) - ref[f])
                if not off <= rel_tol * max(abs(ref[f]), floor):
                    reasons[i] = reasons[i] or (
                        "%s off its reference by %.2e relative"
                        % (f, off / max(abs(ref[f]), floor)))
    return reasons


def check_zero(root, seen, rel_tol=ZERO_REL_TOL, reference=None):
    """Failure reason of a refined zero, or None."""
    lo, hi = root.lower, root.upper
    if not (math.isfinite(lo) and math.isfinite(hi)) or not all(
            math.isfinite(v) for v in seen.values()):
        return "non-finite zero or force"
    if not hi - lo <= rel_tol * 0.5 * (lo + hi):
        return "bracket wider than %g" % rel_tol
    if lo not in seen or hi not in seen or not (
            math.copysign(1.0, seen[lo]) != math.copysign(1.0, seen[hi])):
        return "bracket does not straddle a sign change"
    if root.stability != "unstable":
        return "zero classified %s" % root.stability
    if reference is not None:
        ref = reference["d_zero_m"]
        if not abs(root.midpoint - ref) <= rel_tol * ref:
            return "zero at %.6g m, reference %.6g m" % (root.midpoint, ref)
    return None


def load_reference(workload, seed):
    """Reference values of the workload for the default seed, else
    None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_FILE.read_text())[workload.name]["values"]
