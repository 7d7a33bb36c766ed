"""Acceptance checks, one test per headline capability.

Each test prints a single "criterion N: PASS/FAIL" line with the
measured numbers, so a full run reads as a checklist.  The checks
cross-validate the scattering engine against the dilute oracle and the
closed-form asymptotics, probe the documented SiC and tungsten
behaviors end to end (command line included), and compare the
computed forces with everyday reference magnitudes."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from neqcasimir import analysis, asymptotics, cli, kernels, materials, tmatrix
from neqcasimir.dilute import (cylinder_force_by_summation, dilute_closed_forms,
                               excluded_d2_term)
from neqcasimir.engine import (QuadratureControls, Scenario, interaction_force,
                               pair_source_force, total_force)
from neqcasimir.equilibrium import EquilibriumTable
from neqcasimir.materials import Constant, CylinderSpec, LowFreqExpansion, Vacuum

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

_, SIC = materials.load_material("sic")
_, TUNGSTEN = materials.load_material("tungsten_2400K")

R_SIC = 1e-7
CTL = QuadratureControls(rel_tol=1e-3)
CTL_FULL = QuadratureControls(rel_tol=3e-3)


@pytest.fixture(autouse=True)
def _quiet():
    # thin-provider validity and asymptotic-regime advisories are
    # expected at several of the probed separations
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def _report(num, ok, detail):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def sic_self_sweep():
    # emission self-force of a warm SiC cylinder next to a cold one,
    # {T1, T2, Tenv} = {300, 0, 0} K: the oscillating signal shared by
    # the envelope and period checks
    sc = Scenario(cylinder1=CylinderSpec(R_SIC, SIC, 300.0),
                  cylinder2=CylinderSpec(R_SIC, SIC, 0.0),
                  separations=(8e-6,), environment_temperature=0.0,
                  controls=QuadratureControls(rel_tol=2e-3))
    ds = 8e-6 + 1.5e-6 * np.arange(36)
    memo = {}
    fs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d in ds:
            fs.append(total_force(sc, float(d), _memo=memo).f_total_1)
    return ds, np.asarray(fs)


def test_criterion_1_dilute_cross_validation():
    # engine, closed dilute forms, and pairwise summation must agree to
    # 2 percent for a weakly polarizable lossy dielectric.  The summation
    # keeps all four sphere terms; its "d3" term sums to the physical
    # d^-2 cylinder force that the engine contains and the leading-order
    # near + far closed forms omit, so that term is added back to them.
    # At 5 um it is about 17 percent of the force, so dropping it from
    # either side fails the check.
    eps = Constant(1.0001 + 1e-4j)
    radius = 1e-8
    ctl = QuadratureControls(rel_tol=1e-3, u_min=1e-3)
    src = CylinderSpec(radius, eps, 300.0)
    tgt = CylinderSpec(radius, eps, 0.0)
    details = []
    ok = True
    for d in (0.5e-6, 5e-6, 50e-6):
        eng, _ = interaction_force(src, tgt, 300.0, d, controls=ctl)
        closed = (dilute_closed_forms(radius, radius, eps, eps, 300.0, d,
                                      regime="sum", controls=ctl)
                  + excluded_d2_term(radius, radius, eps, eps, 300.0, d,
                                     controls=ctl))
        summed = cylinder_force_by_summation(radius, radius, eps, eps, 300.0,
                                             d, controls=ctl)
        worst = max(abs(eng / closed - 1.0), abs(summed / closed - 1.0),
                    abs(eng / summed - 1.0))
        details.append("d=%.1fum worst %.2e" % (d * 1e6, worst))
        ok = ok and worst < 0.02
    _report(1, ok, "engine/closed/summation agree: " + ", ".join(details))


def test_criterion_2_sic_power_laws(sic_self_sweep):
    # near window at a cold source temperature so the d^-6 evanescent
    # term dominates; far window at 300 K; envelope of the self-force
    # oscillation decays as d^-3/2
    ds_near = np.geomspace(0.3e-6, 1.0e-6, 7)
    f_near = [interaction_force(CylinderSpec(R_SIC, SIC, 100.0),
                                CylinderSpec(R_SIC, SIC, 0.0),
                                100.0, float(d), controls=CTL)[0]
              for d in ds_near]
    s_near = analysis.log_slope(ds_near, f_near)

    ds_far = np.geomspace(50e-6, 200e-6, 7)
    f_far = [interaction_force(CylinderSpec(R_SIC, SIC, 300.0),
                               CylinderSpec(R_SIC, SIC, 0.0),
                               300.0, float(d), controls=CTL)[0]
             for d in ds_far]
    s_far = analysis.log_slope(ds_far, f_far)

    ds, fs = sic_self_sweep
    s_env, peaks = analysis.envelope_slope(ds, fs)

    ok = (abs(s_near + 6.0) < 0.15 and abs(s_far + 1.0) < 0.1
          and abs(s_env + 1.5) < 0.1 and len(peaks) >= 3)
    _report(2, ok, "slopes near %.3f (want -6+-0.15), far %.4f (want -1+-0.1),"
            " envelope %.3f (want -1.5+-0.1, %d peaks)"
            % (s_near, s_far, s_env, len(peaks)))


def test_criterion_3_sic_departure_and_oscillation(sic_self_sweep):
    # a cold cylinder beside a warm one departs strongly from the
    # equilibrium reference near 3.8 um, turns repulsive at large
    # separation, and the warm cylinder's self-force oscillates with a
    # 6 um period
    table = EquilibriumTable.from_csv(SCENARIOS / "sic_equilibrium_standin.csv")
    sc = Scenario(cylinder1=CylinderSpec(R_SIC, SIC, 0.0),
                  cylinder2=CylinderSpec(R_SIC, SIC, 300.0),
                  separations=(1.9e-6,), environment_temperature=0.0,
                  controls=CTL, equilibrium=table)
    deps = []
    memo = {}
    for d in (1.9e-6, 3.8e-6, 5.7e-6):
        b = total_force(sc, d, _memo=memo)
        assert b.f_eq == table.force(d)
        deps.append(abs(b.f_total_1 - b.f_eq) / abs(b.f_eq))
    f25 = total_force(sc, 25e-6, _memo=memo).f_total_1

    ds, fs = sic_self_sweep
    window = (ds >= 10e-6) & (ds <= 40e-6)
    period = analysis.oscillation_period(ds[window], fs[window])
    crossings = analysis.find_zero_crossings(ds[window], fs[window])

    ok = (max(deps) > 0.10 and deps[1] > 0.10 and f25 > 0.0
          and abs(period - 6e-6) < 0.15 * 6e-6 and len(crossings) >= 2)
    _report(3, ok, "departures %.2f/%.2f/%.2f at 1.9/3.8/5.7 um, "
            "F(25um)=%.2e N/m (repulsive), period %.2f um (want 6+-15%%, "
            "%d crossings)" % (deps[0], deps[1], deps[2], f25,
                               period * 1e6, len(crossings)))


def test_criterion_4_radius_scaling():
    # thin-provider forces scale as R1^2 R2^2; the full boundary solve
    # breaks that scaling for a conductor at R = 20 nm
    fa, _ = interaction_force(CylinderSpec(5.0e-8, SIC, 300.0),
                              CylinderSpec(5.0e-8, SIC, 0.0),
                              300.0, 2e-6, controls=CTL)
    fb, _ = interaction_force(CylinderSpec(2.5e-8, SIC, 300.0),
                              CylinderSpec(2.5e-8, SIC, 0.0),
                              300.0, 2e-6, controls=CTL)
    dev_thin = abs(fa / (16.0 * fb) - 1.0)

    f20, _ = interaction_force(CylinderSpec(2e-8, TUNGSTEN, 2400.0),
                               CylinderSpec(2e-8, TUNGSTEN, 0.0),
                               2400.0, 0.5e-6, provider="full",
                               controls=CTL_FULL)
    f10, _ = interaction_force(CylinderSpec(1e-8, TUNGSTEN, 2400.0),
                               CylinderSpec(1e-8, TUNGSTEN, 0.0),
                               2400.0, 0.5e-6, provider="full",
                               controls=CTL_FULL)
    dev_full = abs(f20 / (16.0 * f10) - 1.0)

    ok = dev_thin < 0.01 and dev_full > 0.05
    _report(4, ok, "thin SiC R^2R^2 deviation %.2e (want <1%%), full tungsten"
            " deviation %.3f (want >5%%)" % (dev_thin, dev_full))


def test_criterion_5_tungsten_stable_zero_via_cli(tmp_path, capsys):
    # hot-environment tungsten pair against the ingested equilibrium
    # stand-in: attraction, a repulsive window, then attraction again,
    # with a bisected stable zero within a factor 2 of 4 um
    doc = {
        "cylinder1": {"radius": {"value": 20.0, "unit": "nm"},
                      "material": "tungsten_2400K"},
        "cylinder2": {"radius": {"value": 20.0, "unit": "nm"},
                      "material": "tungsten_2400K"},
        "temperature_sets": {"unit": "K", "sets": [[0.0, 0.0, 2400.0]]},
        "separations": {"values": [3.0, 5.5, 8.0], "unit": "um"},
        "equilibrium_file": str(SCENARIOS / "tungsten_equilibrium_standin.csv"),
    }
    scen = tmp_path / "tungsten_hot.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "tungsten_hot.csv"
    rc_run = cli.main(["run", str(scen), "--provider", "full",
                       "--rel-tol", "3e-3", "--out", str(out)])
    _, rows = cli.read_sweep_csv(out)
    totals = [row["F1_total"] for row in rows]
    capsys.readouterr()
    rc_zeros = cli.main(["zeros", str(out), "--rel-tol", "0.25"])
    lines = capsys.readouterr().out.splitlines()
    roots = {}
    for line in lines[1:]:
        fields = line.split(",")
        roots[fields[-1]] = float(fields[3])

    ok = (rc_run == 0 and rc_zeros == 0
          and totals[0] < 0.0 and totals[1] > 0.0 and totals[2] < 0.0
          and "stable" in roots and "unstable" in roots
          and 2e-6 <= roots["stable"] <= 8e-6)
    _report(5, ok, "signs at 3/5.5/8 um: %+.1e/%+.1e/%+.1e N/m, stable zero"
            " %.2f um (want within [2, 8] um), unstable %.2f um"
            % (totals[0], totals[1], totals[2],
               roots.get("stable", np.nan) * 1e6,
               roots.get("unstable", np.nan) * 1e6))


def test_criterion_6_reference_magnitudes():
    # the computed non-equilibrium force at the tungsten departure
    # point exceeds both the wire's weight per length and the two-wire
    # Ampere force by more than a factor 10
    w = cli.weight_per_length(19300.0, 2e-8)
    a = cli.ampere_force_per_length(17e-6, 17e-6, 0.4e-6)
    sc = Scenario(cylinder1=CylinderSpec(2e-8, TUNGSTEN, 0.0),
                  cylinder2=CylinderSpec(2e-8, TUNGSTEN, 0.0),
                  separations=(0.477e-6,), environment_temperature=2400.0,
                  provider="full", controls=CTL_FULL)
    df = total_force(sc, 0.477e-6).f_total_1

    ok = (abs(w / 0.24e-9 - 1.0) < 0.05 and abs(a / 0.145e-9 - 1.0) < 0.10
          and abs(df) / w > 10.0 and abs(df) / a > 10.0)
    _report(6, ok, "weight %.3e N/m (want 0.24e-9 +-5%%), ampere %.3e N/m"
            " (want 0.145e-9 +-10%%), dF %.3e N/m, ratios %.1f and %.1f"
            " (want >10)" % (w, a, df, abs(df) / w, abs(df) / a))


def test_criterion_7_structural_identities():
    # cross-cutting exact identities: quadrature-free where possible,
    # 1e-10 otherwise
    checks = []

    # Im[H_3(x) conj(H_2(x))] = J_3 Y_2 - Y_3 J_2 = -2 / (pi x) on the
    # engine's own propagating table
    hp, _, _ = kernels.hankel_tables(np.array([7.3]), 3)
    w = hp[0, 6].imag
    checks.append(abs(w + 2.0 / (np.pi * 7.3)) < 1e-12 * abs(w))

    t = tmatrix._full_blocks_batch([2], [0.37], 2.0 + 0.3j, 0.05)[0, 0]
    checks.append(abs(t[0, 1] - t[1, 0]) < 1e-10 * np.max(np.abs(t)))

    vac = CylinderSpec(5e-8, Vacuum(), 300.0)
    checks.append(interaction_force(vac, vac, 300.0, 2e-6, controls=CTL)[0]
                  == 0.0)

    hot = CylinderSpec(R_SIC, SIC, 0.0)
    checks.append(interaction_force(hot, hot, 0.0, 2e-6, controls=CTL)[0]
                  == 0.0)
    checks.append(pair_source_force(hot, hot, 0.0, 2e-6, controls=CTL) == 0.0)

    sc = Scenario(cylinder1=CylinderSpec(R_SIC, SIC, 300.0),
                  cylinder2=CylinderSpec(R_SIC, SIC, 300.0),
                  separations=(2e-6,), environment_temperature=300.0,
                  controls=CTL,
                  equilibrium=EquilibriumTable([1e-7, 1e-4], [-2.0, -2.0]))
    b = total_force(sc, 2e-6)
    checks.append(b.f_total_1 == -2.0 and b.f_total_2 == 2.0)

    f60, _ = interaction_force(CylinderSpec(R_SIC, SIC, 300.0),
                               CylinderSpec(R_SIC, SIC, 0.0),
                               300.0, 60e-6, controls=CTL)
    checks.append(f60 > 0.0)

    labels = ("wronskian", "polarization symmetry", "vacuum nullity",
              "zero-T interaction", "zero-T pair source",
              "equal-T reduction", "far positivity")
    failed = [lab for lab, c in zip(labels, checks) if not c]
    _report(7, not failed, "all identities hold (%s)" % ", ".join(labels)
            if not failed else "failed: " + ", ".join(failed))


def test_criterion_8_low_temperature_closed_forms():
    # for a narrow low-frequency resonance (lambda_T / lambda_0 = 381)
    # the closed low-temperature forms match the numeric asymptotics
    lam0 = 2e-8
    lf = LowFreqExpansion(3.0, lam0)
    near_c = asymptotics.interaction_near_lowT(R_SIC, R_SIC, 3.0, 3.0,
                                               lam0, lam0, 300.0, 1e-6)
    near_n = asymptotics.interaction_near(R_SIC, R_SIC, lf, lf, 300.0, 1e-6)
    far_c = asymptotics.interaction_far_lowT(R_SIC, R_SIC, 3.0, 3.0,
                                             lam0, lam0, 300.0, 60e-6)
    far_n = asymptotics.interaction_far(R_SIC, R_SIC, lf, lf, 300.0, 60e-6)
    dev_near = abs(near_c / near_n - 1.0)
    dev_far = abs(far_c / far_n - 1.0)

    ok = dev_near < 0.02 and dev_far < 0.02
    _report(8, ok, "near deviation %.2e at 1 um, far %.2e at 60 um"
            " (want <2%%)" % (dev_near, dev_far))
