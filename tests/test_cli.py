"""Command line round trips: scenario sweeps to CSV, zero-crossing
refinement, reference-force comparisons, and the exit code contract."""

import dataclasses
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neqcasimir import cli, engine, tmatrix
from neqcasimir.cli import (CSV_COLUMNS, ampere_force_per_length,
                            read_sweep_csv, weight_per_length)
from neqcasimir.errors import TMatrixError
from neqcasimir.scenario import load_scenario
from neqcasimir.units import G_STANDARD, MU_0

REL = 3e-3
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _base_doc():
    return {
        "name": "cli-test",
        "cylinder1": {"radius": {"value": 0.1, "unit": "um"},
                      "material": "sic"},
        "cylinder2": {"radius": {"value": 0.1, "unit": "um"},
                      "material": "sic"},
        "separations": {"values": [8.0, 10.0], "unit": "um"},
        "controls": {"rel_tol": REL},
    }


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(argv)


def _write(tmp, name, doc):
    path = tmp / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def cold_sweep(tmp_path_factory):
    """Four temperature combos with a cold environment, two separations."""
    tmp = tmp_path_factory.mktemp("cold")
    doc = _base_doc()
    doc["temperature_sets"] = {
        "unit": "K",
        "sets": [[0, 0, 0], [300, 0, 0], [0, 300, 0], [300, 300, 0]]}
    out = tmp / "cold.csv"
    code = _run(["run", _write(tmp, "cold.json", doc), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def warm_sweep(tmp_path_factory):
    """The other four combos: environment at 300 K, zero equilibrium."""
    tmp = tmp_path_factory.mktemp("warm")
    doc = _base_doc()
    doc["separations"] = {"values": [8.0], "unit": "um"}
    doc["temperature_sets"] = {
        "unit": "K",
        "sets": [[0, 0, 300], [300, 0, 300], [0, 300, 300],
                 [300, 300, 300]]}
    doc["equilibrium"] = {"d_m": [1e-7, 1e-3],
                          "F_eq_N_per_m": [0.0, 0.0]}
    out = tmp / "warm.csv"
    code = _run(["run", _write(tmp, "warm.json", doc), "--out", str(out)])
    assert code == 0
    return out


def _vacuum_root_doc():
    # all temperatures zero: the sweep reduces to the ingested
    # log-linear equilibrium, which crosses zero at 10^0.2 um
    return {
        "name": "ln-root",
        "cylinder1": {"radius": {"value": 0.05, "unit": "um"},
                      "material": "vacuum"},
        "cylinder2": {"radius": {"value": 0.05, "unit": "um"},
                      "material": "vacuum"},
        "temperature_sets": {"unit": "K", "sets": [[0, 0, 0]]},
        "separations": {"values": [1.0, 2.5, 5.0], "unit": "um"},
        "equilibrium": {"d_m": [1e-6, 1e-5],
                        "F_eq_N_per_m": [1.0, -4.0]},
    }


def test_csv_schema_and_header(cold_sweep):
    lines = cold_sweep.read_text().splitlines()
    assert lines[0].startswith("# scenario: ")
    resolved = json.loads(lines[0][len("# scenario: "):])
    assert resolved["provider"] == "thin"
    assert resolved["controls"]["rel_tol"] == REL
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 8
    doc, rows = read_sweep_csv(cold_sweep)
    assert doc == resolved
    assert len(rows) == 8
    assert set(rows[0]) == set(CSV_COLUMNS)


def test_row_order_and_temperatures(cold_sweep):
    _, rows = read_sweep_csv(cold_sweep)
    combos = [(r["T1_K"], r["T2_K"], r["Tenv_K"]) for r in rows[::2]]
    assert combos == [(0.0, 0.0, 0.0), (300.0, 0.0, 0.0),
                      (0.0, 300.0, 0.0), (300.0, 300.0, 0.0)]
    assert [r["d_m"] for r in rows[:2]] == [8e-6, 1e-5]


def test_all_sources_cold_gives_zero_rows(cold_sweep):
    _, rows = read_sweep_csv(cold_sweep)
    for row in rows[:2]:
        for key in CSV_COLUMNS[4:19]:
            assert row[key] == 0.0
        assert row["F1_sign"] == "zero"
        assert row["F2_sign"] == "zero"


def test_decomposition_identity_per_row(cold_sweep, warm_sweep):
    # the %.12e round trip leaves residuals at 1e-13 of the largest
    # component, which matters on rows where the components cancel
    for path in (cold_sweep, warm_sweep):
        _, rows = read_sweep_csv(path)
        for r in rows:
            parts = (r["F_eq"], r["F1_self"], r["F1_int"],
                     r["F1_env_subtraction"])
            scale = max(abs(p) for p in parts) + 1e-300
            assert abs(r["F1_total"] - sum(parts)) <= 1e-10 * scale
            parts2 = (-r["F_eq"], r["F2_self"], r["F2_int"],
                      r["F2_env_subtraction"])
            assert abs(r["F2_total"] - sum(parts2)) <= 1e-10 * scale
            assert abs(r["F1_int"] - r["F1_int_prop"] - r["F1_int_evan"]) \
                <= 1e-10 * (abs(r["F1_int_prop"])
                            + abs(r["F1_int_evan"]) + 1e-300)


def test_mirror_rows(cold_sweep):
    # identical cylinders: swapping T1 and T2 flips the axis
    _, rows = read_sweep_csv(cold_sweep)
    hot1 = [r for r in rows if (r["T1_K"], r["T2_K"]) == (300.0, 0.0)]
    hot2 = [r for r in rows if (r["T1_K"], r["T2_K"]) == (0.0, 300.0)]
    for a, b in zip(hot1, hot2):
        assert a["d_m"] == b["d_m"]
        assert a["F1_total"] == -b["F2_total"]
        assert a["F2_total"] == -b["F1_total"]
        assert a["F1_int"] == -b["F2_int"]


def test_equal_temperature_row_is_pure_equilibrium(warm_sweep):
    _, rows = read_sweep_csv(warm_sweep)
    eq_row = [r for r in rows
              if (r["T1_K"], r["T2_K"], r["Tenv_K"]) == (300.0,) * 3][0]
    # global equilibrium: the totals collapse to the (zero) ingested
    # equilibrium while the breakdown columns cancel rather than vanish
    assert eq_row["F1_total"] == 0.0
    assert eq_row["F2_total"] == 0.0
    assert eq_row["F1_sign"] == "zero"
    assert eq_row["F2_sign"] == "zero"
    assert eq_row["F1_self"] != 0.0
    assert eq_row["F1_env_subtraction"] == pytest.approx(
        -(eq_row["F1_self"] + eq_row["F1_int"]), rel=1e-10)
    # the cold-source rows do subtract environment radiation
    cold_row = [r for r in rows
                if (r["T1_K"], r["T2_K"], r["Tenv_K"])
                == (0.0, 0.0, 300.0)][0]
    assert cold_row["F1_env_subtraction"] != 0.0
    assert cold_row["F1_total"] != 0.0


def test_rerun_is_byte_identical(tmp_path):
    doc = _base_doc()
    doc["separations"] = {"values": [8.0], "unit": "um"}
    doc["temperature_sets"] = {"unit": "K", "sets": [[300, 0, 0]]}
    src = _write(tmp_path, "re.json", doc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["run", src, "--out", str(a)]) == 0
    assert _run(["run", src, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_swapped_scenario_negates_forces(tmp_path):
    base = _base_doc()
    base["separations"] = {"values": [8.0], "unit": "um"}
    base["cylinder2"]["radius"] = {"value": 0.07, "unit": "um"}
    base["temperature_sets"] = {"unit": "K", "sets": [[300, 200, 0]]}
    swapped = _base_doc()
    swapped["separations"] = {"values": [8.0], "unit": "um"}
    swapped["cylinder1"]["radius"] = {"value": 0.07, "unit": "um"}
    swapped["temperature_sets"] = {"unit": "K", "sets": [[200, 300, 0]]}
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["run", _write(tmp_path, "a.json", base),
                 "--out", str(out_a)]) == 0
    assert _run(["run", _write(tmp_path, "b.json", swapped),
                 "--out", str(out_b)]) == 0
    _, rows_a = read_sweep_csv(out_a)
    _, rows_b = read_sweep_csv(out_b)
    assert rows_a[0]["F1_total"] == -rows_b[0]["F2_total"]
    assert rows_a[0]["F2_total"] == -rows_b[0]["F1_total"]
    assert rows_a[0]["F1_int"] == -rows_b[0]["F2_int"]
    assert rows_a[0]["F1_self"] == -rows_b[0]["F2_self"]


def test_run_to_stdout(tmp_path, capsys):
    path = _write(tmp_path, "root.json", _vacuum_root_doc())
    assert _run(["run", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# scenario: ")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 3


def test_scenario_output_is_beside_the_scenario(tmp_path, monkeypatch):
    # a scenario's "output" is read relative to the scenario file, as
    # its material and equilibrium files are; --out relative to the
    # working folder
    (tmp_path / "sub").mkdir()
    doc = _vacuum_root_doc()
    doc["output"] = "v.csv"
    _write(tmp_path / "sub", "v.json", doc)
    monkeypatch.chdir(tmp_path)
    assert _run(["run", "sub/v.json"]) == 0
    assert (tmp_path / "sub" / "v.csv").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
    assert _run(["run", "sub/v.json", "--out", "w.csv"]) == 0
    assert (tmp_path / "w.csv").read_text() \
        == (tmp_path / "sub" / "v.csv").read_text()


def test_provider_override_recorded(tmp_path):
    path = _write(tmp_path, "root.json", _vacuum_root_doc())
    out = tmp_path / "full.csv"
    assert _run(["run", path, "--provider", "full",
                 "--out", str(out)]) == 0
    doc, _ = read_sweep_csv(out)
    assert doc["provider"] == "full"


def test_rel_tol_override_validation(tmp_path, capsys):
    path = _write(tmp_path, "root.json", _vacuum_root_doc())
    out = tmp_path / "o.csv"
    assert _run(["run", path, "--rel-tol", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") \
        and "rel_tol" in err[0]
    assert _run(["run", path, "--rel-tol", "1e-2", "--out", str(out)]) == 0
    doc, _ = read_sweep_csv(out)
    assert doc["controls"]["rel_tol"] == 1e-2


def test_zeros_locates_and_classifies_root(tmp_path, capsys):
    path = _write(tmp_path, "root.json", _vacuum_root_doc())
    out = tmp_path / "root.csv"
    assert _run(["run", path, "--out", str(out)]) == 0
    assert _run(["zeros", str(out), "--rel-tol", "1e-6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T1_K,T2_K,Tenv_K,d_zero_m,stability"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[-1] == "stable"
    root = float(fields[3])
    assert root == pytest.approx(1e-6 * 10 ** 0.2, rel=1e-5)


def test_zeros_repeats_the_sweep_rows(tmp_path, capsys, monkeypatch):
    # one frequency integral per separation covers every temperature of
    # the sweep, so `zeros` evaluates each separation with the whole
    # file's temperatures: its force at a grid point is the CSV row's
    # bitwise, and the row's sign is the sign it refines
    doc = _base_doc()
    doc["separations"] = {"values": [6.2, 7.3], "unit": "um"}
    doc["controls"] = {"rel_tol": 1e-2}
    doc["temperature_sets"] = {"unit": "K",
                               "sets": [[300, 0, 0], [450, 0, 0]]}
    doc["equilibrium_file"] = str(SCENARIOS / "sic_equilibrium_standin.csv")
    path = _write(tmp_path, "two_sets.json", doc)
    out = tmp_path / "two_sets.csv"
    assert _run(["run", path, "--out", str(out)]) == 0
    _, rows = read_sweep_csv(out)
    seen = {}
    real_total = cli.total_force

    def recording(scenario, separation, **kwargs):
        b = real_total(scenario, separation, **kwargs)
        seen[b.t1, b.t2, b.t_env, separation] = b.f_total_1
        return b

    monkeypatch.setattr(cli, "total_force", recording)
    capsys.readouterr()
    assert _run(["zeros", str(out), "--rel-tol", "1e-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "3.000000000000e+02", "4.500000000000e+02"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        swept = engine.sweep(load_scenario(path)[0])
    grid = 0
    for row, b in zip(rows, swept):
        key = (b.t1, b.t2, b.t_env, b.separation)
        if key in seen:
            grid += 1
            assert seen[key] == b.f_total_1
            assert float(cli._FMT % seen[key]) == row["F1_total"]
    assert grid == 4


def test_zeros_refines_the_swept_scenario(tmp_path, capsys, monkeypatch):
    # the CSV holds T1 to 13 digits; `zeros` refines the scenario of its
    # header at T1's own float, so at the grid points it computes the
    # swept rows again, text for text
    t1 = 300.1234567890123
    doc = _base_doc()
    doc["separations"] = {"values": [6.2, 7.3], "unit": "um"}
    doc["controls"] = {"rel_tol": 1e-2}
    doc["cylinder1"]["temperature"] = {"value": t1, "unit": "K"}
    doc["cylinder2"]["temperature"] = {"value": 0, "unit": "K"}
    doc["environment_temperature"] = {"value": 0, "unit": "K"}
    doc["equilibrium_file"] = str(SCENARIOS / "sic_equilibrium_standin.csv")
    out = tmp_path / "t1.csv"
    assert _run(["run", _write(tmp_path, "t1.json", doc),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[2:]
    seen = {}
    real_total = cli.total_force

    def recording(scenario, separation, **kwargs):
        b = real_total(scenario, separation, **kwargs)
        seen[cli._FMT % separation] = b
        return b

    monkeypatch.setattr(cli, "total_force", recording)
    capsys.readouterr()
    assert _run(["zeros", str(out), "--rel-tol", "1e-2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    for line in lines:
        b = seen[line.split(",")[0]]
        assert b.t1 == t1
        assert cli._breakdown_row(b) == line


def test_zeros_rejects_unreachable_rel_tol(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "root.json", _vacuum_root_doc())
    out = tmp_path / "root.csv"
    assert _run(["run", path, "--out", str(out)]) == 0
    calls = []
    monkeypatch.setattr(cli, "total_force", lambda *a, **k: calls.append(a))
    for rel_tol in ("0", "-1", "nan"):
        capsys.readouterr()
        assert _run(["zeros", str(out), "--rel-tol", rel_tol]) == 2
        assert "rel_tol" in capsys.readouterr().err
    assert calls == []


def test_zeros_empty_without_sign_change(tmp_path, capsys):
    doc = _vacuum_root_doc()
    doc["equilibrium"]["F_eq_N_per_m"] = [-1.0, -4.0]
    path = _write(tmp_path, "mono.json", doc)
    out = tmp_path / "mono.csv"
    assert _run(["run", path, "--out", str(out)]) == 0
    assert _run(["zeros", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["T1_K,T2_K,Tenv_K,d_zero_m,stability"]


def test_zeros_rejects_rel_tol_without_a_sign_change(tmp_path, capsys,
                                                    monkeypatch):
    # the width is checked before any row is read, so a monotone CSV,
    # which refines no bracket, still exits 2
    doc = _vacuum_root_doc()
    doc["equilibrium"]["F_eq_N_per_m"] = [-1.0, -4.0]
    out = tmp_path / "mono.csv"
    assert _run(["run", _write(tmp_path, "mono.json", doc),
                 "--out", str(out)]) == 0
    assert len(read_sweep_csv(out)[1]) == 3
    reads = []
    real_read = cli.read_sweep_csv
    monkeypatch.setattr(cli, "read_sweep_csv",
                        lambda path: reads.append(path) or real_read(path))
    for rel_tol in ("0", "-1", "nan"):
        capsys.readouterr()
        assert _run(["zeros", str(out), "--rel-tol", rel_tol]) == 2
        captured = capsys.readouterr()
        assert "rel_tol" in captured.err and captured.out == ""
    assert reads == []


def test_exit_2_on_malformed_inputs(tmp_path, capsys):
    doc = _vacuum_root_doc()
    del doc["separations"]
    assert _run(["run", _write(tmp_path, "m.json", doc)]) == 2
    assert "separations" in capsys.readouterr().err

    garbage = tmp_path / "g.json"
    garbage.write_text("{not json")
    assert _run(["run", str(garbage)]) == 2
    assert "JSON" in capsys.readouterr().err

    headerless = tmp_path / "h.csv"
    headerless.write_text(",".join(CSV_COLUMNS) + "\n")
    assert _run(["zeros", str(headerless)]) == 2
    assert "scenario" in capsys.readouterr().err

    empty = tmp_path / "e.csv"
    empty.write_text("# scenario: {}\n" + ",".join(CSV_COLUMNS) + "\n")
    assert _run(["zeros", str(empty)]) == 2
    assert "no data rows" in capsys.readouterr().err

    # a row whose temperatures are none of its header's sets
    edited = tmp_path / "t.csv"
    assert _run(["run", _write(tmp_path, "t.json", _vacuum_root_doc()),
                 "--out", str(edited)]) == 0
    lines = edited.read_text().splitlines()
    fields = lines[2].split(",")
    fields[1] = "1.000000000000e+00"
    lines[2] = ",".join(fields)
    edited.write_text("\n".join(lines) + "\n")
    assert _run(["zeros", str(edited)]) == 2
    assert "match no temperature set" in capsys.readouterr().err

    # a NaN force, which would make up a bracket on each side of it
    nan_force = tmp_path / "n.csv"
    assert _run(["run", _write(tmp_path, "n.json", _vacuum_root_doc()),
                 "--out", str(nan_force)]) == 0
    lines = nan_force.read_text().splitlines()
    fields = lines[3].split(",")
    fields[CSV_COLUMNS.index("F1_total")] = "nan"
    lines[3] = ",".join(fields)
    nan_force.write_text("\n".join(lines) + "\n")
    assert _run(["zeros", str(nan_force)]) == 2
    assert "must be finite" in capsys.readouterr().err

    # a scenario header over rows without the force columns fails
    # before the output header is written
    cut = tmp_path / "c.csv"
    cut.write_text("\n".join([lines[0], "d_m,T1_K,T2_K,Tenv_K"] + [
        ",".join(line.split(",")[:4]) for line in lines[2:]]) + "\n")
    assert _run(["zeros", str(cut)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "F1_total" in err[0]

    # a material parameter that is not a number
    doc = _vacuum_root_doc()
    doc["cylinder1"]["material"] = {
        "name": "absorber", "model": "low_freq",
        "parameters": {"eps0": None, "lambda_in": 1e-8}}
    assert _run(["run", _write(tmp_path, "null.json", doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: cylinder1.material: ")
    assert "eps0" in err[0]


def test_exit_2_on_unreadable_and_unwritable_files(tmp_path, capsys,
                                                   monkeypatch):
    # a sweep CSV that is not there, and an output path in a missing
    # folder or naming a folder, each end with one error line naming
    # the file and exit 2, not a traceback
    missing = tmp_path / "missing.csv"
    assert _run(["zeros", str(missing)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(missing) in err[0]

    # both output paths are found before any sweep runs
    def no_sweep(scenario):
        raise AssertionError("swept before checking the output path")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    path = _write(tmp_path, "root.json", _vacuum_root_doc())
    for out in (tmp_path / "no" / "such" / "dir" / "x.csv", tmp_path):
        assert _run(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(out) in err[0]


def test_exit_3_on_quadrature_failure(tmp_path, capsys, monkeypatch):
    doc = _base_doc()
    doc["separations"] = {"values": [8.0], "unit": "um"}
    doc["temperature_sets"] = {"unit": "K", "sets": [[300, 0, 0]]}
    doc["controls"] = {"rel_tol": 1e-12}
    monkeypatch.setattr(engine, "MAX_PANELS", 8)
    path = _write(tmp_path, "choke.json", doc)
    assert _run(["run", path, "--out", str(tmp_path / "x.csv")]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_exit_3_on_a_scattering_block_failure(tmp_path, capsys,
                                              monkeypatch):
    # a block the provider cannot evaluate ends the run with one error
    # line and exit 3, not a traceback
    def failing(self, orders, ktz, omega):
        raise TMatrixError("ktilde_z on the light line is not evaluable")

    monkeypatch.setattr(tmatrix.ThinExpansion, "blocks", failing)
    doc = _base_doc()
    doc["temperature_sets"] = {"unit": "K", "sets": [[300, 0, 0]]}
    path = _write(tmp_path, "block.json", doc)
    assert _run(["run", path, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: scattering block not evaluable: ktilde_z on the light "
        "line is not evaluable"]


def test_compare_weight(capsys):
    assert _run(["compare-weight", "--density", "19300",
                 "--radius", "2e-8"]) == 0
    out = capsys.readouterr().out
    value = float(out.split("=")[1])
    assert value == pytest.approx(
        19300.0 * math.pi * (2e-8) ** 2 * G_STANDARD, rel=1e-12)
    # about a quarter of a femtonewton per micrometer of wire
    assert value == pytest.approx(2.38e-10, rel=0.01)

    assert _run(["compare-weight", "--density", "19300",
                 "--radius", "2e-8", "--force=-1e-11"]) == 0
    out = capsys.readouterr().out
    assert "weight_to_force_ratio" in out
    ratio = float(out.splitlines()[-1].split("=")[1])
    assert ratio == pytest.approx(value / 1e-11, rel=1e-5)

    assert _run(["compare-weight", "--density", "-1",
                 "--radius", "2e-8"]) == 2


def test_compare_ampere(capsys):
    assert _run(["compare-ampere", "--current1", "17e-6",
                 "--current2", "17e-6", "--distance", "0.4e-6"]) == 0
    out = capsys.readouterr().out
    value = float(out.split("=")[1])
    assert value == pytest.approx(
        MU_0 * 17e-6 * 17e-6 / (2 * math.pi * 0.4e-6), rel=1e-12)
    assert value == pytest.approx(1.445e-10, rel=1e-3)

    # opposite currents repel: a negative force, and still a ratio of
    # magnitudes, as the weight's
    assert _run(["compare-ampere", "--current1", "-17e-6",
                 "--current2", "17e-6", "--distance", "0.4e-6",
                 "--force", "-1e-10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split("=")[1]) == -value
    assert lines[2] == "ampere_to_force_ratio = %.6g" % (value / 1e-10)

    assert _run(["compare-ampere", "--current1", "1", "--current2", "1",
                 "--distance", "0"]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, name", [
    (["compare-weight", "--density={}", "--radius", "2e-8"], "density"),
    (["compare-weight", "--density", "19300", "--radius={}"], "radius"),
    (["compare-ampere", "--current1={}", "--current2", "1",
      "--distance", "1e-6"], "current1"),
    (["compare-ampere", "--current1", "1", "--current2={}",
      "--distance", "1e-6"], "current2"),
    (["compare-ampere", "--current1", "1", "--current2", "1",
      "--distance={}"], "separation"),
    (["compare-weight", "--density", "19300", "--radius", "2e-8",
      "--force={}"], "force"),
    (["compare-ampere", "--current1", "1", "--current2", "1",
      "--distance", "1e-6", "--force", "{}"], "force")])
def test_compare_rejects_non_finite_arguments(capsys, argv, name, bad):
    assert _run([a.format(bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s must be finite" % name in captured.err


@pytest.mark.parametrize("argv, value, force", [
    # a negative force as `run` writes it, after a space
    (["compare-weight", "--density", "19300", "--radius", "2e-8",
      "--force", "-2.378416168836e-10"],
     19300.0 * math.pi * (2e-8) ** 2 * G_STANDARD, -2.378416168836e-10),
    (["compare-weight", "--density", "19300", "--radius", "2e-8",
      "--force=-2.378416168836e-10"],
     19300.0 * math.pi * (2e-8) ** 2 * G_STANDARD, -2.378416168836e-10),
    (["compare-ampere", "--current1", "-1e-3", "--current2", "1e-3",
      "--distance", "1e-6", "--force", "-1.5e-12"],
     -MU_0 * 1e-6 / (2 * math.pi * 1e-6), -1.5e-12),
    (["compare-ampere", "--current1", "2", "--current2", "-.5",
      "--distance", "1e-6", "--force", "3E+2"],
     -MU_0 / (2 * math.pi * 1e-6), 300.0)])
def test_compare_reads_negative_numbers_after_a_space(capsys, argv, value,
                                                      force):
    assert _run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    got = [float(line.split("=")[1]) for line in lines]
    assert [line.split(" = ")[0] for line in lines][1:] == [
        "force_N_per_m", argv[0].split("-")[1] + "_to_force_ratio"]
    assert got[0] == pytest.approx(value, rel=1e-12)
    assert got[1] == force
    assert got[2] == pytest.approx(abs(value) / abs(force), rel=1e-5)


# the breakdown field that each numeric column of a sweep CSV names
_COLUMN_FIELDS = {
    "d_m": "separation", "T1_K": "t1", "T2_K": "t2", "Tenv_K": "t_env",
    "F1_total": "f_total_1", "F2_total": "f_total_2",
    "F1_int": "f_int_21", "F1_int_prop": "f_int_21_prop",
    "F1_int_evan": "f_int_21_evan", "F1_self": "f_self_1",
    "F1_pair_source": "f_pair_source_1",
    "F1_env_subtraction": "f_env_subtraction_1",
    "F2_int": "f_int_12", "F2_int_prop": "f_int_12_prop",
    "F2_int_evan": "f_int_12_evan", "F2_self": "f_self_2",
    "F2_pair_source": "f_pair_source_2",
    "F2_env_subtraction": "f_env_subtraction_2", "F_eq": "f_eq"}


def test_each_csv_column_holds_the_field_it_names(tmp_path):
    # every field differs, so a column that holds another field fails;
    # the sign columns read f_total_1 > 0 and f_total_2 < 0 as repel
    names = [f.name for f in dataclasses.fields(engine.ForceBreakdown)]
    assert sorted(names) == sorted(_COLUMN_FIELDS.values())
    assert [c for c in CSV_COLUMNS if c not in _COLUMN_FIELDS] == [
        "F1_sign", "F2_sign"]
    base = engine.ForceBreakdown(**{
        name: float("%s%d.5e-12" % ("-" if i % 3 else "", i + 1))
        for i, name in enumerate(names)})
    rows = [(dataclasses.replace(base, f_total_1=f1, f_total_2=f2), signs)
            for f1, f2, signs in ((1.25e-10, -2.25e-10, ("repel", "repel")),
                                  (-1.25e-10, 2.25e-10, ("attract", "attract")),
                                  (0.0, -0.0, ("zero", "zero")),
                                  (1.25e-10, 2.25e-10, ("repel", "attract")))]
    path = tmp_path / "columns.csv"
    with open(path, "w", newline="") as handle:
        cli.write_sweep_csv([b for b, _ in rows], {"name": "columns"},
                            handle)
    doc, read = read_sweep_csv(path)
    assert doc == {"name": "columns"}
    assert len(read) == len(rows)
    for (b, signs), got in zip(rows, read):
        for column, name in _COLUMN_FIELDS.items():
            assert got[column] == getattr(b, name), column
        assert (got["F1_sign"], got["F2_sign"]) == signs


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_standard_output_exits_quietly(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "root.json", _vacuum_root_doc())
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert _run(["run", path]) == 1
    assert capsys.readouterr().err == ""


def test_reference_force_helpers():
    assert weight_per_length(0.0, 1.0) == 0.0
    assert ampere_force_per_length(2.0, 3.0, 1.0) == pytest.approx(
        MU_0 * 6.0 / (2.0 * math.pi), rel=1e-15)
    with pytest.raises(ValueError):
        weight_per_length(-1.0, 1.0)
    with pytest.raises(ValueError):
        ampere_force_per_length(1.0, 1.0, -2.0)
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                weight_per_length(*args)
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                ampere_force_per_length(*args)


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
