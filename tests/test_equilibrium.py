"""Equilibrium table ingestion: CSV parsing, log-d interpolation,
range handling, and schema rejection."""

import math

import numpy as np
import pytest

from neqcasimir.engine import Scenario, total_force
from neqcasimir.equilibrium import EquilibriumTable
from neqcasimir.errors import SchemaError
from neqcasimir.materials import CylinderSpec, load_material

D = np.array([0.5e-6, 1e-6, 2e-6, 5e-6, 10e-6])


def _log_linear_table(alpha=-3.0, beta=0.25):
    # F = alpha + beta ln d is reproduced exactly by the interpolant
    f = alpha + beta * np.log(D)
    return EquilibriumTable(D, f), alpha, beta


def test_log_linear_interpolation_is_exact():
    table, alpha, beta = _log_linear_table()
    for d in (0.7e-6, 1.3e-6, 3.456e-6, 9.9e-6):
        want = alpha + beta * math.log(d)
        assert table.force(d) == pytest.approx(want, rel=1e-13)


def test_nodes_reproduced():
    table = EquilibriumTable(D, [1.0, -2.0, 4.0, -8.0, 16.0])
    assert table.force(2e-6) == 4.0
    assert table.force(0.5e-6) == 1.0
    assert table.force(10e-6) == 16.0


def test_out_of_range_raises_without_extrapolation():
    table, _, _ = _log_linear_table()
    with pytest.raises(ValueError):
        table.force(0.4e-6)
    with pytest.raises(ValueError):
        table.force(11e-6)
    with pytest.raises(ValueError):
        table.force(0.0)
    with pytest.raises(ValueError):
        table.force(float("nan"))


def test_extrapolation_extends_end_segments():
    f = -3.0 + 0.25 * np.log(D)
    table = EquilibriumTable(D, f, allow_extrapolation=True)
    for d in (0.1e-6, 50e-6):
        want = -3.0 + 0.25 * math.log(d)
        assert table.force(d) == pytest.approx(want, rel=1e-13)


def test_no_table_means_zero_equilibrium_force():
    # without a table, total_force adds exactly zero at any separation
    cold = CylinderSpec(1e-7, load_material("sic")[1])
    scenario = Scenario(cylinder1=cold, cylinder2=cold, separations=(1e-5,))
    for d in (1e-5, 0.3):
        b = total_force(scenario, d)
        assert b.f_eq == 0.0
        assert b.f_total_1 == b.f_total_2 == 0.0


def test_constructor_schema_errors():
    with pytest.raises(SchemaError):
        EquilibriumTable([1e-6], [1.0])
    with pytest.raises(SchemaError):
        EquilibriumTable([1e-6, 2e-6], [1.0])
    with pytest.raises(SchemaError):
        EquilibriumTable([1e-6, 1e-6], [1.0, 2.0])
    with pytest.raises(SchemaError):
        EquilibriumTable([2e-6, 1e-6], [1.0, 2.0])
    with pytest.raises(SchemaError):
        EquilibriumTable([-1e-6, 1e-6], [1.0, 2.0])
    with pytest.raises(SchemaError):
        EquilibriumTable([1e-6, 2e-6], [1.0, float("inf")])


def test_from_csv_roundtrip(tmp_path):
    path = tmp_path / "eq.csv"
    path.write_text(
        "# equilibrium standin\n"
        "# generated for tests\n"
        "d_m,F_eq_N_per_m\n"
        "1.0e-6,-2.5e-12\n"
        "4.0e-6,-1.0e-13\n"
        "9.0e-6,-8.0e-15\n")
    table = EquilibriumTable.from_csv(path)
    assert len(table) == 3
    assert table.force(1e-6) == -2.5e-12
    assert table.force(9e-6) == -8e-15
    assert table.label == str(path)
    # midpoint in log d between 1 um and 4 um
    mid = math.sqrt(1e-6 * 4e-6)
    assert table.force(mid) == pytest.approx(0.5 * (-2.5e-12 - 1e-13),
                                             rel=1e-13)


def test_from_csv_schema_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("sep,F\n1e-6,1.0\n2e-6,2.0\n")
    with pytest.raises(SchemaError):
        EquilibriumTable.from_csv(bad_header)

    empty = tmp_path / "e.csv"
    empty.write_text("# nothing but comments\n")
    with pytest.raises(SchemaError):
        EquilibriumTable.from_csv(empty)

    one_row = tmp_path / "o.csv"
    one_row.write_text("d_m,F_eq_N_per_m\n1e-6,1.0\n")
    with pytest.raises(SchemaError):
        EquilibriumTable.from_csv(one_row)

    non_numeric = tmp_path / "n.csv"
    non_numeric.write_text("d_m,F_eq_N_per_m\n1e-6,1.0\n2e-6,abc\n")
    with pytest.raises(SchemaError):
        EquilibriumTable.from_csv(non_numeric)

    wide = tmp_path / "w.csv"
    wide.write_text("d_m,F_eq_N_per_m\n1e-6,1.0,3.0\n2e-6,2.0\n")
    with pytest.raises(SchemaError):
        EquilibriumTable.from_csv(wide)

    unsorted = tmp_path / "u.csv"
    unsorted.write_text("d_m,F_eq_N_per_m\n2e-6,1.0\n1e-6,2.0\n")
    with pytest.raises(SchemaError):
        EquilibriumTable.from_csv(unsorted)


def test_packaged_standin_tables_load():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("sic_equilibrium_standin.csv",
                 "tungsten_equilibrium_standin.csv"):
        table = EquilibriumTable.from_csv(root / name)
        assert len(table) > 10
        # attractive everywhere and decaying in magnitude
        assert np.all(table.forces < 0)
        assert abs(table.forces[-1]) < abs(table.forces[0])


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
