"""Force engine: trivial nullities, exact reductions of the assembly,
channel accounting, scaling laws, convergence behavior, and agreement
with the closed-form asymptotics in their regimes."""

import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from neqcasimir import asymptotics, engine, kernels, materials, tmatrix
from neqcasimir.engine import (QuadratureControls, Scenario,
                               interaction_force, pair_source_force,
                               self_force, sweep, total_force)
from neqcasimir.equilibrium import EquilibriumTable
from neqcasimir.errors import QuadratureError
from neqcasimir.materials import (CylinderSpec, Vacuum, thermal_wavelength)
from neqcasimir.scenario import load_scenario
from neqcasimir.units import HBAR, K_BOLTZMANN

_, SIC = materials.load_material("sic")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
R = 0.1e-6
C1 = CylinderSpec(R, SIC, 300.0)
C2 = CylinderSpec(R, SIC, 300.0)
CTL = QuadratureControls(rel_tol=1e-3)

# shared medium-separation evaluation reused by several tests
V2UM, CH2UM = interaction_force(C1, C2, 300.0, 2e-6, controls=CTL)


def test_zero_temperature_source_is_null():
    v, ch = interaction_force(C1, C2, 0.0, 2e-6, controls=CTL)
    assert v == 0.0
    assert ch == {"propagating": 0.0, "evanescent": 0.0}
    assert pair_source_force(C1, C2, 0.0, 2e-6, controls=CTL) == 0.0


def test_vacuum_cylinder_is_null():
    vac = CylinderSpec(R, Vacuum(), 300.0)
    v, _ = interaction_force(vac, C2, 300.0, 2e-6, controls=CTL)
    assert v == 0.0
    v, _ = interaction_force(C1, vac, 300.0, 2e-6, controls=CTL)
    assert v == 0.0


def test_interaction_channels_sum_and_sign():
    assert V2UM == CH2UM["propagating"] + CH2UM["evanescent"]
    # SiC at 2 um: the evanescent channel attracts but the
    # propagating channel already dominates and pushes
    assert CH2UM["evanescent"] < 0.0
    assert CH2UM["propagating"] > 0.0
    assert V2UM > 0.0


def test_pair_source_returns_scalar():
    # only propagating modes contribute, so there is no channel split
    p = pair_source_force(C1, C2, 300.0, 2e-6, controls=CTL)
    assert isinstance(p, float)


def test_equal_temperature_reduces_to_equilibrium_bitwise():
    table = EquilibriumTable([1e-6, 1e-4], [-2.0, -1.0])
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                  environment_temperature=300.0, controls=CTL,
                  equilibrium=table)
    b = total_force(sc, 2e-6)
    assert b.f_total_1 == b.f_eq
    assert b.f_total_2 == -b.f_eq
    assert b.f_eq == table.force(2e-6)


def test_mirror_symmetry_bitwise():
    # identical cylinders at equal temperatures: F1 = -F2 through the
    # shared memo, not just approximately
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                  controls=CTL)
    b = total_force(sc, 2e-6)
    assert b.f_total_1 == -b.f_total_2


def test_index_swap_consistency():
    cA = CylinderSpec(0.1e-6, SIC, 300.0)
    cB = CylinderSpec(0.05e-6, SIC, 200.0)
    scA = Scenario(cylinder1=cA, cylinder2=cB, separations=(2e-6,),
                   controls=CTL)
    scB = Scenario(cylinder1=cB, cylinder2=cA, separations=(2e-6,),
                   controls=CTL)
    bA = total_force(scA, 2e-6)
    bB = total_force(scB, 2e-6)
    assert bA.f_total_1 == -bB.f_total_2
    assert bA.f_total_2 == -bB.f_total_1


def test_breakdown_decomposition_identity():
    cB = CylinderSpec(0.05e-6, SIC, 200.0)
    table = EquilibriumTable([1e-6, 1e-4], [-2.0, -1.0])
    sc = Scenario(cylinder1=C1, cylinder2=cB, separations=(2e-6,),
                  environment_temperature=100.0, controls=CTL,
                  equilibrium=table)
    b = total_force(sc, 2e-6)
    lhs1 = b.f_eq + b.f_self_1 + b.f_int_21 + b.f_env_subtraction_1
    assert abs(b.f_total_1 - lhs1) < 1e-12 * max(abs(b.f_total_1), 1e-300)
    lhs2 = -b.f_eq + b.f_self_2 + b.f_int_12 + b.f_env_subtraction_2
    assert abs(b.f_total_2 - lhs2) < 1e-12 * max(abs(b.f_total_2), 1e-300)


def test_cold_environment_assembly():
    # T_env = 0: the totals are pure source terms on top of f_eq
    sc = Scenario(cylinder1=C1, cylinder2=CylinderSpec(R, SIC, 0.0),
                  separations=(2e-6,), controls=CTL)
    b = total_force(sc, 2e-6)
    self1 = self_force(1, sc, 2e-6)
    assert b.f_total_1 == pytest.approx(self1, rel=1e-12)
    assert b.f_env_subtraction_1 == 0.0


def test_self_force_of_cylinder_2_is_its_breakdown_entry():
    # self_force(2) runs on the axis from cylinder 1 toward 2, so it is
    # the lab-axis f_self_2 negated, bitwise from one memo
    sc = Scenario(cylinder1=CylinderSpec(R, SIC, 0.0),
                  cylinder2=CylinderSpec(0.05e-6, SIC, 300.0),
                  separations=(2e-6,), controls=CTL)
    memo = {}
    b = total_force(sc, 2e-6, _memo=memo)
    assert b.f_self_2 != 0.0
    assert self_force(2, sc, 2e-6, _memo=memo) == -b.f_self_2


def test_far_field_positive_and_inverse_d():
    f60, _ = interaction_force(C1, C2, 300.0, 60e-6, controls=CTL)
    f120, _ = interaction_force(C1, C2, 300.0, 120e-6, controls=CTL)
    assert f60 > 0.0
    assert f120 > 0.0
    assert 1.9 < f60 / f120 < 2.1


def test_near_field_agrees_with_closed_form():
    # the d^-6 / d^-4 closed form is the evanescent-channel physics;
    # at 2 um the propagating channel is already comparable, so the
    # comparison is per channel
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        near = asymptotics.interaction_near(R, R, SIC, SIC, 300.0, 2e-6)
    assert abs(near - CH2UM["evanescent"]) < 0.05 * abs(near)


def test_pair_source_small_against_interaction():
    # d = lambda_T / 20: the pair term is negligible against the
    # interaction term, which also gives Newton's third law
    d = thermal_wavelength(300.0) / 20.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = pair_source_force(C1, C2, 300.0, d, controls=CTL)
        v, _ = interaction_force(C1, C2, 300.0, d, controls=CTL)
    assert abs(p / v) < 0.05
    self1 = p + v
    # force on 1 from its own sources vs (minus) force on 2 from the
    # same sources: equal and opposite up to the pair term
    assert abs(self1 - v) <= 0.05 * abs(self1)


def test_short_range_evanescent_monotone():
    mags = []
    for d in (0.5e-6, 0.7e-6, 0.9e-6):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, ch = interaction_force(C1, C2, 300.0, d, controls=CTL)
        mags.append(abs(ch["evanescent"]))
    assert mags[0] > mags[1] > mags[2]


def test_radius_scaling_fourth_power():
    # the thin provider leaves out the quadratic term: exact x1^2 x2^2
    # scaling
    assert tmatrix.ThinExpansion.quadratic_term is False
    a = CylinderSpec(0.05e-6, SIC, 300.0)
    b = CylinderSpec(0.025e-6, SIC, 300.0)
    fa, _ = interaction_force(a, CylinderSpec(0.05e-6, SIC, 300.0),
                              300.0, 2e-6, controls=CTL)
    fb, _ = interaction_force(b, CylinderSpec(0.025e-6, SIC, 300.0),
                              300.0, 2e-6, controls=CTL)
    assert abs(16.0 * fb - fa) < 0.01 * abs(fa)


def test_tolerance_refinement_consistency():
    fine, _ = interaction_force(C1, C2, 300.0, 2e-6,
                                controls=QuadratureControls(rel_tol=5e-4))
    assert abs(V2UM - fine) <= 1e-3 * abs(fine)


@pytest.mark.parametrize("provider, rel_tol", [
    ("thin", 1e-2), ("thin", 1e-4), ("full", 1e-3)])
def test_one_k_product_table_per_integral(monkeypatch, provider, rel_tol):
    # the evanescent y-grids are fixed for the whole integral, so the
    # order probe builds its K-product table once for all its
    # frequencies and the grid calibration once per factor it tries;
    # the outer frequency integral reuses the calibration's table of
    # the factor it settles on, however many nodes it takes
    calls = []
    phase = {"name": "outside"}
    real_table = kernels.k_product_table

    def counting_table(y, nu_max):
        calls.append(phase["name"])
        return real_table(y, nu_max)

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            outer, phase["name"] = phase["name"], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase["name"] = outer
        return wrapped

    nodes = []

    def counting_outer(f, *args, **kwargs):
        def integrand(u):
            nodes.append(len(u))
            return f(u)
        return real_outer(integrand, *args, **kwargs)

    real_outer = engine.adaptive_vector
    monkeypatch.setattr(kernels, "k_product_table", counting_table)
    monkeypatch.setattr(engine, "_probe_orders",
                        in_phase("probe", engine._probe_orders))
    monkeypatch.setattr(engine, "_grid_factor",
                        in_phase("grid", engine._grid_factor))
    monkeypatch.setattr(engine, "adaptive_vector",
                        in_phase("outer", counting_outer))
    ctl = QuadratureControls(rel_tol=rel_tol, n_max=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        interaction_force(C1, C2, 300.0, 2e-6, provider=provider,
                          controls=ctl)
    assert sum(nodes) >= 120
    assert calls.count("outer") == 0
    assert calls.count("grid") >= 2
    assert calls.count("probe") == (1 if provider == "full" else 0)
    assert calls.count("outside") == 0
    assert len(calls) == calls.count("probe") + calls.count("grid")


def _counting_outer(monkeypatch, phase=None):
    """Patch the engine's outer integrator to count its calls, its
    outer nodes and each node value; phase["outer"], if given, is True
    inside its integrand."""
    counts = {"calls": 0, "nodes": 0, "values": Counter()}
    phase = {} if phase is None else phase
    real_outer = engine.adaptive_vector

    def counting_outer(f, *args, **kwargs):
        counts["calls"] += 1

        def integrand(u):
            counts["nodes"] += len(u)
            counts["values"].update(np.asarray(u).tolist())
            phase["outer"] = True
            try:
                return f(u)
            finally:
                phase["outer"] = False
        return real_outer(integrand, *args, **kwargs)

    monkeypatch.setattr(engine, "adaptive_vector", counting_outer)
    return counts


def _recording_blocks(monkeypatch, phase):
    """Patch both providers to record every blocks call: inside the
    outer integrand (phase["outer"]) or not, the cylinder, the omega
    of every row, the ktilde_z nodes and the block entries."""
    calls = []

    def recording(blocks):
        def wrapped(self, orders, ktz, omega):
            ktz = np.asarray(ktz, dtype=float)
            calls.append({"outer": phase.get("outer", False),
                          "cylinder": (self.material, self.radius),
                          "omega": np.broadcast_to(omega, ktz.shape).copy(),
                          "ktz": ktz, "entries": ktz.size * np.size(orders)})
            return blocks(self, orders, ktz, omega)
        return wrapped

    for cls in (tmatrix.ThinExpansion, tmatrix.FullSolve):
        monkeypatch.setattr(cls, "blocks", recording(cls.blocks))
    return calls


def _check_outer_calls(calls, counts, distinct):
    """The outer integral's provider calls batch a panel's nodes: every
    outer node is a distinct value, its omega appears in exactly one
    call per distinct cylinder, with both light-line branches; there
    are fewer calls than nodes, and no provider call of the pass (order
    probe, grid calibration or outer integral) exceeds the engine's
    entry budget."""
    assert len(counts["values"]) == counts["nodes"]
    outer = [c for c in calls if c["outer"]]
    seen = Counter((c["cylinder"], w) for c in outer
                   for w in np.unique(c["omega"]).tolist())
    omegas = {w for _, w in seen}
    assert len(omegas) == counts["nodes"]
    assert len(seen) == distinct * len(omegas)
    assert set(seen.values()) == {1}
    for c in outer:
        for w in np.unique(c["omega"]):
            ktz = c["ktz"][c["omega"] == w]
            assert np.any(ktz > 1.0) and np.any(ktz < 1.0)
    assert len(outer) < counts["nodes"]
    assert max(c["entries"] for c in calls) <= engine._MAX_BLOCK_ENTRIES


@pytest.mark.parametrize("provider, rel_tol, radius2", [
    ("thin", 1e-2, R), ("thin", 1e-2, 2.0 * R), ("full", 1e-3, R)])
def test_evanescent_blocks_once_per_node(monkeypatch, provider, rel_tol,
                                         radius2):
    # the -k_z evanescent blocks come from the exact k_z parity, so an
    # interaction integral never asks a provider for ktilde_z < -1, and
    # each outer node's propagating and evanescent blocks come from one
    # call per distinct provider, shared with the other nodes of its
    # panel up to the entry budget
    phase = {"outer": False}
    calls = _recording_blocks(monkeypatch, phase)
    counts = _counting_outer(monkeypatch, phase)
    ctl = QuadratureControls(rel_tol=rel_tol, n_max=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        interaction_force(C1, CylinderSpec(radius2, SIC, 300.0), 300.0,
                          2e-6, provider=provider, controls=ctl)
    assert counts["nodes"] >= 120
    assert not any(np.any(c["ktz"] < -1.0) for c in calls)
    _check_outer_calls(calls, counts, 1 if radius2 == R else 2)


HOT_SETS = ((450.0, 300.0, 300.0), (300.0, 450.0, 300.0),
            (300.0, 150.0, 300.0), (300.0, 300.0, 300.0))


def test_sweep_shares_one_integral_per_separation(monkeypatch):
    # every temperature and both kernels of identical cylinders are
    # channels of one frequency integral per separation, and the sweep
    # keeps its bitwise equal-temperature and mirror rows
    counts = _counting_outer(monkeypatch)
    table = EquilibriumTable([1e-7, 1e-4], [-2.0, -2.0])
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                  controls=QuadratureControls(rel_tol=1e-2),
                  equilibrium=table, environment_temperature=300.0,
                  temperature_sets=HOT_SETS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = sweep(sc)
    assert counts["calls"] == 1
    assert rows[3].f_total_1 == -2.0 and rows[3].f_total_2 == 2.0
    assert rows[0].f_total_1 == -rows[1].f_total_2
    assert rows[0].f_total_2 == -rows[1].f_total_1
    assert rows[0].f_total_1 != -2.0 and rows[2].f_total_1 != -2.0


def test_total_force_repeats_its_sweep_row():
    # a force depends only on (scenario, separation): total_force on
    # the scenario of one temperature set covers the temperatures of
    # every set, as the sweep's passes do, so it repeats that set's
    # row bitwise
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                  controls=CTL, temperature_sets=HOT_SETS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = sweep(sc)
        for (t1, t2, te), row in zip(HOT_SETS, rows):
            one = replace(sc, cylinder1=replace(C1, temperature=t1),
                          cylinder2=replace(C2, temperature=t2),
                          environment_temperature=te)
            assert total_force(one, 2e-6) == row


def test_fused_integral_one_blocks_call_per_node(monkeypatch):
    # each outer node is in one provider call, which serves the
    # propagating interaction and pair sums and the evanescent sum of
    # every temperature
    phase = {"outer": False}
    calls = _recording_blocks(monkeypatch, phase)
    counts = _counting_outer(monkeypatch, phase)
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                  controls=QuadratureControls(rel_tol=1e-2),
                  environment_temperature=300.0, temperature_sets=HOT_SETS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sweep(sc)
    assert counts["calls"] == 1 and counts["nodes"] >= 120
    _check_outer_calls(calls, counts, 1)


def test_every_provider_call_within_the_entry_budget(monkeypatch):
    # six temperatures give the order probe 18 frequencies, whose
    # 124 rows each (30 psi and 94 y rows) at the full provider's 17
    # cap orders would make 37,944 block entries in one call: the probe
    # splits them into runs within the budget, as the grid calibration
    # and the outer integral split theirs
    phase = {"outer": False}
    calls = _recording_blocks(monkeypatch, phase)
    counts = _counting_outer(monkeypatch, phase)
    temps = (150.0, 300.0, 450.0, 600.0, 750.0, 1050.0)
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                  provider="full", environment_temperature=300.0,
                  controls=QuadratureControls(rel_tol=1e-2),
                  temperature_sets=tuple((t, 300.0, 300.0) for t in temps))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        total_force(sc, 2e-6)
    assert counts["calls"] == 1
    _check_outer_calls(calls, counts, 1)
    probe = [c for c in calls if c["ktz"].size * 17 == c["entries"]
             and not c["outer"]]
    probed = set(np.concatenate([c["omega"] for c in probe]).tolist())
    assert len(probed) == 18 and len(probe) >= 3


def _one_group(prov, omegas, d, orders, sums, n_panels, evan):
    """The axial integrals of one group of nodes: the _integrals of
    their _rows, as _axial forms them for each group."""
    rows = engine._rows(prov, prov, omegas, d, orders, n_panels, evan)
    return engine._integrals(prov, int(orders[-1]), sums, d, *rows, evan)


@pytest.mark.parametrize("provider", ["thin", "full"])
def test_inner_does_not_depend_on_its_batch(monkeypatch, provider):
    # a node's axial integrals do not depend on the other nodes of its
    # group, on ragged psi grids (4 to 18 panels): bitwise with thin
    # blocks, and with full blocks within the BLAS rounding of the
    # order sums, which depends on a row's position in the batch
    prov = engine._make_provider(provider, C1)
    orders = np.arange(-2, 3)
    d = 20e-6
    omegas = np.geomspace(2e12, 8e14, 15)
    n_panels = [engine._npanels(w * d / materials.C_LIGHT, 3.0)
                for w in omegas]
    assert len(set(n_panels)) > 1
    evan = engine._evan_tables(1, orders, engine._evan_edges(2 * R, d))
    sums = ("f", "e", "s")
    sizes = []
    real_rows = engine._rows

    def counting_rows(src, tgt, omegas, *args):
        sizes.append(len(omegas))
        return real_rows(src, tgt, omegas, *args)

    monkeypatch.setattr(engine, "_rows", counting_rows)
    monkeypatch.setattr(engine, "_MAX_BLOCK_ENTRIES", 10 ** 6)
    batch = engine._axial(prov, prov, omegas, d, orders, sums, 1, evan)
    monkeypatch.setattr(engine, "_MAX_BLOCK_ENTRIES", 1)
    single = engine._axial(prov, prov, omegas, d, orders, sums, 1, evan)
    assert sizes == [15] + [1] * 15
    assert batch.shape == (15, 3)
    if provider == "thin":
        assert np.array_equal(batch, single)
    else:
        assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))


def test_inner_working_set_per_block_entry():
    # the entry budget of a group is sized by the memory that one
    # group holds per block entry (rows x orders); a peak above
    # 250 bytes per entry would call for a smaller _MAX_BLOCK_ENTRIES
    _, tungsten = materials.load_material("tungsten_2400k")
    prov = engine._make_provider(
        "full", CylinderSpec(20e-9, tungsten, 2400.0))
    orders = np.arange(-4, 5)
    d = 0.5e-6
    omegas = np.array([0.5, 1.5, 3.0, 6.0, 12.0]) \
        * K_BOLTZMANN * 2400.0 / HBAR
    n_panels = [engine._npanels(w * d / materials.C_LIGHT, 10.0)
                for w in omegas]
    evan = engine._evan_tables(1, orders, engine._evan_edges(40e-9, d))
    rows = sum(engine._psi_grid(n)[0].size for n in n_panels) \
        + omegas.size * evan[0].size
    tracemalloc.start()
    try:
        _one_group(prov, omegas, d, orders, ("f", "e", "s"), n_panels, evan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 250 * rows * orders.size


def test_sweep_repeats_with_one_node_per_call(monkeypatch):
    # the entry budget only groups nodes: with one node per group a
    # thin sweep repeats the default sweep bitwise
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6, 20e-6),
                  controls=QuadratureControls(rel_tol=1e-3),
                  environment_temperature=300.0, temperature_sets=HOT_SETS)
    calls = []
    real_rows = engine._rows

    def counting_rows(src, tgt, omegas, *args):
        calls.append(len(omegas))
        return real_rows(src, tgt, omegas, *args)

    monkeypatch.setattr(engine, "_rows", counting_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = sweep(sc)
        assert max(calls) > 1
        calls.clear()
        monkeypatch.setattr(engine, "_MAX_BLOCK_ENTRIES", 1)
        single = sweep(sc)
    assert max(calls) == 1
    assert single == rows


def test_order_probe_repeats_no_block_call(monkeypatch):
    # one order probe per pass serves both kernels and every
    # temperature: within the entry budget it makes one provider call
    # per distinct cylinder, which holds every probe frequency once
    probes = []
    real_probe = engine._probe_orders

    def probing(*args, **kwargs):
        probes.append([])
        try:
            return real_probe(*args, **kwargs)
        finally:
            probes.append(None)

    def recording(blocks):
        def wrapped(self, orders, ktz, omega):
            if probes and probes[-1] is not None:
                probes[-1].append(((self.material, self.radius),
                                   np.unique(omega).tolist()))
            return blocks(self, orders, ktz, omega)
        return wrapped

    monkeypatch.setattr(engine, "_probe_orders", probing)
    monkeypatch.setattr(tmatrix.FullSolve, "blocks",
                        recording(tmatrix.FullSolve.blocks))
    wire = CylinderSpec(20e-9, materials.load_material("tungsten_2400K")[1],
                        2400.0)
    sc = Scenario(cylinder1=wire, cylinder2=replace(wire, radius=30e-9),
                  separations=(0.5e-6,), provider="full",
                  environment_temperature=1200.0,
                  controls=QuadratureControls(rel_tol=1e-2, n_max=3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        total_force(sc, 0.5e-6)
    probes = [p for p in probes if p is not None]
    # one pass per source cylinder; each probes 3 frequencies of each
    # of the 2 temperatures in one call on each of the 2 cylinders
    assert len(probes) == 2
    for calls in probes:
        assert len(calls) == 2
        assert len({cylinder for cylinder, _ in calls}) == 2
        assert calls[0][1] == calls[1][1]
        assert len(calls[0][1]) == 3 * 2


def test_conductor_evanescent_channel_converges():
    # the evanescent integrand of a conductor diverges like u^(-1/2) at
    # u -> 0, where the Kronrod - Gauss difference does not bound the
    # error; the first seed panel's omega = v^2 / omega_1 map makes it
    # regular, so rel_tol 1e-3 lands within 1e-3 of rel_tol 1e-5
    wire = CylinderSpec(20e-9, materials.load_material("tungsten_2400K")[1],
                        2400.0)
    evan = [interaction_force(wire, wire, 2400.0, 0.486e-6, provider="full",
                              controls=QuadratureControls(rel_tol=tol)
                              )[1]["evanescent"] for tol in (1e-3, 1e-5)]
    assert abs(evan[0] - evan[1]) <= 1e-3 * abs(evan[1])


def test_windows_skip_and_shrink():
    # a window is skipped where it reaches into the first seed panel or
    # past the last edge, or holds a jump of the live mask; overlapping
    # windows meet halfway between their poles
    edges = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0]
    poles = {(0.5, 0.01), (39.95, 0.01), (7.0, 0.01), (12.0, 0.1),
             (12.5, 0.05), (25.0, 0.2)}
    assert engine._windows(poles, edges, [0.0, 7.05, 40.0]) == [
        (11.0, 12.25, 12.0, 0.1), (12.25, 13.0, 12.5, 0.05),
        (23.0, 27.0, 25.0, 0.2)]
    assert engine._windows(set(), edges, [0.0, 40.0]) == []


def test_outer_map_continuous_monotone_and_identity_outside():
    windows = [(11.0, 12.25, 12.0, 0.1), (12.25, 13.0, 12.5, 0.05),
               (23.0, 27.0, 25.0, 0.2)]
    omega_1 = 2.0
    omega_of, centres = engine._outer_map(omega_1, windows)
    x = np.linspace(0.0, 40.0, 400001)
    omegas, jac = omega_of(x)
    assert np.all(np.diff(omegas) > 0.0) and np.all(jac[1:] > 0.0)
    # each window's pole sits at its centre, and its ends join the
    # pieces on either side
    assert omega_of(np.array(centres))[0] == pytest.approx([12.0, 12.5, 25.0],
                                                           rel=1e-14)
    for end in (omega_1, 11.0, 12.25, 13.0, 23.0, 27.0):
        near = omega_of(np.array([end - 1e-9, end, end + 1e-9]))[0]
        assert np.abs(near - end).max() < 1e-7
    # the Jacobian is the derivative, inside the windows and out
    inner = (x > 0.01) & np.all([np.abs(x - e) > 1e-3 for e in
                                 (omega_1, 11.0, 12.25, 13.0, 23.0, 27.0)],
                                axis=0)
    step = 1e-6
    slope = (omega_of(x[inner] + step)[0]
             - omega_of(x[inner] - step)[0]) / (2.0 * step)
    assert np.abs(slope / jac[inner] - 1.0).max() < 1e-6
    # bitwise the two-piece map outside the windows
    out = np.all([(x <= a) | (x >= b) for a, b, _, _ in windows], axis=0)
    below = out & (x < omega_1)
    assert np.array_equal(omegas[below], x[below] * x[below] / omega_1)
    assert np.array_equal(jac[below], 2.0 * x[below] / omega_1)
    above = out & (x >= omega_1)
    assert np.array_equal(omegas[above], x[above])
    assert np.all(jac[above] == 1.0)


def _recording_windows(monkeypatch):
    """Patch the engine's window rules to record (poles, windows) of
    every pass."""
    seen = []
    real = engine._windows

    def recording(poles, edges, jumps):
        seen.append((set(poles), real(poles, edges, jumps)))
        return seen[-1][1]

    monkeypatch.setattr(engine, "_windows", recording)
    return seen


def test_lone_thin_sic_call_flattens_its_resonances(monkeypatch):
    # the windows around SiC's two resonances replace the bisection of
    # two gamma-wide peaks: a lone interaction plus pair call takes at
    # most 35 outer panels, and stays within its tolerance
    source, target = CylinderSpec(R, SIC, 300.0), CylinderSpec(R, SIC, 0.0)
    counts = _counting_outer(monkeypatch)
    values = []
    for tol in (1e-4, 1e-6):
        ctl = QuadratureControls(rel_tol=tol)
        values.append((interaction_force(source, target, 300.0, 6.7e-6,
                                         controls=ctl)[0],
                       pair_source_force(source, target, 300.0, 6.7e-6,
                                         controls=ctl)))
        if tol == 1e-4:
            assert counts["nodes"] <= 35 * 15
    for coarse, fine in zip(*values):
        assert abs(coarse - fine) <= 1e-4 * abs(fine)


_, TUNGSTEN = materials.load_material("tungsten_2400K")
# a second polar crystal, whose windows overlap SiC's and each other's
OTHER_LORENTZ = materials.Lorentz(eps_inf=4.0, omega_lo=1.4e14,
                                  omega_to=1.2e14, gamma=1e12)


@pytest.mark.parametrize("other, provider, tol", [
    (TUNGSTEN, "full", 1e-2), (OTHER_LORENTZ, "thin", 1e-3)])
def test_asymmetric_pair_uses_both_materials_windows(monkeypatch, other,
                                                     provider, tol):
    # a SiC cylinder facing another material: each pass windows the
    # union of both materials' resonances, whichever is the source;
    # swapping the cylinders mirrors the forces bitwise, as in a sweep
    # that holds both orders, and rel_tol lands within rel_tol of
    # rel_tol / 100
    seen = _recording_windows(monkeypatch)
    sic, wire = CylinderSpec(0.05e-6, SIC, 300.0), CylinderSpec(0.05e-6,
                                                                 other, 200.0)

    def row(a, b, rel_tol, memo=None):
        return total_force(Scenario(
            cylinder1=a, cylinder2=b, separations=(2e-6,),
            environment_temperature=100.0, provider=provider,
            controls=QuadratureControls(rel_tol=rel_tol)), 2e-6, _memo=memo)

    memo = {}
    ab, ba = row(sic, wire, tol, memo), row(wire, sic, tol, memo)
    fine = row(sic, wire, tol / 100)
    union = set(materials.resonances(SIC) + materials.resonances(other))
    assert len(seen) == 4 and all(poles == union for poles, _ in seen)
    assert all(sorted(w for _, _, w, _ in windows) == sorted(
        w for w, _ in union) for _, windows in seen)
    if other is OTHER_LORENTZ:
        assert any(b == a_next for _, windows in seen for (_, b, _, _),
                   (a_next, _, _, _) in zip(windows, windows[1:]))
    assert ab.f_total_1 == -ba.f_total_2
    assert ab.f_total_2 == -ba.f_total_1
    for name in ("f_int_21", "f_int_12", "f_pair_source_1",
                 "f_pair_source_2"):
        coarse, ref = getattr(ab, name), getattr(fine, name)
        assert abs(coarse - ref) <= tol * abs(ref)


def test_cutoff_inside_a_window_skips_it(monkeypatch):
    # at u_min > 0 the 600 K channels start at omega_to, inside SiC's
    # first window, where the live mask jumps: that window is skipped,
    # the surface-mode window stays, and the pass converges
    seen = _recording_windows(monkeypatch)
    (w_to, _), (w_sp, _) = materials.resonances(SIC)
    ctl = QuadratureControls(rel_tol=1e-3,
                             u_min=HBAR * w_to / (K_BOLTZMANN * 600.0))
    sc = Scenario(cylinder1=CylinderSpec(R, SIC, 600.0),
                  cylinder2=CylinderSpec(R, SIC, 300.0),
                  separations=(6.7e-6,), controls=ctl)
    b = total_force(sc, 6.7e-6)
    assert np.isfinite([b.f_total_1, b.f_total_2]).all()
    assert b.f_total_1 != 0.0
    # identical cylinders share their one pass
    assert [[w for _, _, w, _ in windows] for _, windows in seen] == [[w_sp]]


def test_pair_integral_evaluates_no_evanescent_blocks(monkeypatch):
    # only propagating modes enter the pair force, so neither its order
    # probe nor its outer integral asks a provider for ktilde_z > 1
    ktz_max = []

    def recording(blocks):
        def wrapped(self, orders, ktz, omega):
            ktz_max.append(float(np.max(ktz)))
            return blocks(self, orders, ktz, omega)
        return wrapped

    for cls in (tmatrix.ThinExpansion, tmatrix.FullSolve):
        monkeypatch.setattr(cls, "blocks", recording(cls.blocks))
    pair = pair_source_force(C1, C2, 300.0, 2e-6, provider="full",
                             controls=QuadratureControls(rel_tol=1e-2,
                                                         n_max=2))
    assert np.isfinite(pair)
    assert max(ktz_max) < 1.0


def test_order_cap_warns_where_the_series_has_not_settled():
    # the pair series of 0.3 um SiC cylinders at 2 um needs order 3 to
    # settle at shells of rel_tol / 10 = 1e-3: a cap of 2 warns and
    # still gives a finite force, and a cap of 3 does not warn
    thick = CylinderSpec(0.3e-6, SIC, 300.0)
    pairs = []
    for n_max in (2, 3):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            pairs.append(pair_source_force(
                thick, thick, 300.0, 2e-6, provider="full",
                controls=QuadratureControls(rel_tol=1e-2, n_max=n_max)))
        capped = [w for w in seen if "order cap" in str(w.message)]
        assert len(capped) == (1 if n_max == 2 else 0)
        assert all(w.category is RuntimeWarning for w in capped)
    assert np.isfinite(pairs).all()


def test_lone_full_tungsten_call_stops_bisecting_toward_zero(monkeypatch):
    # a conductor's evanescent peak sits near y = (d / R) / |sqrt(eps)|,
    # below y = 0.05 at low u; the y grid graded toward y = 0 resolves
    # it, so the outer integral no longer chases the aliasing of a
    # coarse first panel toward omega = 0 (13 panels on the grid that
    # started at [0, 0.25], 7 on the graded one), and rel_tol 1e-3
    # stays within 1e-3 of rel_tol 1e-4
    wire = CylinderSpec(50e-9, TUNGSTEN, 200.0)
    counts = _counting_outer(monkeypatch)
    values = []
    for tol in (1e-3, 1e-4):
        values.append(interaction_force(
            wire, wire, 200.0, 2e-6, provider="full",
            controls=QuadratureControls(rel_tol=tol))[0])
        if tol == 1e-3:
            assert counts["nodes"] <= 9 * 15
    assert abs(values[0] - values[1]) <= 1e-3 * abs(values[1])


def _recording_y_grids(monkeypatch):
    """Patch the engine's passes and y tables to record the panel edges
    of every y grid, the order probe's included, as one list per
    pass."""
    passes = []
    real_pass, real_tables = engine._pass, engine._evan_tables

    def recording_pass(*args):
        passes.append([])
        return real_pass(*args)

    def recording_tables(factor, orders, panels):
        passes[-1].append(tuple(panels))
        return real_tables(factor, orders, panels)

    monkeypatch.setattr(engine, "_pass", recording_pass)
    monkeypatch.setattr(engine, "_evan_tables", recording_tables)
    return passes


def test_y_grid_ends_at_the_gaps_decay(monkeypatch):
    # the evanescent integrand is bounded by e^(-2 y (1 - (R1 + R2) / d)),
    # so a thin-wire pass ends its y grid on one panel [12, y_max] below
    # y = 18.5, while a pair at d = 1.2 (R1 + R2) keeps the tail to 35;
    # the order probe and the grid calibration of a pass read one grid
    passes = _recording_y_grids(monkeypatch)
    wire = CylinderSpec(20e-9, TUNGSTEN, 2400.0)
    interaction_force(wire, wire, 2400.0, 0.5e-6, provider="full",
                      controls=QuadratureControls(rel_tol=1e-2))
    for d in (1.7e-6, 23e-6):
        interaction_force(C1, C2, 300.0, d, controls=CTL)
    # the full provider's pass adds the probe's table to the two or
    # more of the calibration
    assert len(passes) == 3 and len(passes[0]) >= 3
    for seen in passes:
        assert len(set(seen)) == 1
        assert 16.0 < seen[0][-1] < 18.5 and seen[0][-2] == 12.0
    passes.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        interaction_force(C1, C2, 300.0, 1.2 * 2 * R, controls=CTL)
    assert len(passes) == 1 and passes[0]
    assert set(passes[0]) == {engine._EVAN_EDGES}


def _worst_move(rows, other):
    """Largest relative difference of any field of two sweeps."""
    return max(abs(x - y) / max(abs(x), abs(y), 1e-300)
               for a, b in zip(rows, other)
               for x, y in zip(astuple(a), astuple(b)))


def test_y_grid_tail_cut_moves_a_thin_sweep_by_rounding(monkeypatch):
    # the y grid's tail beyond y_max is negligible: against the whole
    # tail to y = 35, no field of a thin SiC sweep moves by more than
    # 1e-9 of itself.  Worst measured: 1.0e-10, the evanescent channel
    # of the 150 K source at 23 um, which is 1e-5 of the propagating one
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(1.7e-6, 23e-6),
                  controls=QuadratureControls(rel_tol=1e-3),
                  environment_temperature=300.0, temperature_sets=HOT_SETS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cut = sweep(sc)
        monkeypatch.setattr(engine, "_evan_edges",
                            lambda rsum, d: engine._EVAN_EDGES)
        whole = sweep(sc)
    assert _worst_move(cut, whole) <= 1e-9


WIRE_SWEEP = Scenario(
    cylinder1=CylinderSpec(20e-9, TUNGSTEN, 0.0),
    cylinder2=CylinderSpec(20e-9, TUNGSTEN, 0.0),
    separations=(0.5e-6, 1.5e-6), provider="full",
    environment_temperature=2400.0,
    controls=QuadratureControls(rel_tol=1e-3),
    temperature_sets=((0.0, 0.0, 2400.0), (2400.0, 0.0, 2400.0),
                      (2400.0, 2400.0, 2400.0)))


def test_gauss_y_panels_above_the_peak_move_no_sweep_field(monkeypatch):
    # the y panels above y = 0.25 take the 7-point Gauss rule, which
    # gives a thin wire 94 y rows per outer node in place of 150;
    # against Kronrod on every panel, no field of a thin SiC sweep or a
    # full tungsten sweep moves by more than 1e-8 of itself (measured:
    # 2.1e-10 on SiC and 1.8e-11 on tungsten)
    edges = engine._evan_edges(4e-8, 0.5e-6)
    assert engine._evan_tables(1, np.arange(-3, 4), edges)[0].size == 94
    thin = Scenario(cylinder1=C1, cylinder2=C2, separations=(1.7e-6, 23e-6),
                    controls=QuadratureControls(rel_tol=1e-3),
                    environment_temperature=300.0, temperature_sets=HOT_SETS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        graded = [sweep(sc) for sc in (thin, WIRE_SWEEP)]
        monkeypatch.setattr(engine, "_KRONROD_Y_MAX", math.inf)
        assert engine._evan_tables(1, np.arange(-3, 4), edges)[0].size == 150
        kronrod = [sweep(sc) for sc in (thin, WIRE_SWEEP)]
    for rows, other in zip(graded, kronrod):
        assert _worst_move(rows, other) <= 1e-8


def test_order_probe_shells_at_a_tenth_of_rel_tol(monkeypatch):
    # the order probe holds each shell to rel_tol / 10: at rel_tol 1e-3
    # a tungsten wire sweep takes orders -3 .. 3 where shells of 1e-6
    # take -4 .. 4, and no field moves by more than 1e-8 of itself
    # (measured: 1.2e-10)
    real = engine._probe_orders
    picked, shells = [], {}

    def probe(*args):
        args = list(args)
        args[6] = shells.get("tol", args[6])
        picked.append(real(*args))
        return picked[-1]

    monkeypatch.setattr(engine, "_probe_orders", probe)
    rows = sweep(WIRE_SWEEP)
    assert set(picked) == {3}
    picked.clear()
    shells["tol"] = 1e-6
    fine = sweep(WIRE_SWEEP)
    assert set(picked) == {4}
    assert _worst_move(rows, fine) <= 1e-8


def test_grid_calibration_floors_each_integral_at_its_group(monkeypatch):
    # in the shipped tungsten scenario at 3.862 um the evanescent
    # integral at u = 2.5 is about 1e-6 of the propagating one and
    # keeps moving on its own scale as the grid doubles; held to 1% of
    # its group, as the outer integral holds it, the pass calibrates to
    # grid factor 1.  Held to its own size, the factor climbed to 16,
    # whose first y node made ktilde_z round to exactly 1, and the row
    # failed
    sc, _ = load_scenario(SCENARIOS / "tungsten_hot_environment.json")
    d = min(sc.separations, key=lambda d: abs(d - 3.862e-6))
    factors = []
    real = engine._grid_factor

    def grid_factor(*args):
        out = real(*args)
        factors.append(out[0])
        return out

    phase = {"outer": False}
    calls = _recording_blocks(monkeypatch, phase)
    monkeypatch.setattr(engine, "_grid_factor", grid_factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = total_force(sc, d)
    assert np.isfinite(astuple(row)).all()
    assert factors == [1]
    assert calls and not any(np.any(c["ktz"] == 1.0) for c in calls)


def test_order_probe_weights_its_shells_as_the_pass_does():
    # the interaction shell is scored on the integrals the pass forms,
    # k^2 times the psi sum and 2 / d^2 times the y sum: here the shell
    # of order 5 at u = 15 is 1.5e-6 of the integral, above a shell
    # tolerance of 1e-6, which the unweighted sums put below it; the
    # pass's y grid and the grid cut at y = 12 give the same order
    prov = tmatrix.FullSolve(SIC, 0.5e-6)
    omegas = [u * K_BOLTZMANN * 450.0 / HBAR for u in engine._PROBE_US]
    pass_edges = engine._evan_edges(1e-6, 3e-6)
    assert pass_edges[-1] == pytest.approx(24.0)
    for edges in (pass_edges, engine._EVAN_EDGES[:10]):
        assert engine._probe_orders(prov, prov, omegas, 3e-6, ("int",), 8,
                                    1e-6, edges) == 6


def test_full_provider_with_a_high_order_cap():
    # the order probe builds its tables at the cap and reads only the
    # central columns; at n_max = 20 the outer columns overflow at the
    # probe's smallest arguments, which must neither fail the run nor
    # warn, and the probe settles on the same truncation as at n_max = 8
    wire = CylinderSpec(20e-9, materials.load_material("tungsten_2400K")[1],
                        2400.0)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_max in (8, 20):
            ctl = QuadratureControls(rel_tol=1e-2, n_max=n_max)
            results.append((
                interaction_force(wire, wire, 2400.0, 0.5e-6,
                                  provider="full", controls=ctl)[0],
                pair_source_force(wire, wire, 2400.0, 0.5e-6,
                                  provider="full", controls=ctl)))
    assert np.all(np.isfinite(results))
    assert results[1] == pytest.approx(results[0], rel=1e-12)


def test_overflowing_tables_raise_at_the_first_sum():
    # orders -32 .. 32 need table orders up to 64, which overflow at the
    # smallest y and qd nodes; the first kernel sum that reads them
    # raises, naming the order and the argument, instead of passing nan
    # on to the outer integral
    prov = tmatrix.ThinExpansion(SIC, R)
    orders = np.arange(-32, 33)
    d = 2e-6
    omega = 1e-3 * materials.C_LIGHT / d  # kd = 1e-3
    omegas = np.array([omega])
    with np.errstate(invalid="ignore"):  # inf * 0 inside the sums
        with pytest.raises(QuadratureError, match=r"order -?\d+ "
                           r"overflows at y = 4\.27231e-05"):
            _one_group(prov, omegas, d, orders, ("e",), (),
                       engine._evan_tables(1, orders, engine._EVAN_EDGES))
        for kernel in ("f", "s"):
            with pytest.raises(QuadratureError,
                               match=r"order -?\d+ overflows at qd = "):
                _one_group(prov, omegas, d, orders, (kernel,), (4,), None)
    # end to end: 8 um cylinders need more orders than the order probe
    # can represent at its smallest y node, and it stops there at once
    thick = CylinderSpec(8e-6, SIC, 300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(QuadratureError,
                           match=r"order -?\d+ overflows at y = "):
            interaction_force(thick, thick, 300.0, 20e-6, provider="full",
                              controls=QuadratureControls(rel_tol=1e-2,
                                                          n_max=32))


def test_memo_reuse_is_bitwise():
    memo = {}
    x1, _ = interaction_force(C1, C2, 300.0, 2e-6, controls=CTL,
                              _memo=memo)
    n_keys = len(memo)
    x2, _ = interaction_force(C1, C2, 300.0, 2e-6, controls=CTL,
                              _memo=memo)
    assert x1 == x2
    assert len(memo) == n_keys
    assert x1 == V2UM


def test_lone_calls_ignore_what_total_force_memoized():
    # the memo holds pass values only: after total_force has filled it,
    # a lone call still integrates only its own kind and temperature,
    # at a scenario temperature and at one outside the scenario
    sc = Scenario(cylinder1=C1, cylinder2=CylinderSpec(R, SIC, 0.0),
                  separations=(2e-6,), environment_temperature=150.0,
                  controls=CTL)
    memo = {}
    total_force(sc, 2e-6, _memo=memo)
    for temp in (300.0, 400.0):
        for call in (interaction_force, pair_source_force):
            assert (call(C1, C2, temp, 2e-6, controls=CTL, _memo=memo)
                    == call(C1, C2, temp, 2e-6, controls=CTL))


def test_sweep_singleton_matches_direct_call():
    sc = Scenario(cylinder1=C1, cylinder2=CylinderSpec(R, SIC, 0.0),
                  separations=(2e-6,), controls=CTL)
    rows = sweep(sc)
    assert len(rows) == 1
    direct = total_force(sc, 2e-6)
    assert rows[0].f_total_1 == direct.f_total_1
    assert rows[0].f_int_21 == direct.f_int_21


def test_sweep_grid_refinement_invariance():
    sc1 = Scenario(cylinder1=C1, cylinder2=CylinderSpec(R, SIC, 0.0),
                   separations=(2e-6,), controls=CTL)
    sc2 = Scenario(cylinder1=C1, cylinder2=CylinderSpec(R, SIC, 0.0),
                   separations=(1.5e-6, 2e-6), controls=CTL)
    row_single = sweep(sc1)[0]
    rows = sweep(sc2)
    assert rows[1].f_total_1 == row_single.f_total_1


def test_sweep_temperature_sets():
    table = EquilibriumTable([1e-7, 1e-4], [-2.0, -2.0])
    sc = Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                  controls=CTL, equilibrium=table,
                  temperature_sets=((300.0, 300.0, 300.0),
                                    (0.0, 300.0, 0.0)))
    rows = sweep(sc)
    assert len(rows) == 2
    assert (rows[0].t1, rows[0].t2, rows[0].t_env) == (300.0, 300.0, 300.0)
    assert rows[0].f_total_1 == -2.0
    assert rows[1].t_env == 0.0
    assert rows[1].f_total_1 != -2.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        interaction_force(C1, C2, 300.0, 0.15e-6, controls=CTL)
    with pytest.raises(TypeError):
        interaction_force(C1, C2, 300.0, controls=CTL)
    with pytest.raises(ValueError):
        interaction_force(C1, C2, -5.0, 2e-6, controls=CTL)
    with pytest.raises(ValueError):
        self_force(3, Scenario(cylinder1=C1, cylinder2=C2,
                               separations=(2e-6,), controls=CTL), 2e-6)
    # a cold source or a vacuum cylinder needs no pass, and the
    # provider name is checked all the same
    with pytest.raises(ValueError, match="provider"):
        interaction_force(C1, C1, 0.0, 2e-6, provider="bogus")
    with pytest.raises(ValueError, match="provider"):
        pair_source_force(CylinderSpec(R, Vacuum(), 300.0), C1, 300.0, 2e-6,
                          provider="bogus")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_temperatures_rejected(bad):
    # NaN passes a "t < 0" check; every entry point names its field
    with pytest.raises(ValueError, match="temperature must be finite"):
        CylinderSpec(R, SIC, bad)
    with pytest.raises(ValueError, match="environment_temperature"):
        Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                 environment_temperature=bad)
    with pytest.raises(ValueError, match="temperature_sets"):
        Scenario(cylinder1=C1, cylinder2=C2, separations=(2e-6,),
                 temperature_sets=((300.0, bad, 300.0),))
    for call in (interaction_force, pair_source_force):
        with pytest.raises(ValueError, match="temperature must be finite"):
            call(C1, C2, bad, 2e-6, controls=CTL)


def test_one_reflection_warning():
    # closer than 5 (R1 + R2) the single-reflection picture degrades:
    # each public call warns once, and a sweep once per row
    with pytest.warns(RuntimeWarning):
        interaction_force(C1, C2, 0.0, 0.6e-6, controls=CTL)
    cold = CylinderSpec(R, SIC, 0.0)
    sc = Scenario(cylinder1=cold, cylinder2=cold, separations=(0.8e-6,),
                  controls=CTL)
    for call, rows in (
            (lambda: interaction_force(cold, cold, 0.0, 0.8e-6), 1),
            (lambda: pair_source_force(cold, cold, 0.0, 0.8e-6), 1),
            (lambda: total_force(sc, 0.8e-6), 1),
            (lambda: self_force(1, sc, 0.8e-6), 1),
            (lambda: sweep(replace(sc, separations=(0.8e-6, 0.9e-6))), 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [str(w.message) for w in caught] \
            == [engine._NEAR_FIELD_WARNING] * rows


def test_controls_validation():
    with pytest.raises(ValueError):
        QuadratureControls(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureControls(rel_tol=1e-4, n_max=0)
    with pytest.raises(ValueError, match="u_min"):
        QuadratureControls(rel_tol=1e-4, u_min=40.0)
    # the order probe's tables stop at order 64, twice the largest cap
    assert QuadratureControls(n_max=32).n_max == 32
    with pytest.raises(ValueError, match="from 1 to 32"):
        QuadratureControls(n_max=33)
    # a bool is not a number here, and the order cap is an integer
    assert QuadratureControls(n_max=np.int64(3)).n_max == 3
    for bad in ({"n_max": True}, {"n_max": 2.0}, {"rel_tol": True},
                {"u_min": False}, {"u_min": np.bool_(False)}):
        with pytest.raises(ValueError):
            QuadratureControls(**bad)


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
