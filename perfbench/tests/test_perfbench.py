"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import host  # noqa: E402  (pins threads before NumPy loads)
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE = json.loads(wl.REFERENCE_FILE.read_text())
ZERO_M = REFERENCE["sic-thin-zero"]["values"]["d_zero_m"]


def _traced_smoke(seed):
    """One untraced and one traced smoke pass of sic-thin-sweep."""
    nq = host.import_package()
    workload = bench.smoke_workload(wl.WORKLOADS["sic-thin-sweep"])
    tag = "test-%s-seed%d" % (workload.name, seed)
    path = wl.write_scenario(workload, seed, bench.OUT_DIR, host.ROOT, tag)
    scenario, resolved = nq.scenario.load_scenario(path)
    passes = bench.Passes(nq, workload, tag, scenario, resolved, None)
    passes.run_one()
    metrics, tracer = bench.traced_pass(nq, passes, path, tag)
    assert passes.failed == 0, passes.failures
    return metrics, tracer


@pytest.fixture(scope="module")
def two_traced_runs():
    return _traced_smoke(3), _traced_smoke(3)


def test_self_times_sum_to_root_duration_synthetic():
    tracer = spans.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                time.sleep(0.002)
            time.sleep(0.001)
        with tracer.span("c"):
            time.sleep(0.001)
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert all(s >= 0 for s in selfs)
    assert math.isclose(sum(selfs), root[spans.END] - root[spans.START],
                        rel_tol=1e-9)


def test_self_times_sum_to_root_duration_traced(two_traced_runs):
    _, tracer = two_traced_runs[0]
    tree = tracer.spans
    assert tree[0][spans.NAME] == "bench.pass"
    assert all(s[spans.PARENT] >= 0 for s in tree[1:])
    total = sum(spans.self_times(tree))
    assert math.isclose(total, tree[0][spans.END] - tree[0][spans.START],
                        rel_tol=1e-9)


def test_traced_counts_repeat_exactly(two_traced_runs):
    (first, _), (second, _) = two_traced_runs
    counts = {k: first[k] for k in spans.COUNT_METRICS}
    assert counts == {k: second[k] for k in spans.COUNT_METRICS}
    assert counts["tmatrix.thin_blocks.calls"] > 0
    assert counts["quadrature.adaptive_vector.panels"] > 0
    assert counts["engine.total_force.calls"] == 4
    assert first["engine.reuse_ratio"] == second["engine.reuse_ratio"] > 0


def test_every_per_layer_metric_is_reported(two_traced_runs):
    metrics, _ = two_traced_runs[0]
    units, per_layer = bench.declared_metrics()
    assert set(per_layer) <= set(metrics)
    assert set(units) == set(per_layer) | {"setup_s", "solve_s",
                                           "peak_rss_mb"}


def test_zero_bracket_generator_straddles_only_the_zero():
    for seed in range(2000):
        lo, hi = wl.zero_bracket_um(seed)
        assert 4.0 < wl.ZERO_LO_UM[0] <= lo <= wl.ZERO_LO_UM[1]
        assert wl.ZERO_HI_UM[0] <= hi <= wl.ZERO_HI_UM[1] < 8.0
        assert lo * 1e-6 < ZERO_M < hi * 1e-6
        assert hi - lo >= wl.ZERO_MIN_WIDTH_UM


def test_force_changes_sign_once_across_bracket_ranges():
    """The force is negative over the lower range and positive over the
    upper one, so every generated bracket straddles the zero."""
    nq = host.import_package()
    workload = bench.smoke_workload(wl.WORKLOADS["sic-thin-zero"])
    path = wl.write_scenario(workload, wl.DEFAULT_SEED, bench.OUT_DIR,
                             host.ROOT, "test-zero-signs")
    scenario, _ = nq.scenario.load_scenario(path)
    forces = [nq.engine.total_force(scenario, d * 1e-6).f_total_1
              for d in wl.ZERO_LO_UM + wl.ZERO_HI_UM]
    assert forces[0] < 0 and forces[1] < 0
    assert forces[2] > 0 and forces[3] > 0


def test_separations_jitter_within_bounds_and_repeat():
    w = wl.WORKLOADS["sic-thin-sweep"]
    for seed in range(200):
        got = wl.separations_um(w, seed)
        assert got == wl.separations_um(w, seed)
        for d, base in zip(got, w.separations_um):
            assert abs(math.log(d / base)) <= wl.JITTER_LOG_D


def _run(args, cwd, timeout):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_smoke_mode_runs_in_seconds():
    t0 = time.perf_counter()
    done = _run(["--workload", "sic-thin-sweep", "--smoke", "--seconds",
                 "0"], host.ROOT, timeout=120)
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "solve_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert elapsed < 60


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(host.ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "sic-thin-sweep", "--seconds", "1"],
                tmp_path, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
