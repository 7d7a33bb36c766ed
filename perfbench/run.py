"""Benchmark of the neqcasimir force engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Workloads: sic-thin-sweep, tungsten-full-sweep, sic-thin-zero (see
README.md).  One process, one caller, closed loop: each pass waits for
its result.  Passes repeat until --seconds have been measured (sweeps
always run two, so the CSV rerun check has a second pass to compare).

--trace 0 prints the end-to-end metrics: setup_s (median of cold
set-ups in fresh processes), solve_s (median pass time), peak_rss_mb.
--trace 1 runs the same untimed passes, then one more pass with every
layer wrapped in spans, and prints the per-layer metrics; the full
per-layer report and the spans are written under perfbench/out/.
--smoke shrinks every input to run in seconds (tests only).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 on a completed
run, also when an output check failed (correct is false then); 2 when
the checkout has no sources to benchmark.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import host  # pins threads before NumPy loads
import spans
import workloads as wl

OUT_DIR = host.ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5
SMOKE_ENGINE_REL_TOL = 1e-2
SMOKE_ZERO_REL_TOL = 5e-2


def declared_metrics():
    """(unit by metric name, per-layer names in order) as BENCHMARK.json
    at the root of the checkout declares them."""
    spec = json.loads((host.ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] + spec["per_layer"]
    return ({m["name"]: m["unit"] for m in declared},
            [m["name"] for m in spec["per_layer"]])


def smoke_workload(workload):
    """The same workload on one separation at loose tolerances."""
    return replace(workload, engine_rel_tol=SMOKE_ENGINE_REL_TOL,
                   separations_um=workload.separations_um[:1],
                   rel_tol=(SMOKE_ZERO_REL_TOL if workload.kind == "zero"
                            else SMOKE_ENGINE_REL_TOL))


def setup_seconds(scenario_path):
    """Median of cold set-ups, each in a fresh interpreter."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(probe), str(scenario_path)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


class Passes:
    """Runs passes of one workload and checks every result."""

    def __init__(self, nq, workload, tag, scenario, resolved, reference):
        self.nq = nq
        self.workload = workload
        self.tag = tag
        self.scenario = scenario
        self.resolved = resolved
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.times = []
        self._first = None

    def _fail(self, count, reason):
        self.failures.append((len(self.times), count, reason))

    def run_one(self):
        """One pass, timed from the first engine call to the checked
        result."""
        t0 = time.perf_counter()
        if self.workload.kind == "sweep":
            self._sweep()
        else:
            self._zero()
        self.times.append(time.perf_counter() - t0)

    def _sweep(self):
        w = self.workload
        n_rows = len(self.scenario.separations) * len(w.temperature_sets)
        self.attempted += n_rows
        csv_path = OUT_DIR / ("%s-pass%d.csv" % (self.tag, len(self.times)))
        try:
            rows = wl.sweep_pass(self.nq, self.scenario, self.resolved,
                                 csv_path)
        except Exception as exc:  # any error fails every row of the pass
            self._fail(n_rows, "%s: %s" % (type(exc).__name__, exc))
            return
        reasons = wl.check_rows(rows, self.reference, w.rel_tol)
        lines = csv_path.read_bytes().splitlines()
        if self._first is None:
            self._first = lines
        elif lines[:2] != self._first[:2]:
            reasons = ["rerun CSV header differs"] * len(rows)
        else:
            for i, (a, b) in enumerate(zip(lines[2:], self._first[2:])):
                if a != b and reasons[i] is None:
                    reasons[i] = "rerun CSV row differs"
        for reason in reasons:
            if reason:
                self._fail(1, reason)

    def _zero(self):
        self.attempted += 1
        try:
            root, seen = wl.zero_pass(self.nq, self.scenario,
                                      self.workload.rel_tol)
        except Exception as exc:
            self._fail(1, "%s: %s" % (type(exc).__name__, exc))
            return
        reason = wl.check_zero(root, seen, self.workload.rel_tol,
                               self.reference)
        if reason is None and self._first is not None \
                and (root.lower, root.upper) != self._first:
            reason = "rerun zero differs"
        if self._first is None:
            self._first = (root.lower, root.upper)
        if reason:
            self._fail(1, reason)

    def run_for(self, seconds):
        min_passes = 2 if self.workload.kind == "sweep" else 1
        start = time.perf_counter()
        while (len(self.times) < min_passes
               or time.perf_counter() - start < seconds):
            self.run_one()

    @property
    def failed(self):
        return sum(count for _, count, _ in self.failures)


def traced_pass(nq, passes, scenario_path, tag):
    """One more pass, loading the scenario again, with every layer
    wrapped.  Returns the per-layer metrics and the tracer."""
    tracer = spans.Tracer()
    tracer.install(nq)
    try:
        with tracer.span("bench.pass"):
            scenario, resolved = nq.scenario.load_scenario(scenario_path)
            passes.scenario, passes.resolved = scenario, resolved
            passes.run_one()
    finally:
        tracer.restore()
    tracer.dump(OUT_DIR / ("%s-spans.jsonl" % tag))
    metrics = spans.layer_metrics(tracer.spans, tracer.warnings)
    untraced = statistics.median(passes.times[:-1])
    metrics["solve_s.untraced"] = untraced
    metrics["solve_s.traced"] = passes.times[-1]
    metrics["trace.overhead_s"] = passes.times[-1] - untraced
    return metrics, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    units, per_layer = declared_metrics()

    try:
        nq = host.import_package()
    except host.MissingPackage as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    workload = wl.WORKLOADS[args.workload]
    reference = None
    if args.smoke:
        workload = smoke_workload(workload)
    else:
        reference = wl.load_reference(workload, args.seed)
    tag = "%s-seed%d%s" % (workload.name, args.seed,
                           "-smoke" if args.smoke else "")
    scenario_path = wl.write_scenario(workload, args.seed, OUT_DIR,
                                      host.ROOT, tag)
    report = {"workload": workload.name, "seed": args.seed,
              "smoke": args.smoke, "host": host.describe()}

    if not args.trace:
        setup_s, samples = setup_seconds(scenario_path)
        report["setup_samples_s"] = samples
    scenario, resolved = nq.scenario.load_scenario(scenario_path)
    passes = Passes(nq, workload, tag, scenario, resolved, reference)
    passes.run_for(args.seconds)
    report["pass_s"] = passes.times

    if args.trace:
        layers, tracer = traced_pass(nq, passes, scenario_path, tag)
        report.update(layers=layers, spans=len(tracer.spans), warnings={
            "%s: %s" % key: n for key, n in sorted(tracer.warnings.items())})
        metrics = {name: layers[name] for name in per_layer}
    else:
        metrics = {
            "setup_s": setup_s,
            "solve_s": statistics.median(passes.times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    report["fail_frac"] = passes.failed / passes.attempted
    report["failures"] = [{"pass": p, "count": n, "reason": r}
                          for p, n, r in passes.failures]
    (OUT_DIR / ("%s-trace%d.json" % (tag, args.trace))).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
