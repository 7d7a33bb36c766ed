"""Compute the reference values the default seed is checked against.

Each workload's default-seed input is solved once at a tenth of its
tolerances: the engine's rel_tol / 10 and, for the zero, a bisection
to rel_tol / 10.  The result is written to perfbench/reference.json.
Re-run only when the physics the workloads compute changes on
purpose:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Takes several minutes on one core.
"""

import json
import sys

import host  # pins threads before NumPy loads
import workloads as wl

OUT_DIR = host.ROOT / "perfbench" / "out"


def reference(nq, workload):
    path = wl.write_scenario(workload, wl.DEFAULT_SEED, OUT_DIR, host.ROOT,
                             workload.name + "-reference",
                             engine_rel_tol=workload.engine_rel_tol / 10)
    scenario, _ = nq.scenario.load_scenario(path)
    if workload.kind == "sweep":
        return [dict({f: getattr(r, f) for f in wl.FORCE_FIELDS},
                     d_m=r.separation, T_K=[r.t1, r.t2, r.t_env])
                for r in nq.engine.sweep(scenario)]
    root, _ = wl.zero_pass(nq, scenario, workload.rel_tol / 10)
    return {"d_zero_m": root.midpoint, "lower_m": root.lower,
            "upper_m": root.upper, "stability": root.stability}


def main(names):
    nq = host.import_package()
    data = (json.loads(wl.REFERENCE_FILE.read_text())
            if wl.REFERENCE_FILE.exists() else {})
    for name in names or wl.WORKLOADS:
        workload = wl.WORKLOADS[name]
        data[name] = {"seed": wl.DEFAULT_SEED,
                      "engine_rel_tol": workload.engine_rel_tol / 10,
                      "values": reference(nq, workload)}
        wl.REFERENCE_FILE.write_text(json.dumps(data, indent=1,
                                                sort_keys=True) + "\n")
        print("wrote", name)


if __name__ == "__main__":
    main(sys.argv[1:])
