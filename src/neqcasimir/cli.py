"""Command line front end for scenario sweeps and comparisons.

Subcommands:

* ``run``: execute a scenario JSON file and emit a CSV sweep with the
  full force breakdown per separation.  The resolved scenario (units
  normalized, defaults filled in, materials inlined) is embedded as a
  ``# scenario:`` comment header, so the output is self-describing and
  re-runnable.
* ``zeros``: read such a CSV back, bracket every sign change of the
  total force on cylinder 1, refine each by Brent's method on the engine,
  and classify it stable/unstable.
* ``compare-weight`` / ``compare-ampere``: gravitational and magnetic
  reference forces per unit length for putting computed forces in
  context.

Exit codes: 0 success, 1 standard output closed by its reader (as by
``| head``), 2 malformed scenario or input file, a file that cannot
be read or written, or a rejected argument, 3 quadrature
non-convergence or a scattering block that cannot be evaluated.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import astuple
from pathlib import Path

from .analysis import find_zero_crossings, refine_zero
from .engine import set_scenarios, sweep, total_force
from .errors import QuadratureError, SchemaError, TMatrixError
from .scenario import load_scenario, parse_scenario
from .tmatrix import PROVIDERS
from .units import G_STANDARD, MU_0

CSV_COLUMNS = (
    "d_m", "T1_K", "T2_K", "Tenv_K",
    "F1_total", "F2_total",
    "F1_int", "F1_int_prop", "F1_int_evan",
    "F1_self", "F1_pair_source", "F1_env_subtraction",
    "F2_int", "F2_int_prop", "F2_int_evan",
    "F2_self", "F2_pair_source", "F2_env_subtraction",
    "F_eq", "F1_sign", "F2_sign",
)

_FMT = "%.12e"


def _require_finite(**values):
    """Raise a ValueError naming the first argument that is not a
    finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def weight_per_length(density, radius):
    """Weight per unit length, rho pi R^2 g, in N/m."""
    _require_finite(density=density, radius=radius)
    if density < 0 or radius < 0:
        raise ValueError("density and radius must be nonnegative")
    return density * math.pi * radius ** 2 * G_STANDARD


def ampere_force_per_length(current1, current2, separation):
    """Force per length between parallel currents, mu0 I1 I2 / (2 pi d),
    in N/m: positive for currents in the same direction, which
    attract, and negative for opposite currents, which repel."""
    _require_finite(current1=current1, current2=current2,
                    separation=separation)
    if separation <= 0:
        raise ValueError("separation must be positive")
    return MU_0 * current1 * current2 / (2.0 * math.pi * separation)


def _sign(force):
    """The sign column of a total force on a cylinder, positive away
    from the other one."""
    if force == 0.0:
        return "zero"
    return "repel" if force > 0 else "attract"


def _breakdown_row(b):
    return ",".join([_FMT % v for v in astuple(b)]
                    + [_sign(b.f_total_1), _sign(-b.f_total_2)])


def write_sweep_csv(rows, resolved, stream):
    """Serialize breakdown rows with the resolved scenario header."""
    stream.write("# scenario: %s\n"
                 % json.dumps(resolved, sort_keys=True,
                              separators=(",", ":")))
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for b in rows:
        stream.write(_breakdown_row(b) + "\n")


def read_sweep_csv(path):
    """Parse a sweep CSV back into (scenario doc, list of row dicts).

    Each row dict is keyed by the ``CSV_COLUMNS`` names, which the
    header must hold; the ``*_sign`` values are strings and all others
    are floats.
    """
    doc = None
    body = []
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                text = line[1:].strip()
                if text.startswith("scenario:"):
                    try:
                        doc = json.loads(text[len("scenario:"):])
                    except json.JSONDecodeError as exc:
                        raise SchemaError(
                            "bad scenario header in %s: %s"
                            % (path, exc)) from None
                continue
            body.append(line)
    if doc is None:
        raise SchemaError("%s has no '# scenario:' header; only sweep "
                          "CSVs written by 'run' can be refined" % (path,))
    reader = csv.DictReader(io.StringIO("".join(body)))
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise SchemaError("%s lacks the sweep columns %s"
                          % (path, ", ".join(missing)))
    rows = []
    for record in reader:
        try:
            rows.append({key: (record[key] if key.endswith("_sign")
                               else float(record[key]))
                         for key in record})
        except (TypeError, ValueError, KeyError) as exc:
            raise SchemaError("%s: malformed row %r (%s)"
                              % (path, record, exc)) from None
    if not rows:
        raise SchemaError("%s contains no data rows" % (path,))
    return doc, rows


def _cmd_run(args):
    # overrides edit the header document, which parses as the scenario run
    _, resolved = load_scenario(args.scenario)
    if args.provider:
        resolved["provider"] = args.provider
    if args.rel_tol is not None:
        resolved["controls"]["rel_tol"] = args.rel_tol
    scenario, resolved = parse_scenario(resolved)
    out = args.out
    if not out and resolved.get("output"):
        # read from the scenario's folder, as its material files are;
        # --out from the working folder
        out = Path(args.scenario).parent / resolved["output"]
    # checked before the sweep, so that a mistyped path fails at once
    if out and Path(out).is_dir():
        raise OSError("cannot write %s: it is a folder" % (out,))
    if out and not Path(out).parent.is_dir():
        raise OSError("cannot write %s: its folder does not exist" % (out,))
    rows = sweep(scenario)
    if out:
        with open(out, "w", newline="") as handle:
            write_sweep_csv(rows, resolved, handle)
    else:
        write_sweep_csv(rows, resolved, sys.stdout)
    return 0


def _cmd_zeros(args):
    # checked before any row is read: refine_zero would check it only
    # once per bracket, so a CSV without a sign change would pass
    if not (args.rel_tol > 0 and math.isfinite(args.rel_tol)):
        raise ValueError("rel_tol must be positive and finite, got %r"
                         % (args.rel_tol,))
    doc, rows = read_sweep_csv(args.csv)
    scenario, _ = parse_scenario(doc, base_dir=Path(args.csv).parent)
    # rows go to the temperature set whose text they carry, and are
    # refined on that set's scenario at the scenario's own floats, as
    # in the sweep that wrote them: then grid-point forces repeat the
    # rows bitwise
    sets = {tuple(_FMT % t for t in temps): one for temps, one
            in zip(scenario.temperature_sets, set_scenarios(scenario))}
    groups = {}
    for row in rows:
        key = tuple(_FMT % row[c] for c in ("T1_K", "T2_K", "Tenv_K"))
        if key not in sets:
            raise SchemaError("%s: row temperatures %s match no "
                              "temperature set of its scenario header"
                              % (args.csv, ", ".join(key)))
        groups.setdefault(key, []).append(row)
    exact = {_FMT % d: d for d in scenario.separations}
    sys.stdout.write("T1_K,T2_K,Tenv_K,d_zero_m,stability\n")
    memo = {}
    for key, group in groups.items():
        one = sets[key]
        d = [exact.get(_FMT % row["d_m"], row["d_m"]) for row in group]
        f = [row["F1_total"] for row in group]

        def force_at(sep):
            return total_force(one, sep, _memo=memo).f_total_1

        for bracket in find_zero_crossings(d, f):
            root = refine_zero(force_at, bracket.lower, bracket.upper,
                               rel_tol=args.rel_tol)
            sys.stdout.write(",".join(key + (_FMT % root.midpoint,
                                             root.stability)) + "\n")
    return 0


def _compare(label, value, ratio_label, force):
    """Write a reference force per length and, with --force, that force
    and the ratio of their magnitudes."""
    if force is not None:
        _require_finite(force=force)
    sys.stdout.write("%s_N_per_m = %s\n" % (label, _FMT % value))
    if force is not None:
        sys.stdout.write("force_N_per_m = %s\n" % (_FMT % force))
        if force != 0.0:
            sys.stdout.write("%s_to_force_ratio = %.6g\n"
                             % (ratio_label, abs(value) / abs(force)))
    return 0


def _cmd_weight(args):
    return _compare("weight_per_length",
                    weight_per_length(args.density, args.radius),
                    "weight", args.force)


def _cmd_ampere(args):
    return _compare("ampere_force_per_length", ampere_force_per_length(
        args.current1, args.current2, args.distance), "ampere", args.force)


# a negative number as an option's value, which argparse reads as a flag
# in exponent form (-2.4e-10, as `run` writes it) or as inf or nan
_NEGATIVE = re.compile(r"-(inf|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.I)


def _attach_negative_values(argv):
    """argv with each negative number after an option attached to it,
    as in --force=-2.4e-10: every option of the commands takes a value."""
    out = []
    for arg in argv:
        if out and out[-1][:2] == "--" and "=" not in out[-1] \
                and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="neqcasimir",
        description="Non-equilibrium Casimir forces between parallel "
                    "cylinders at independent temperatures.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="sweep a scenario file and emit a breakdown CSV")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--out", help="output CSV path, relative to the "
                       "working folder (default: the scenario's 'output' "
                       "field, relative to the scenario file, else stdout)")
    run_p.add_argument("--provider", choices=tuple(PROVIDERS),
                       help="override the scattering provider")
    run_p.add_argument("--rel-tol", type=float, dest="rel_tol",
                       help="override the quadrature relative tolerance")
    run_p.set_defaults(handler=_cmd_run)

    zeros_p = sub.add_parser(
        "zeros", help="locate and refine force zero crossings in a "
                      "sweep CSV written by 'run'")
    zeros_p.add_argument("csv", help="sweep CSV with scenario header")
    zeros_p.add_argument("--rel-tol", type=float, dest="rel_tol",
                         default=1e-3,
                         help="relative width of the refined bracket "
                              "(default 1e-3)")
    zeros_p.set_defaults(handler=_cmd_zeros)

    for name, about, handler, required in (
            ("compare-weight", "weight per unit length of a cylinder",
             _cmd_weight, (("--density", "mass density in kg/m^3"),
                           ("--radius", "cylinder radius in m"))),
            ("compare-ampere", "force per length between parallel currents",
             _cmd_ampere, (("--current1", "current in wire 1, A"),
                           ("--current2", "current in wire 2, A"),
                           ("--distance", "wire separation in m")))):
        compare_p = sub.add_parser(name, help=about)
        for option, text in required:
            compare_p.add_argument(option, type=float, required=True,
                                   help=text)
        compare_p.add_argument("--force", type=float, help="force per "
                               "length in N/m to compare against")
        compare_p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point the descriptor at devnull, so the
        # interpreter's last flush of what is still buffered succeeds
        try:
            fd = sys.stdout.fileno()
        except OSError:
            return 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except OSError as exc:
        # an input file that cannot be read or an output file that
        # cannot be written
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    except SchemaError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    except QuadratureError as exc:
        sys.stderr.write("error: quadrature did not converge: %s\n"
                         % (exc,))
        return 3
    except TMatrixError as exc:
        sys.stderr.write("error: scattering block not evaluable: %s\n"
                         % (exc,))
        return 3
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
