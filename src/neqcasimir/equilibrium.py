"""Ingested equilibrium Casimir force tables.

The equilibrium force between the cylinders at the environment
temperature is an input to the nonequilibrium assembly, not something
this package computes.  Tables arrive as CSV files with the header

    d_m,F_eq_N_per_m

and strictly increasing separations; values are interpolated linearly
in log d.  A scenario without a table has zero equilibrium force.
"""

import csv
import math

import numpy as np

from .errors import SchemaError

_HEADER = ("d_m", "F_eq_N_per_m")


class EquilibriumTable:
    """Equilibrium force-per-length lookup, linear in log separation.

    Parameters
    ----------
    separations : array_like
        Strictly increasing separations in m, all positive.
    forces : array_like
        Equilibrium force per length on cylinder 1 in N/m at each
        separation (negative = attraction).
    allow_extrapolation : bool
        Permit evaluation outside the tabulated range by extending the
        end segments; off by default, where out-of-range lookups
        raise.
    """

    def __init__(self, separations, forces, *, allow_extrapolation=False,
                 label="equilibrium"):
        d = np.asarray(separations, dtype=float)
        f = np.asarray(forces, dtype=float)
        if d.ndim != 1 or d.shape != f.shape or d.size < 2:
            raise SchemaError("equilibrium table needs matching 1-D "
                              "columns with at least two rows")
        if not np.all(np.isfinite(d)) or not np.all(np.isfinite(f)):
            raise SchemaError("equilibrium table entries must be finite")
        if np.any(d <= 0):
            raise SchemaError("separations must be positive")
        if np.any(np.diff(d) <= 0):
            raise SchemaError("separations must be strictly increasing")
        self.separations = d
        self.forces = f
        self.allow_extrapolation = bool(allow_extrapolation)
        self.label = str(label)
        self._log_d = np.log(d)

    @classmethod
    def from_csv(cls, path, *, allow_extrapolation=False):
        """Load a table from a `d_m,F_eq_N_per_m` CSV file.

        Lines starting with '#' are comments; the first data line must
        be the header.
        """
        rows = []
        header = None
        with open(path, newline="") as handle:
            for record in csv.reader(handle):
                if not record or record[0].lstrip().startswith("#"):
                    continue
                if header is None:
                    header = tuple(name.strip() for name in record)
                    if header != _HEADER:
                        raise SchemaError(
                            "equilibrium file %s: expected header "
                            "'d_m,F_eq_N_per_m', got %r"
                            % (path, ",".join(header)))
                    continue
                if len(record) != 2:
                    raise SchemaError("equilibrium file %s: row %r does "
                                      "not have two columns"
                                      % (path, record))
                try:
                    rows.append((float(record[0]), float(record[1])))
                except ValueError as exc:
                    raise SchemaError("equilibrium file %s: non-numeric "
                                      "row %r" % (path, record)) from exc
        if header is None:
            raise SchemaError("equilibrium file %s is empty" % (path,))
        if len(rows) < 2:
            raise SchemaError("equilibrium file %s needs at least two "
                              "data rows" % (path,))
        d, f = zip(*rows)
        return cls(d, f, allow_extrapolation=allow_extrapolation,
                   label=str(path))

    def force(self, separation):
        """Equilibrium force per length at one separation, in N/m."""
        if not (separation > 0 and math.isfinite(separation)):
            raise ValueError("separation must be positive and finite")
        x = math.log(separation)
        lo, hi = self._log_d[0], self._log_d[-1]
        if x < lo or x > hi:
            if not self.allow_extrapolation:
                raise ValueError(
                    "separation %.6g m outside the tabulated range "
                    "[%.6g, %.6g] m of %s; enable extrapolation to "
                    "extend the end segments"
                    % (separation, self.separations[0],
                       self.separations[-1], self.label))
            if x < lo:
                i0, i1 = 0, 1
            else:
                i0, i1 = -2, -1
            slope = ((self.forces[i1] - self.forces[i0])
                     / (self._log_d[i1] - self._log_d[i0]))
            return float(self.forces[i0]
                         + slope * (x - self._log_d[i0]))
        return float(np.interp(x, self._log_d, self.forces))

    def __len__(self):
        return self.separations.size
