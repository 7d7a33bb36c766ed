"""Post-processing of force-versus-separation sweeps.

Sign-change detection and Brent refinement locate mechanical
equilibria; log-log slope fits and detrended-oscillation statistics
quantify the power laws and the standing-wave structure of self
forces.  Everything here works on plain arrays so it applies equally
to engine output, CSV rows, and closed-form curves.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZeroCrossing:
    """A bracketed root of the force on cylinder 1.

    stability follows the sign convention that positive force pushes
    cylinder 1 away from cylinder 2: a +/- change with growing
    separation restores displacements toward the root (stable), a -/+
    change drives them away (unstable).
    """

    lower: float
    upper: float
    stability: str

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)


def find_zero_crossings(separations, forces):
    """Brackets where the force changes sign, in grid order.

    Grid points where the force is exactly zero are folded into the
    neighboring bracket.  Non-finite input raises ValueError.  Returns
    a list of ZeroCrossing.
    """
    d = np.asarray(separations, dtype=float)
    f = np.asarray(forces, dtype=float)
    if d.ndim != 1 or d.shape != f.shape or d.size < 2:
        raise ValueError("need matching 1-D arrays with at least 2 points")
    if not (np.isfinite(d).all() and np.isfinite(f).all()):
        raise ValueError("separations and forces must be finite")
    if np.any(np.diff(d) <= 0):
        raise ValueError("separations must be strictly increasing")
    out = []
    signs = np.sign(f)
    last_nonzero = 0
    for i in range(1, d.size):
        if signs[i] == 0:
            continue
        j = last_nonzero
        if signs[j] != 0 and signs[i] != signs[j]:
            stability = "stable" if signs[j] > 0 else "unstable"
            out.append(ZeroCrossing(lower=float(d[j]), upper=float(d[i]),
                                    stability=stability))
        last_nonzero = i
    return out


def refine_zero(func, lower, upper, *, rel_tol=1e-3, max_iter=200):
    """Refine a sign change of func to relative width rel_tol by
    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, Prentice-Hall 1973, ch. 4: zeroin).

    func maps separation to force; the initial bracket must straddle a
    sign change.  Each step takes the inverse quadratic or secant
    estimate of the root when it stays well inside the bracket and
    shrinks it fast enough, and bisects otherwise, and never steps by
    less than half the target width, so a smooth force needs
    far fewer evaluations than bisection.  Returns the refined
    ZeroCrossing: both ends are evaluated points that straddle the
    sign change, at most rel_tol times their midpoint apart (unless
    max_iter evaluations run out first).  rel_tol must be positive and
    finite.
    """
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise ValueError("rel_tol must be positive and finite, got %r"
                         % (rel_tol,))
    b, c = float(lower), float(upper)
    if not b < c:
        raise ValueError("need lower < upper")
    fb = func(b)
    fc = func(c)
    if fb == 0.0:
        stability = "stable" if fc < 0 else "unstable"
        return ZeroCrossing(b, b, stability)
    if fc == 0.0:
        stability = "stable" if fb > 0 else "unstable"
        return ZeroCrossing(c, c, stability)
    if math.copysign(1.0, fb) == math.copysign(1.0, fc):
        raise ValueError("no sign change on [%g, %g]" % (b, c))
    stability = "stable" if fb > 0 else "unstable"
    # b is the best estimate and c the other end of the bracket; a is
    # the previous b, d the last step and e the one before it
    a, fa = c, fc
    d = e = b - a
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        lo, hi = min(b, c), max(b, c)
        if hi - lo <= rel_tol * 0.5 * (hi + lo):
            break
        tol = (0.5 * rel_tol * min(abs(b), abs(c))
               + 2.0 * sys.float_info.epsilon * abs(b))
        half = 0.5 * (c - b)
        interpolated = False
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            interpolated = (2.0 * p < 3.0 * half * q - abs(tol * q)
                            and p < abs(0.5 * e * q))
        if interpolated:
            e, d = d, p / q
        else:  # bisection
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = func(b)
        if fb == 0.0:
            return ZeroCrossing(b, b, stability)
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
    return ZeroCrossing(min(b, c), max(b, c), stability)


def log_slope(separations, forces):
    """Least-squares slope of log|F| against log d.

    The forces must not change sign or vanish on the window; a clean
    power law F ~ d^p returns p exactly.
    """
    d = np.asarray(separations, dtype=float)
    f = np.asarray(forces, dtype=float)
    if d.size != f.size or d.size < 2:
        raise ValueError("need matching arrays with at least 2 points")
    if np.any(f == 0) or (np.any(f > 0) and np.any(f < 0)):
        raise ValueError("forces change sign on the fit window; "
                         "restrict to one power-law branch")
    slope, _ = np.polyfit(np.log(d), np.log(np.abs(f)), 1)
    return float(slope)


def detrend(separations, values, *, degree=1):
    """Residual after removing a low-order polynomial trend in d."""
    d = np.asarray(separations, dtype=float)
    y = np.asarray(values, dtype=float)
    coeffs = np.polyfit(d, y, degree)
    return y - np.polyval(coeffs, d)


def oscillation_period(separations, forces, *, envelope_power=1.5,
                       detrend_degree=1):
    """Mean period of a decaying force oscillation.

    Multiplies the force by d^envelope_power to flatten the envelope,
    removes a residual polynomial trend, and reads the period off the
    zero crossings of what remains (two crossings per cycle).  The
    grid must resolve the oscillation with several points per cycle.
    """
    d = np.asarray(separations, dtype=float)
    f = np.asarray(forces, dtype=float)
    resid = detrend(d, f * d ** envelope_power, degree=detrend_degree)
    roots = []
    for i in range(1, d.size):
        a, b = resid[i - 1], resid[i]
        if a == 0.0:
            roots.append(d[i - 1])
        elif a * b < 0:
            roots.append(d[i - 1] + (d[i] - d[i - 1]) * a / (a - b))
    if len(roots) < 3:
        raise ValueError("fewer than 3 oscillation crossings on the "
                         "window; widen it or refine the grid")
    spacings = np.diff(roots)
    return 2.0 * float(np.mean(spacings))


def envelope_slope(separations, forces):
    """Log-log slope of the oscillation envelope via |F| local maxima.

    Picks strict interior maxima of |F| and fits log|F| against log d
    through them; needs at least two peaks.  Returns (slope, peak
    separations).
    """
    d = np.asarray(separations, dtype=float)
    f = np.abs(np.asarray(forces, dtype=float))
    peaks = [i for i in range(1, d.size - 1)
             if f[i] > f[i - 1] and f[i] > f[i + 1]]
    if len(peaks) < 2:
        raise ValueError("fewer than 2 envelope peaks on the window")
    return log_slope(d[peaks], f[peaks]), d[peaks]
