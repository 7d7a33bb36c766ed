"""Thin-cylinder closed forms: auxiliary-function identities, dilute
reductions, regime bookkeeping, low-temperature limits, and agreement
with the numerical engine inside each regime."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from neqcasimir import asymptotics, materials
from neqcasimir.asymptotics import (f1, f4, f6, g1, g4, g6, interaction_far,
                                    interaction_far_lowT, interaction_near,
                                    interaction_near_lowT)
from neqcasimir.dilute import dilute_closed_forms
from neqcasimir.engine import QuadratureControls, interaction_force
from neqcasimir.materials import (Constant, CylinderSpec, LowFreqExpansion,
                                  thermal_wavelength)

_, SIC = materials.load_material("sic")
CTL = QuadratureControls(rel_tol=1e-3)
CTL_D = QuadratureControls(rel_tol=1e-3, u_min=1e-3)


def test_g_functions_trivials():
    assert g6(1.0, 1.0) == 0.0
    assert g4(1.0, 1.0 + 0.5j) == 0.0
    # lossless source: no emission weight at all
    assert g6(2.0 + 1.0j, 3.0) == 0.0
    assert g1(2.0, 3.0) == 0.0


def test_g1_symmetric():
    a = 2.0 + 0.7j
    b = 5.0 + 0.1j
    assert g1(a, b) == g1(b, a)


def test_g_signs_for_lossy_dielectrics():
    e = 3.0 + 0.5j
    assert g6(e, e) < 0.0
    assert g4(e, e) < 0.0
    assert g1(e, e) > 0.0


def test_g_surface_pole_rejected():
    with pytest.raises(ValueError, match="surface-mode pole"):
        g6(-1.0, 2.0)
    with pytest.raises(ValueError, match="surface-mode pole"):
        g4(2.0, -1.0)
    with pytest.raises(ValueError, match="surface-mode pole"):
        g1(-1.0, -1.0)


def test_g_dilute_reductions():
    # eps -> 1 limits: g6 -> -(45/64) a b, g4 -> -(3/16) a b,
    # g1 -> a' b' / (2 pi) with a = Re eps1 - 1, b = Im eps2
    a, b = 1e-6, 2e-6
    assert g6(1.0 + a, 1.0 + 1j * b) == pytest.approx(
        -45.0 / 64.0 * a * b, rel=1e-4)
    assert g4(1.0 + a, 1.0 + 1j * b) == pytest.approx(
        -3.0 / 16.0 * a * b, rel=1e-4)
    assert g1(1.0 + 1j * a, 1.0 + 1j * b) == pytest.approx(
        a * b / (2.0 * math.pi), rel=1e-4)


def test_f_functions_trivials_and_domain():
    assert f6(1.0, 5.0) == 0.0
    assert f4(1.0, 2.0) == 0.0
    assert f1(2.0, 5.0) == f1(5.0, 2.0)
    assert f1(2.0, 2.0) > 0.0
    assert f6(3.0, 3.0) > 0.0
    with pytest.raises(ValueError, match="positive static"):
        f6(-2.0, 3.0)
    with pytest.raises(ValueError, match="positive static"):
        f4(3.0, 0.0)
    with pytest.raises(ValueError, match="positive static"):
        f1(3.0, -0.5)


def test_near_matches_dilute_expansion():
    eps_d = Constant(1.0001 + 1e-4j)
    r = 10e-9
    num = interaction_near(r, r, eps_d, eps_d, 300.0, 0.5e-6,
                           controls=CTL_D)
    ref = dilute_closed_forms(r, r, eps_d, eps_d, 300.0, 0.5e-6,
                              regime="near", controls=CTL_D)
    assert abs(num - ref) <= 1e-3 * abs(ref)


def test_near_radius_bilinearity():
    f = interaction_near(0.1e-6, 0.05e-6, SIC, SIC, 300.0, 1e-6,
                         controls=CTL)
    g = interaction_near(0.2e-6, 0.15e-6, SIC, SIC, 300.0, 1e-6,
                         controls=CTL)
    assert abs(g - 36.0 * f) <= 1e-12 * abs(g)


def test_near_zero_temperature():
    assert interaction_near(0.1e-6, 0.1e-6, SIC, SIC, 0.0, 1e-6,
                            controls=CTL) == 0.0
    assert interaction_far(0.1e-6, 0.1e-6, SIC, SIC, 0.0, 50e-6,
                           controls=CTL) == 0.0


def test_near_against_engine():
    # inside the near regime the closed form reproduces the engine's
    # evanescent channel; the propagating channel is separate physics
    r = 0.1e-6
    src = CylinderSpec(r, SIC, 300.0)
    tgt = CylinderSpec(r, SIC, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, ch = interaction_force(src, tgt, 300.0, 1e-6, controls=CTL)
        near = interaction_near(r, r, SIC, SIC, 300.0, 1e-6, controls=CTL)
    assert near < 0.0
    assert abs(near - ch["evanescent"]) <= 0.05 * abs(near)


def test_far_against_engine():
    r = 0.1e-6
    src = CylinderSpec(r, SIC, 300.0)
    tgt = CylinderSpec(r, SIC, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine, _ = interaction_force(src, tgt, 300.0, 50e-6, controls=CTL)
        far = interaction_far(r, r, SIC, SIC, 300.0, 50e-6, controls=CTL)
    assert far > 0.0
    assert abs(far - engine) <= 0.10 * abs(far)


def test_far_exact_inverse_separation():
    fa = interaction_far(0.1e-6, 0.1e-6, SIC, SIC, 300.0, 50e-6,
                         controls=CTL)
    fb = interaction_far(0.1e-6, 0.1e-6, SIC, SIC, 300.0, 100e-6,
                         controls=CTL)
    assert fa == 2.0 * fb


def test_lowt_closed_forms_trivials():
    assert interaction_near_lowT(1e-8, 1e-8, 3.0, 3.0, 2e-8, 2e-8,
                                 0.0, 1e-6) == 0.0
    assert interaction_far_lowT(1e-8, 1e-8, 3.0, 3.0, 2e-8, 2e-8,
                                0.0, 60e-6) == 0.0
    # no absorption on the source side: nothing radiates
    assert interaction_near_lowT(1e-8, 1e-8, 3.0, 3.0, 2e-8, 0.0,
                                 300.0, 1e-6) == 0.0


def test_lowt_near_d6_coefficient_quadratic_in_t():
    # split F = c6/d^6 + c4/d^4 with two separations; the leading
    # coefficient must scale exactly as T^2
    def coeffs(temp):
        d1, d2 = 0.5e-6, 1.0e-6
        m = np.array([[d1 ** -6, d1 ** -4], [d2 ** -6, d2 ** -4]])
        with warnings.catch_warnings():
            # at 600 K the 1 um point leaves the near window; the
            # closed form itself stays an exact polynomial in 1/d
            warnings.simplefilter("ignore")
            rhs = np.array([
                interaction_near_lowT(1e-8, 1e-8, 3.0, 3.0, 2e-8, 2e-8,
                                      t, d)
                for t, d in ((temp, d1), (temp, d2))])
        return np.linalg.solve(m, rhs)

    c_lo = coeffs(300.0)
    c_hi = coeffs(600.0)
    assert c_hi[0] / c_lo[0] == pytest.approx(4.0, rel=1e-10)
    # the subleading piece grows faster (T^4)
    assert c_hi[1] / c_lo[1] == pytest.approx(16.0, rel=1e-10)


def test_lowt_near_matches_numeric():
    # lambda_T / lambda_0 = 381: deep in the low temperature regime
    mat = LowFreqExpansion(3.0, 2e-8)
    closed = interaction_near_lowT(1e-8, 1e-8, 3.0, 3.0, 2e-8, 2e-8,
                                   300.0, 1e-6)
    num = interaction_near(1e-8, 1e-8, mat, mat, 300.0, 1e-6,
                           controls=CTL)
    assert closed < 0.0
    assert abs(closed - num) <= 0.02 * abs(num)


def test_lowt_far_matches_numeric():
    mat = LowFreqExpansion(3.0, 2e-8)
    closed = interaction_far_lowT(1e-8, 1e-8, 3.0, 3.0, 2e-8, 2e-8,
                                  300.0, 60e-6)
    num = interaction_far(1e-8, 1e-8, mat, mat, 300.0, 60e-6,
                          controls=CTL)
    assert closed > 0.0
    assert abs(closed - num) <= 0.02 * abs(num)


def test_lowt_far_moderate_ratio():
    # lambda_T / lambda_0 = 100 still keeps the closed form within 1%
    lam0 = 7.6e-8
    mat = LowFreqExpansion(3.0, lam0)
    closed = interaction_far_lowT(1e-8, 1e-8, 3.0, 3.0, lam0, lam0,
                                  300.0, 60e-6)
    num = interaction_far(1e-8, 1e-8, mat, mat, 300.0, 60e-6,
                          controls=CTL)
    assert abs(closed - num) <= 0.01 * abs(num)


def test_attraction_repulsion_crossover_scale():
    # the near + far sum changes sign within a factor 3 of half the
    # source thermal wavelength
    temp = 600.0
    r = 1e-8

    def total(d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return (interaction_near(r, r, SIC, SIC, temp, d, controls=CTL)
                    + interaction_far(r, r, SIC, SIC, temp, d,
                                      controls=CTL))

    d_star = optimize.brentq(total, 0.2e-6, 30e-6, rtol=1e-6)
    ratio = d_star / (0.5 * thermal_wavelength(temp))
    assert max(ratio, 1.0 / ratio) < 3.0


def test_regime_tags_and_violations():
    # inside its regime a closed form says nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        interaction_near(1e-8, 1e-8, SIC, SIC, 300.0, 1e-6, controls=CTL)
    # outside it, one warning per call names the regime and every
    # violated precondition
    cases = (
        (lambda: interaction_far(1e-6, 1e-8, SIC, SIC, 300.0, 2e-6,
                                 controls=CTL),
         "far_field", ("cylinder radius", "larger than the thermal")),
        (lambda: interaction_near_lowT(1e-8, 1e-8, 3.0, 3.0, 1e-5, 2e-5,
                                       300.0, 1e-6),
         "near_field_low_t", ("material scale 1e-05", "material scale 2e-05")),
        (lambda: interaction_far_lowT(1e-6, 1e-6, 3.0, 3.0, 1e-9, 1e-9,
                                      0.0, 2e-6),
         "far_field_low_t", ("cylinder radius",)),
    )
    for call, regime, named in cases:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            call()
        assert len(rec) == 1
        msg = str(rec[0].message)
        assert msg.startswith("closed-form %s evaluation outside its "
                              "regime: " % regime)
        assert msg.count("; ") == len(named) - 1
        assert all(part in msg for part in named)


def test_closed_forms_import_nothing_from_the_engine():
    # the closed forms check the scattering engine only while they
    # share none of its code
    root = Path(asymptotics.__file__).parent
    for module in ("asymptotics.py", "dilute.py"):
        tree = ast.parse((root / module).read_text())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names += [base] + ["%s.%s" % (base, alias.name)
                                   for alias in node.names]
        used = {part for name in names for part in name.split(".")}
        assert not used & {"engine", "tmatrix", "kernels"}, module


def test_out_of_regime_warns():
    with pytest.warns(UserWarning, match="outside its regime"):
        interaction_near(0.1e-6, 0.1e-6, SIC, SIC, 300.0, 10e-6,
                         controls=CTL)
    with pytest.warns(UserWarning, match="outside its regime"):
        interaction_far(0.1e-6, 0.1e-6, SIC, SIC, 300.0, 2e-6,
                        controls=CTL)


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v"]))
