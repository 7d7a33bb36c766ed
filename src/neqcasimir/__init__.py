"""Non-equilibrium Casimir forces between parallel cylinders.

Computes the force per unit length between two parallel cylinders held
at independent temperatures inside an environment at a third
temperature.  The interaction force (sources in one cylinder acting on
the other) and the self force (a cylinder's own emission reflected back
by its neighbor) are evaluated in the one-reflection approximation,
valid for separations large compared to the radii.  Closed-form
thin-cylinder asymptotics and an independent dilute-limit pairwise
summation are provided as cross-validation oracles.

Sign convention: for forces on cylinder 1, negative values mean
attraction toward cylinder 2 and positive values mean repulsion.
"""

from .errors import (
    MaterialError,
    QuadratureError,
    SchemaError,
    TMatrixError,
)
from .materials import (
    Constant,
    ConductivitySum,
    CylinderSpec,
    Lorentz,
    LowFreqExpansion,
    Vacuum,
    epsilon,
    load_material,
    skin_depth,
    thermal_wavelength,
)
from .tmatrix import FullSolve, ThinExpansion
from .engine import (
    ForceBreakdown,
    QuadratureControls,
    Scenario,
    interaction_force,
    pair_source_force,
    sweep,
    total_force,
)
from .equilibrium import EquilibriumTable
from .asymptotics import (
    f1,
    f4,
    f6,
    g1,
    g4,
    g6,
    interaction_far,
    interaction_far_lowT,
    interaction_near,
    interaction_near_lowT,
)
from .dilute import (
    cylinder_force_by_summation,
    dilute_closed_forms,
    excluded_d2_term,
    sphere_pair_force,
)
from .scenario import load_scenario, parse_scenario
from .analysis import (
    ZeroCrossing,
    envelope_slope,
    find_zero_crossings,
    log_slope,
    oscillation_period,
    refine_zero,
)

__version__ = "0.1.0"

__all__ = [
    "MaterialError", "QuadratureError", "SchemaError", "TMatrixError",
    "Vacuum", "Constant", "Lorentz", "ConductivitySum", "LowFreqExpansion",
    "CylinderSpec", "epsilon", "load_material", "skin_depth",
    "thermal_wavelength",
    "ThinExpansion", "FullSolve",
    "QuadratureControls", "Scenario", "ForceBreakdown",
    "interaction_force", "pair_source_force", "total_force", "sweep",
    "EquilibriumTable",
    "g6", "g4", "g1", "f6", "f4", "f1",
    "interaction_near", "interaction_far",
    "interaction_near_lowT", "interaction_far_lowT",
    "sphere_pair_force", "cylinder_force_by_summation",
    "dilute_closed_forms", "excluded_d2_term",
    "load_scenario", "parse_scenario",
    "ZeroCrossing", "find_zero_crossings", "refine_zero", "log_slope",
    "oscillation_period", "envelope_slope",
    "__version__",
]
