"""Numerics for null-form waves outside a convex obstacle.

The package verifies, at desk scale, the machinery behind small-data
global existence for quadratic null-form wave equations with Dirichlet
conditions on a convex obstacle: the conformal compactification of
Minkowski space, the null-form algebra, data compatibility conditions,
exterior linear solvers with absorbing outer layers, the contraction
construction of the nonlinear solution, and the weighted norms that
measure decay.
"""

from .errors import (CFLError, ConfigError, DomainError, FitError,
                     FormatError, NaNError, NoConvergence, OrderError,
                     ParamError)
from .exterior import (CartesianGrid, InitialData, Obstacle, RadialGrid,
                       build_masked_grid, build_radial_grid,
                       check_compatibility, compatibility_functions)
from .nullforms import FORM_IDS, NullFormSpec, eval_components
from .penrose import (EinsteinPoint, MinkowskiPoint, conformal_factor_tr,
                      forward_tr, from_einstein, tip_distance_tr, to_einstein)
from .picard import (IterationReport, NonlinearSolution, bump_data_family,
                     measure_sup_decay, picard_solve, smallness_scan)
from .norms import (NormReport, data_smallness_norm, estimate_ratio_report,
                    sphere_sobolev_norm, weighted_sobolev_norm)
from .solver import (DecayFit, Trajectory, cfl_limit, fit_decay,
                     local_energy_fn, solve_linear)

__version__ = "0.1.0"

__all__ = [
    "CFLError", "ConfigError", "DomainError", "FitError", "FormatError",
    "NaNError", "NoConvergence", "OrderError", "ParamError",
    "CartesianGrid", "InitialData", "Obstacle", "RadialGrid",
    "build_masked_grid", "build_radial_grid", "check_compatibility",
    "compatibility_functions",
    "FORM_IDS", "NullFormSpec", "eval_components",
    "EinsteinPoint", "MinkowskiPoint", "conformal_factor_tr", "forward_tr",
    "from_einstein", "tip_distance_tr", "to_einstein",
    "IterationReport", "NonlinearSolution", "bump_data_family",
    "measure_sup_decay", "picard_solve", "smallness_scan",
    "NormReport", "data_smallness_norm", "estimate_ratio_report",
    "sphere_sobolev_norm", "weighted_sobolev_norm",
    "DecayFit", "Trajectory", "cfl_limit", "fit_decay", "local_energy_fn",
    "solve_linear",
    "__version__",
]
