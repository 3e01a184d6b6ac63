"""Equilibrated-flux a posteriori error estimation on defeatured 2D geometries.

Solves Poisson problems on simplified (defeatured) domains with P1 finite
elements, reconstructs an equilibrated flux in the degree-1 Raviart-Thomas
space from local patch problems, and evaluates reliable estimators that
separate the defeaturing error from the numerical error.
"""

from .estimator import (
    DefectSamples,
    EstimatorConstants,
    EstimatorReport,
    FeatureEstimate,
    aggregate_total,
    c_omega,
    defect_on_gamma,
    effectivity,
    eta_curve,
    eta_zero,
)
from .fem import (
    CompositeField,
    ProblemData,
    ScalarField,
    assemble_load,
    assemble_stiffness,
    energy_error_cross_mesh,
    project_data,
    solve_poisson,
)
from .flux import (
    FluxField,
    RTSpace,
    build_rt_space,
    flux_divergence_defect,
    reconstruct_flux,
)
from .geometry import (
    CurveQuadrature,
    DomainSpec,
    FeatureSpec,
    clip_curve_to_mesh,
    gauss_legendre,
    partition_feature_boundary,
)
from .linalg import solve_spd
from .mesh import (
    Mesh,
    generate_unit_square,
    generate_with_rect_features,
    read_mesh,
    uniform_refine,
    write_mesh,
)
from .run import RunSpec, run_single, run_sweep

__version__ = "0.1.0"
