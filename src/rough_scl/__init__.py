"""Pathwise entropy solutions of scalar conservation laws with rough drivers.

The package solves du + sum_i (A_i(u))_x dW^i = 0 for piecewise linear
multi-channel signals W with a monotone finite-volume scheme, extracts the
kinetic defect measure of every step in closed form, and verifies the
structural properties that make the pathwise solution concept work:
contraction, stability in the driver, refinement convergence, dissipation
against local smooth solutions, and the semilinear shock-mismatch demo.
"""

__version__ = "0.1.0"

from .paths import (
    PathSeed,
    PiecewiseLinearPath,
    brownian_sample,
    dyadic_refine,
    identity_path,
    sup_distance,
    tent_path,
)
from .fluxes import Channel, FluxModel, SegmentFlux, builtin, from_spec
from .solver import (
    CellState,
    CFLError,
    Grid1D,
    SolverConfig,
    Trajectory,
    burgers_riemann_exact,
    composition_check,
    l1_distance,
    solve_path,
    solve_segment,
    step,
)
from .kinetic import (
    DefectField,
    KernelRho,
    XiGrid,
    accumulate_defects,
    check_kf_bounds,
    check_unpr1,
    default_kernel,
    definition_residual,
)
from .smooth import SmoothDatum, Weight, bump_datum, bump_weight
from .characteristics import (
    LocalSmoothSolution,
    characteristic_flow,
    dissipative_check,
    local_solution,
    window,
)
from .semilinear import (
    FlowMap,
    SourceTerm,
    direct_semilinear_solve,
    linear_source,
    logistic_source,
    mismatch_report,
    shock_position,
    source_ode_step,
    transformed_flux,
    transformed_shock_position,
    transformed_shock_speed,
    zero_source,
)
from .config import build_datum, build_experiment, build_path, load_config, parse_config_text
from .harness import EXPERIMENTS, execute, rerun_from_manifest, run_suite
