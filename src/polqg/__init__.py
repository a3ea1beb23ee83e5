"""Partially observed linear-quadratic stochastic control.

Solve the deterministic Riccati/filter system, evaluate the optimal value
in closed form, simulate the closed loop, and verify the two against each
other by Monte Carlo.
"""

from .errors import (
    EmptyGrid,
    InsufficientPaths,
    NonFinite,
    OutOfRange,
    PolqgError,
    PSDViolation,
    ScenarioSyntaxError,
    ShapeMismatch,
    SingularMatrix,
    UnknownField,
    ValidationFailure,
)
from .model import (
    Dimensions,
    ModelSpec,
    NodeTable,
    TimeGrid,
    ValidationReport,
    resample,
    validate,
)
from .detsolve import (
    DeterministicSolution,
    integrate_matrix_ode,
    solve_P,
    compute_Theta,
    solve_phi,
    compute_ff,
    solve_Sigma,
    compute_Delta,
    compute_gain,
    compute_curlyA,
    solve_Pi,
    solve_pi,
    solve_filter_side,
    solve_all,
)
from .value import (
    ValueBreakdown,
    hat_J_floor,
    optimal_value,
    path_cost,
    tilde_J,
)
from .simulate import (
    ControlPolicy,
    NoiseDraw,
    PathBundle,
    bundle_to_csv,
    draw_noise,
    simulate_closed_loop,
    simulate_error_direct,
)
from .verify import (
    BatchReport,
    BrownianityReport,
    DecompositionReport,
    DiscreteMoments,
    PathStatistics,
    PolicyComparison,
    brownianity_report,
    compare_policies,
    decomposition_check,
    default_probe_nodes,
    discrete_moments,
    expected_discrete_error_cov,
    iter_path_bundles,
    run_batch,
    simulate_statistics,
)

__version__ = "0.1.0"
