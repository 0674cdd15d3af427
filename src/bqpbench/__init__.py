"""Boolean quadratic programming benchmarks with planted, certifiable optima.

Generate random instances whose global minimizer is known by
construction, maximize the Lagrangian dual with a feasibility-preserving
Newton method, and verify zero-duality-gap optimality certificates.
"""

from .dual_solver import (
    NoFeasibleStart,
    NotBoolean,
    SolveOptions,
    SolveReport,
    SolveStatus,
    initial_point,
    round_to_signs,
    solve_dual,
)
from .fileio import (
    BenchRecord,
    InstanceFile,
    ParseError,
    parse_instance,
    serialize_instance,
    write_bench_csv,
)
from .generator import (
    Certificate,
    GenConfig,
    GenerationFailed,
    generate_instance,
    multipliers_from_rowsums,
)
from .model import (
    BqpInstance,
    DualState,
    Infeasible,
    dual_gradient,
    dual_hessian,
    dual_value,
    is_dual_feasible,
    lagrangian_value,
    objective_value,
    q_of_lambda,
)
from .numerics import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    SpdFactor,
    min_eigenvalue,
    spd_factorize,
    spd_solve,
)
from .oracle import OracleResult, TooLarge, brute_force_minimize
from .verify import VerifyReport, schur_block_psd, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "BqpInstance",
    "Certificate",
    "DimensionMismatch",
    "DualState",
    "GenConfig",
    "GenerationFailed",
    "Infeasible",
    "InstanceFile",
    "NoConvergence",
    "NoFeasibleStart",
    "NotBoolean",
    "NotPositiveDefinite",
    "OracleResult",
    "ParseError",
    "SolveOptions",
    "SolveReport",
    "SolveStatus",
    "SpdFactor",
    "TooLarge",
    "VerifyReport",
    "brute_force_minimize",
    "dual_gradient",
    "dual_hessian",
    "dual_value",
    "generate_instance",
    "initial_point",
    "is_dual_feasible",
    "lagrangian_value",
    "min_eigenvalue",
    "multipliers_from_rowsums",
    "objective_value",
    "parse_instance",
    "q_of_lambda",
    "round_to_signs",
    "schur_block_psd",
    "serialize_instance",
    "solve_dual",
    "spd_factorize",
    "spd_solve",
    "verify_certificate",
    "write_bench_csv",
]
