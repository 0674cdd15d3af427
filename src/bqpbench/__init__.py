"""Boolean quadratic programming benchmarks with planted, certifiable optima.

Generate random instances whose global minimizer is known by
construction; solve by testing the multipliers that make a descended
sign vector stationary, or else by maximizing the Lagrangian dual with a
feasibility-preserving Newton method; and verify zero-duality-gap
optimality certificates.
"""

from .dual_solver import (
    SolveOptions,
    SolveReport,
    SolveStatus,
    initial_point,
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
    GenConfig,
    GenerationFailed,
    generate_instance,
)
from .model import (
    BqpInstance,
    Certificate,
    DualState,
    Infeasible,
    dual_gradient,
    dual_hessian,
    is_dual_feasible,
    objective_value,
    q_of_lambda,
)
from .numerics import (
    DimensionMismatch,
    NotPositiveDefinite,
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
    "NotPositiveDefinite",
    "OracleResult",
    "ParseError",
    "SolveOptions",
    "SolveReport",
    "SolveStatus",
    "TooLarge",
    "VerifyReport",
    "brute_force_minimize",
    "dual_gradient",
    "dual_hessian",
    "generate_instance",
    "initial_point",
    "is_dual_feasible",
    "min_eigenvalue",
    "objective_value",
    "parse_instance",
    "q_of_lambda",
    "schur_block_psd",
    "serialize_instance",
    "solve_dual",
    "spd_factorize",
    "spd_solve",
    "verify_certificate",
    "write_bench_csv",
]
