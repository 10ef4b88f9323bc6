"""lpmax: randomized maximization of homogeneous polynomials and multilinear
forms over L_p balls (p > 2, including p = inf), with certificates, brute-force
oracles, a CLI, and estimator-style wrappers."""

from .config import SolverConfig
from .errors import (BoundViolationError, ConvergenceError, DegenerateInputError,
                     DomainError, LpmaxError, ResourceLimitError, ShapeError)
from .estimators import HomogeneousPolynomialMaximizer, MultilinearFormMaximizer
from .hpopt import HpCertificate, HpInstance, polarize_even, polarize_odd, solve_hp
from .mlopt import MlCertificate, MlInstance, solve_ml, solve_ml_d2
from .oracle import (OracleMethod, OracleResult, exact_ml_linf, fn_check,
                     grid_hp, grid_ml, oracle_ml, sym_equivalence_check)
from .pqnorm import GramSolution, RoundedPair, round_gram, solve_vecp, solve_vecp_stack
from .sampler import derive_rng, sample_count, sample_pgauss, sample_rademacher
from .symmetry import (embed_matrix, permutation_expansion, pi_transpose,
                       rebalance_blocks, split, stack, symmetrize)
from .tensor import (Tensor, as_tensor, contract, eval_multilinear,
                     eval_poly, holder_dual, is_supersymmetric, load_tensor, save_tensor,
                     tensor_from_doc, tensor_to_doc)
from .validation import conjugate_exponent, lp_norm, parse_exponent

__version__ = "0.1.0"

__all__ = [
    "SolverConfig",
    "LpmaxError", "ShapeError", "DomainError", "DegenerateInputError",
    "ResourceLimitError", "ConvergenceError", "BoundViolationError",
    "Tensor", "as_tensor", "contract", "eval_multilinear",
    "eval_poly", "holder_dual", "is_supersymmetric", "tensor_to_doc", "tensor_from_doc",
    "save_tensor", "load_tensor",
    "stack", "split", "pi_transpose", "symmetrize",
    "embed_matrix", "rebalance_blocks", "permutation_expansion",
    "derive_rng", "sample_rademacher", "sample_pgauss", "sample_count",
    "GramSolution", "RoundedPair", "solve_vecp", "solve_vecp_stack", "round_gram",
    "MlInstance", "MlCertificate", "solve_ml", "solve_ml_d2",
    "HpInstance", "HpCertificate", "solve_hp", "polarize_odd", "polarize_even",
    "OracleMethod", "OracleResult", "exact_ml_linf", "grid_ml", "grid_hp", "oracle_ml",
    "fn_check", "sym_equivalence_check",
    "MultilinearFormMaximizer", "HomogeneousPolynomialMaximizer",
    "conjugate_exponent", "lp_norm", "parse_exponent",
    "__version__",
]
