"""Homogeneous polynomial maximization over an L_p ball.

Pipeline: decouple f_A into its multilinear relaxation, solve that with the
randomized recursion, then pull the d decoupled vectors back to a single
feasible point by polarization.  For odd d the polarization average

    2^-d * sum_beta (prod_i beta_i) f_A(sum_j beta_j x^j) = d! * F_A(x^1..x^d)

guarantees the best sign pattern recovers at least d! / d^d of the multilinear
value; for even d the best admissible (prod beta = 1) combination is returned
without a relative-gap claim.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, DomainError, ResourceLimitError, ShapeError
from .mlopt import MlInstance, solve_ml
from .tensor import SYM_TOL, Tensor, as_tensor, contract_all, is_supersymmetric
from .validation import as_vector, check_p, lp_norm

_BETA_GATE = 20  # the 2^(d-1) sign patterns with beta_1 = +1 are enumerated exhaustively


class HpInstance(MlInstance):
    """A polynomial maximization problem; the tensor must be super-symmetric.

    It is its own multilinear relaxation: the MlInstance of the same tensor,
    which solve_ml takes as it is.  Asymmetry within ``SYM_TOL`` is averaged
    away over all index permutations.
    """

    def __post_init__(self):
        super().__post_init__()
        t = self.tensor
        if not t.supersymmetric:
            data = t.data
            if not is_supersymmetric(data):
                if not is_supersymmetric(data, SYM_TOL):
                    raise DomainError("polynomial instances need a super-symmetric tensor")
                perms = itertools.permutations(range(t.order))
                data = sum(np.transpose(data, perm) for perm in perms) / math.factorial(t.order)
            object.__setattr__(self, "tensor", Tensor(data, supersymmetric=True))


@dataclass(frozen=True)
class HpCertificate:
    """value = f_A(x_hat) <= OPT <= upper_bound, solve_ml's cap on f_A(x) = F_A(x, .., x)."""
    x_hat: np.ndarray
    value: float
    ml_value: float
    upper_bound: float
    parity: str
    seed: int


def _polarization_args(A, xs, p, odd: bool):
    """(tensor data, p, validated xs, e) for polarize_odd or polarize_even, where
    e is the binary exponent of the largest |x^j_i|."""
    A = as_tensor(A)
    d = A.order
    if d % 2 != odd or d < 2 + odd:
        raise DomainError("polarize_odd needs odd degree >= 3" if odd else
                          "polarize_even needs even degree >= 2")
    if d > _BETA_GATE:
        raise ResourceLimitError(f"degree {d} exceeds the sign-enumeration gate {_BETA_GATE}")
    pf = check_p(p)
    if len(xs) != d:
        raise ShapeError(f"need {d} vectors, got {len(xs)}")
    xs = [as_vector(x, n, name=f"xs[{i}]") for i, (x, n) in enumerate(zip(xs, A.dims))]
    e = math.frexp(max(float(np.max(np.abs(x))) for x in xs))[1]
    return A.data, pf, xs, e


def _half_signs(d: int):
    """The 2^(d-1) sign vectors beta with beta_1 = +1, in product order."""
    return itertools.product((1.0,), *[(1.0, -1.0)] * (d - 1))


def _first_best(arr, points, e: int):
    """The first point of largest f_A(2^-e * point), and that value; (None, -inf)
    if none beats -inf.  Scaling by a power of two is exact, so it changes no
    comparison that neither under- nor overflows, and e near the points' own
    exponent keeps every value in range."""
    best_x, best_val = None, -math.inf
    for x in points:
        val = contract_all(arr, [np.ldexp(x, -e)] * arr.ndim)
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val


def polarize_odd(A, xs, p):
    """Best odd-degree sign combination, normalized onto the L_p sphere.

    Enumerates the 2^(d-1) sign vectors beta with beta_1 = +1 (-beta gives the
    same point); for each, evaluates f_A at sum_j (prod_{i != j} beta_i) x^j
    and keeps the maximizer.  When every combination collapses to zero, falls
    back to the best of the +-x^j / ||x^j||_p so the certificate is never
    vacuous; the origin is left only when every x^j is zero.
    """
    arr, pf, xs, e = _polarization_args(A, xs, p, True)
    # prod_{i != j} beta_i = (prod beta) * beta_j since beta_j^2 = 1
    best_y, _ = _first_best(arr, (float(np.prod(beta)) * sum(b * x for b, x in zip(beta, xs))
                                  for beta in _half_signs(arr.ndim)), e)
    nrm = lp_norm(best_y, pf)
    if nrm == 0.0:
        units = [x / n for x in xs if (n := lp_norm(x, pf)) != 0.0]
        best_x, value = _first_best(arr, (s * u for u in units for s in (1.0, -1.0)), 0)
        return (np.zeros(arr.shape[0]), 0.0) if best_x is None else (best_x, value)
    x_hat = best_y / nrm
    return x_hat, contract_all(arr, [x_hat] * arr.ndim)


def polarize_even(A, xs, p):
    """Best even-degree combination (1/d) * sum_j beta_j x^j over prod beta = 1.

    The average is feasible without renormalization because each x^j sits in
    the unit ball and the coefficients are 1/d in magnitude.  Only beta_1 = +1
    is enumerated, as -beta gives the negated point and the same value.  The
    decoupled vectors themselves are feasible candidates too, and can win when
    every admissible combination lands in a negative region.  A positive
    winner is pushed out to the L_p sphere (which can only increase an
    even-degree homogeneous value); if every candidate is nonpositive the
    origin is returned, since f(0) = 0 dominates.
    """
    arr, pf, xs, e = _polarization_args(A, xs, p, False)
    d = arr.ndim
    combos = (sum(b * xj for b, xj in zip(beta, xs)) / d
              for beta in _half_signs(d) if np.prod(beta) == 1.0)
    best_x, best_val = _first_best(arr, itertools.chain(combos, xs), e)
    nrm = lp_norm(best_x, pf)
    if best_val <= 0.0 or nrm == 0.0:
        return np.zeros(arr.shape[0]), 0.0
    x_hat = best_x / nrm
    return x_hat, contract_all(arr, [x_hat] * d)


def solve_hp(inst: HpInstance) -> HpCertificate:
    """solve_ml on the instance, its own relaxation, then polarize; odd degrees raise
    below the d!/d^d recovery floor.
    The certificate carries solve_ml's root seed, cfg.seed & MASK64."""
    cert = solve_ml(inst)
    d = inst.tensor.order
    if d % 2 == 1:
        x_hat, value = polarize_odd(inst.tensor, cert.xs, inst.p)
        floor = math.factorial(d) * d ** (-d) * cert.value - 1e-9
        if not value >= floor:  # also rejects NaN
            raise BoundViolationError(f"odd-degree recovery bound violated: {value} < {floor}")
        parity = "odd"
    else:
        x_hat, value = polarize_even(inst.tensor, cert.xs, inst.p)
        parity = "even"
    return HpCertificate(x_hat=x_hat, value=float(value), ml_value=cert.value,
                         upper_bound=cert.upper_bound, parity=parity, seed=cert.seed)
