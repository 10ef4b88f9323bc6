"""Input validation and small numeric helpers used across the package."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, ShapeError

INF = math.inf
TINY = float(np.finfo(float).tiny)  # the smallest normal double


def as_float_array(x, name: str = "array") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must have finite entries")
    return arr


def as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.atleast_1d(as_float_array(x, name))
    if v.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ShapeError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def as_matrix(B, name: str = "matrix") -> np.ndarray:
    # accepts ndarray-likes and order-2 Tensor objects
    data = getattr(B, "data", B)
    M = as_float_array(data, name)
    if M.ndim != 2:
        raise ShapeError(f"{name} must be two-dimensional, got shape {M.shape}")
    return M


def check_p(p, *, allow_low: bool = False) -> float:
    """Validate an L_p exponent and return it as a float (math.inf allowed).

    Default domain is p in (2, inf]; pass allow_low=True for p in [2, inf].
    """
    if isinstance(p, str):
        p = parse_exponent(p)
    pf = float(p)
    if math.isnan(pf):
        raise DomainError("p must be a number or 'inf'")
    if pf < 2.0 or (pf == 2.0 and not allow_low):
        rng = "[2.0, inf]" if allow_low else "(2.0, inf]"
        raise DomainError(f"p={pf} outside the supported range {rng}")
    return pf


def parse_exponent(text: str) -> Fraction | float:
    """Parse 'inf', a decimal, or a rational 'a/b' into an exact exponent."""
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return INF
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse exponent {text!r}") from exc


def conjugate_exponent(p) -> float:
    """q = p/(p-1), computed in rational arithmetic when p is rational."""
    if isinstance(p, str):
        p = parse_exponent(p)
    if p == INF:
        return 1.0
    frac = p if isinstance(p, Fraction) else Fraction(float(p))
    if frac <= 1:
        raise DomainError("conjugate exponent needs p > 1")
    return float(frac / (frac - 1))


def lp_norm(x, p) -> float:
    """The L_p norm for p in [1, inf].

    A power sum that under- or overflows (it falls outside [smallest normal,
    inf)) while max|x| is finite and nonzero is taken over x / max|x|, as in
    tensor.row_norms; every other input keeps the plain power sum's bits."""
    v = np.asarray(x, dtype=np.float64)
    if p == INF:
        return float(np.max(np.abs(v))) if v.size else 0.0
    pf = float(p)
    if pf == 1.0:
        return float(np.sum(np.abs(v)))
    if pf == 2.0:
        return float(np.linalg.norm(v))
    absv = np.abs(v)
    with np.errstate(over="ignore"):
        total = np.sum(absv ** pf)
    if not TINY <= total < INF and 0.0 < (top := absv.max(initial=0.0)) < INF:
        return float(top * np.sum((absv / top) ** pf) ** (1.0 / pf))
    return float(total ** (1.0 / pf))
