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


def row_norms(X: np.ndarray, r: float) -> np.ndarray:
    """L_r norm of each row of X, for r = inf or r >= 1: the package's one
    power sum, root and under- or overflow rescue.

    A row whose power sum under- or overflows (it falls outside [smallest
    normal, inf)) while its largest entry is finite and nonzero is taken over
    that entry instead, so its norm stays accurate; every other row keeps the
    plain power sum's bits.  numpy's vectorized pow rounds a value the same
    at every array length and stride (tests/test_tensor.py checks it), so a
    row of a stack has the bits of that row alone."""
    if r == INF:
        return np.max(np.abs(X), axis=1, initial=0.0)
    with np.errstate(over="ignore"):
        total = np.abs(X)
        total **= r  # in place: X costs one temporary of its size, not two
        total = np.add.reduce(total, axis=1)
    out = total ** (1.0 / r)
    # the common case: every sum in range (false on a nan sum) needs no mask
    if np.minimum.reduce(total, initial=INF) >= TINY and np.maximum.reduce(total, initial=0) < INF:
        return out
    redo = np.flatnonzero(~((total >= TINY) & (total < INF)))
    absx = np.abs(X[redo])
    top = absx.max(axis=1, initial=0.0)
    ok = (top > 0.0) & (top < INF)  # zero rows stay 0, inf and nan rows as they are
    top = top[ok]
    out[redo[ok]] = top * np.add.reduce((absx[ok] / top[:, None]) ** r, axis=1) ** (1.0 / r)
    return out


def lp_norm(x, p) -> float:
    """The L_p norm for p in [1, inf]: row_norms of x as one row; 0 when x is empty."""
    return float(row_norms(np.asarray(x, dtype=np.float64).reshape(1, -1), float(p))[0])
