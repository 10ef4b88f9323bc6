"""Seeded random vector generators for the randomized solvers.

Two families are used: Rademacher sign vectors for the p = inf branch, and
"p-Gaussian" vectors with density p * exp(-|t|^p) / (2 * Gamma(1/p)) for
finite p, realized exactly as eps * G^(1/p) with eps a Rademacher sign and
G ~ Gamma(1/p, 1).  The constants below calibrate how many slot candidates a
recursion level draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .validation import INF, check_p, lp_norm

MASK64 = (1 << 64) - 1
STREAM_TRIALS = 0x51  # path element of every rounding-trial stream


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for the stream named by (seed, path).

    Streams for distinct paths are statistically independent, and a stream
    does not depend on how many sibling paths exist — this is what makes
    best-of-M values monotone in M under a fixed seed.
    """
    entropy = [int(seed) & MASK64] + [int(k) & MASK64 for k in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class KNConstants:
    """Constants from the randomized sampling analysis (delta1 is a lower bound)."""

    delta0: float = 1.0 / 48.0
    c0: float = 1.0 / 72.0
    delta1: float = 3.0 / 6400.0
    c1: float = 1.0 / 144.0
    c2: float = 1.0 / 40.0
    n_bar: int = 41


KN = KNConstants()


def sample_rademacher(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sign vector in {-1, +1}^n."""
    if n < 1:
        raise DomainError("need n >= 1")
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def sample_pgauss(n: int, p, rng: np.random.Generator):
    """(xi, xi_normalized): i.i.d. p-Gaussian coordinates and their L_p-unit rescaling."""
    if n < 1:
        raise DomainError("need n >= 1")
    pf = check_p(p)
    if pf == INF:
        raise DomainError("p-Gaussian sampling needs finite p; use sample_rademacher")
    eps = sample_rademacher(n, rng)
    g = rng.gamma(1.0 / pf, 1.0, size=n)
    xi = eps * g ** (1.0 / pf)
    nrm = lp_norm(xi, pf)
    xi_normalized = xi / nrm if nrm > 0 else xi.copy()
    return xi, xi_normalized


def sample_count(n: int, p, amplified: bool = True, max_samples: int | None = None) -> int:
    """Number of slot candidates to draw for a dimension-n slot.

    ceil((ln 2) * n^delta0 / c0) when p = inf, ceil((ln 2) * n^c2 / c1) for
    finite p; ``amplified`` doubles the ln 2 factor.  Capped at
    ``max_samples`` when given (the guarantee then holds with reduced
    probability).
    """
    if n < 1:
        raise DomainError("need n >= 1")
    pf = check_p(p)
    factor = 2.0 * math.log(2.0) if amplified else math.log(2.0)
    if pf == INF:
        m = factor * n ** KN.delta0 / KN.c0
    else:
        m = factor * n ** KN.c2 / KN.c1
    count = math.ceil(m)
    if max_samples is not None:
        count = min(count, int(max_samples))
    return max(count, 1)
