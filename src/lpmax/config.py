"""Solver configuration shared by the multilinear and polynomial pipelines."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the randomized solvers.

    tol / max_iter govern the convex relaxation solve (each block-ascent start
    stops at a step gaining at most 1e-7 * tol relative, and is unconverged if
    it still gains more than tol / max_iter after max_iter steps), trials the
    rounding stage, max_samples caps the per-level candidate draws of the
    recursive multilinear solver, and seed is the root of every derived RNG
    stream.
    """

    tol: float = 1e-6
    max_iter: int = 5000
    trials: int = 100
    strategy: str = "krivine"
    max_samples: int = 256
    seed: int = 0
