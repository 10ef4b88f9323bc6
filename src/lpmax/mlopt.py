"""Randomized recursive maximization of multilinear forms over L_p balls.

The d = 2 base case is the relaxation-plus-rounding pipeline of
:mod:`lpmax.pqnorm`.  For d >= 3 the first slot is attacked by sampling:
draw M candidate vectors on the L_p sphere (sign vectors for p = inf,
normalized p-Gaussians for finite p), contract each into the first slot, and
recurse on the resulting order-(d-1) tensor, keeping the candidate whose
recursive solution scores best.  The per-candidate RNG streams are derived
from (seed, path, index), so enlarging M never changes earlier candidates
and the best value is monotone in M.  On a level whose candidates contract
to matrices, the distinct matrices not yet solved go to one stacked
relaxation solve (:func:`lpmax.pqnorm.solve_vecp_stack`); candidates that
contract to the same matrix reuse that solve within a ``solve_ml`` call, and
each is still rounded on its own stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .errors import DegenerateInputError, ShapeError
from .pqnorm import round_gram, solve_vecp, solve_vecp_stack
from .sampler import (MASK64, STREAM_TRIALS, derive_rng, sample_count, sample_pgauss,
                      sample_rademacher)
from .tensor import Tensor, as_tensor, eval_multilinear
from .validation import INF, check_p

_STREAM_CANDIDATE = 0x52


@dataclass(frozen=True)
class MlInstance:
    """A multilinear maximization problem: tensor, exponent, solver knobs."""

    tensor: Tensor
    p: float
    cfg: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        t = as_tensor(self.tensor)
        object.__setattr__(self, "tensor", t)
        if t.order < 2:
            raise ShapeError("multilinear instances need order >= 2")
        if not t.data.any():
            raise DegenerateInputError("instance tensor is zero")
        object.__setattr__(self, "p", check_p(self.p))


@dataclass(frozen=True)
class MlCertificate:
    """Feasible vectors for all d slots plus the value they achieve.

    relax_value is the relaxation-side bound reached in the recursion (the
    best d = 2 relaxation value over sampled candidates); value is always
    recomputed from xs, and nonnegative by sign normalization.
    """

    xs: tuple
    value: float
    seed: int
    trials_used: int
    relax_value: float


def _candidate_vector(n: int, p: float, rng) -> np.ndarray:
    if p == INF:
        return sample_rademacher(n, rng)
    return sample_pgauss(n, p, rng)[1]


def _key(arr: np.ndarray):
    # p, tol and max_iter are fixed within one solve, so the matrix is the key
    return arr.shape, arr.tobytes()


def _solve_distinct(subs, p: float, cfg: SolverConfig, memo: dict) -> None:
    """Solve the distinct nonzero matrices in ``subs`` missing from ``memo`` as
    one stack, and keep the converged solutions."""
    todo = {}
    for sub in subs:
        key = _key(sub)
        if sub.any() and key not in memo:
            todo.setdefault(key, sub)
    if todo:
        solved = solve_vecp_stack(np.stack(list(todo.values())), p, cfg.tol, cfg.max_iter)
        for key, (g, converged) in zip(todo, solved):
            if converged:
                memo[key] = g


def _solve_d2(arr: np.ndarray, p: float, cfg: SolverConfig, rng, memo: dict):
    # not pqnorm.pq_norm_lb: the relaxation usually comes from the level's stacked solve
    key = _key(arr)
    g = memo.get(key)
    if g is None:
        # a miss after _solve_distinct re-solves, so non-convergence raises here
        g = memo[key] = solve_vecp(arr, p, cfg.tol, cfg.max_iter)
    pair = round_gram(arr, g, p, cfg.strategy, cfg.trials, rng)
    return [pair.y, pair.z], pair.value, g.value


def _solve_rec(arr: np.ndarray, p: float, cfg: SolverConfig, root: int, path: tuple,
               memo: dict):
    d = arr.ndim
    if d == 2:
        return _solve_d2(arr, p, cfg, derive_rng(root, *path, STREAM_TRIALS), memo)
    n1 = arr.shape[0]
    M = sample_count(n1, p, amplified=True, max_samples=cfg.max_samples)

    def candidate(i: int):
        xi = _candidate_vector(n1, p, derive_rng(root, *path, _STREAM_CANDIDATE, i))
        return xi, np.tensordot(arr, xi, axes=(0, 0))

    def run(i: int, xi, sub):
        if not sub.any():
            # valid zero-scoring candidate: fill remaining slots with basis vectors
            fillers = [np.eye(n)[0] for n in sub.shape]
            return xi, fillers, 0.0, 0.0
        xs, value, relax = _solve_rec(sub, p, cfg, root, path + (i,), memo)
        return xi, xs, value, relax

    cands = map(candidate, range(M))
    if d == 3:
        cands = list(cands)
        _solve_distinct([sub for _, sub in cands], p, cfg, memo)
    results = [run(i, xi, sub) for i, (xi, sub) in enumerate(cands)]

    best = max(range(M), key=lambda i: results[i][2])  # ties -> first index
    relax_value = max(r[3] for r in results)
    xi, sub_xs, _, _ = results[best]
    xs = [xi] + list(sub_xs)
    return xs, eval_multilinear(arr, xs), relax_value


def solve_ml(inst: MlInstance, rng=None) -> MlCertificate:
    """Approximately maximize F_A over d independent L_p balls."""
    A, p, cfg = inst.tensor, inst.p, inst.cfg
    root = int(cfg.seed) & MASK64 if rng is None else int(rng.integers(1 << 63))
    xs, _value, relax = _solve_rec(A.data, p, cfg, root, (), {})
    trials_used = cfg.trials if A.order == 2 else \
        sample_count(A.dims[0], p, amplified=True, max_samples=cfg.max_samples)
    value = eval_multilinear(A, xs)
    if value < 0.0:
        xs[0] = -xs[0]
        value = -value
    return MlCertificate(xs=tuple(xs), value=float(value), seed=root,
                         trials_used=trials_used, relax_value=float(relax))


def solve_ml_d2(B, p, cfg: SolverConfig | None = None, rng=None) -> MlCertificate:
    """Bilinear special case, exposed directly for matrix inputs."""
    cfg = cfg or SolverConfig()
    inst = MlInstance(tensor=as_tensor(B), p=p, cfg=cfg)
    if inst.tensor.order != 2:
        raise ShapeError("solve_ml_d2 needs an order-2 tensor")
    return solve_ml(inst, rng=rng)


def relax_to_ml(hp) -> MlInstance:
    """Decouple a polynomial instance into its multilinear relaxation."""
    return MlInstance(tensor=hp.tensor, p=hp.p, cfg=hp.cfg)
