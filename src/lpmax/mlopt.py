"""Randomized recursive maximization of multilinear forms over L_p balls.

The d = 2 base case is the relaxation-plus-rounding pipeline of
:mod:`lpmax.pqnorm`.  For d >= 3 the first slot is attacked by sampling:
draw M candidate vectors on the L_p sphere (sign vectors for p = inf,
normalized p-Gaussians for finite p), contract each into the first slot, and
recurse on the resulting order-(d-1) tensor, keeping the candidate whose
recursive solution scores best.  A level draws all M candidates in one
:func:`lpmax.sampler.draw_candidates` call, and row i is bit for bit the
candidate of its own (seed, path, index) stream, so enlarging M never
changes earlier candidates and the best value is monotone in M.  The batch
reproduces numpy's SeedSequence, PCG64 and bounded-integer algorithms;
tests/test_sampler.py::test_batch_rows_equal_their_streams fails if a numpy
release changes them.

Each distinct candidate of a level is contracted once, and bounded once up
to sign, as a row's bound depends on that row alone and not on its sign.
At p = inf an n-coordinate slot has only 2^(n-1) sign vectors up to sign,
so most of the M draws repeat one drawn before.  Each repeat still keeps
its own stream, its own rounding and its own place in the visiting order
below.

Each level is bound-and-pruned.  Every candidate gets an upper bound on all
it can score, :func:`lpmax.tensor.slot_bounds`: the p->q bound on the
(slot 2 | rest) unfolding of its contraction, tightened by _DUAL_STEPS steps
on the relaxation's dual, plus a rounding allowance; at every order it caps
every value rounded below the candidate.  Where the candidates contract to
matrices, the dual steps bring the bound to within about 1 % of the
relaxation value, so the first stack of solves holds nearly every candidate
that can win, and a level's cost does not swing with how loose its bounds
happen to be.  Candidates are visited in descending-bound order, ties by
index, and the level stops at the first bound strictly below the best value
found so far on it or on any level above it (a level that stops before its
first candidate returns none).  No skipped candidate could win or tie a
winner, so xs and value are those of levels that solve every candidate.
The distinct matrices not yet solved go to stacked relaxation solves
(:func:`lpmax.pqnorm.solve_vecp_stack`), _STACK at a time in visiting order;
candidates that contract to the same matrix reuse that solve within a
``solve_ml`` call, and each is still rounded on its own stream.  The
certificate's upper_bound is taken once, outside the recursion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .errors import ConvergenceError, DegenerateInputError, ShapeError
from .pqnorm import round_gram, solve_vecp, solve_vecp_stack
from .sampler import (MASK64, STREAM_CANDIDATE, STREAM_TRIALS, derive_rng, draw_candidates,
                      sample_count)
from .tensor import Tensor, as_tensor, contract_first, eval_multilinear, form_bound, slot_bounds
from .validation import check_p, conjugate_exponent

_STACK = 16  # distinct matrices per stacked relaxation solve of a candidate level
_DUAL_STEPS = 20  # dual steps that tighten each candidate's bound (tensor.slot_bounds)


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
            raise ShapeError("instances need a tensor of order >= 2")
        if not t.data.any():
            raise DegenerateInputError("instance tensor is zero")
        object.__setattr__(self, "p", check_p(self.p))


@dataclass(frozen=True)
class MlCertificate:
    """Feasible vectors for all d slots plus the value they achieve.

    value is always recomputed from xs, and nonnegative by sign normalization.
    upper_bound is tensor.form_bound of the whole tensor: value <= OPT <= upper_bound.
    samples_capped says that max_samples cut the first slot's candidate draws
    below the analysis's sample_count.
    """

    xs: tuple
    value: float
    seed: int
    trials_used: int
    upper_bound: float
    samples_capped: bool


def _key(arr: np.ndarray):
    # p, tol and max_iter are fixed within one solve, so the matrix is the key
    return arr.shape, arr.tobytes()


def _solve_next(subs, p: float, cfg: SolverConfig, memo: dict) -> None:
    """Solve the first _STACK distinct nonzero matrices of ``subs`` missing
    from ``memo`` as one stack; keep each (solution, converged) pair."""
    todo = {}
    for sub in subs:
        key = _key(sub)
        if sub.any() and key not in memo:
            todo.setdefault(key, sub)
            if len(todo) == _STACK:
                break
    solved = solve_vecp_stack(np.stack(list(todo.values())), p, cfg.tol, cfg.max_iter)
    memo.update(zip(todo, solved))


def _solve_d2(arr: np.ndarray, p: float, cfg: SolverConfig, rng, memo: dict):
    # the one bilinear pipeline; in a recursion the relaxation usually comes from
    # the level's stacked solve
    key = _key(arr)
    if key in memo:
        g, converged = memo[key]
        if not converged:  # the stacked row is the solo solve, which would raise the same
            raise ConvergenceError("relaxation solve hit max_iter still gaining", best=g)
    else:  # a d = 2 instance is never stacked; solve_vecp raises on non-convergence
        g = solve_vecp(arr, p, cfg.tol, cfg.max_iter)
    pair = round_gram(arr, g, cfg.strategy, cfg.trials, rng)
    return [pair.y, pair.z], pair.value


def _solve_rec(arr: np.ndarray, p: float, cfg: SolverConfig, root: int, path: tuple,
               memo: dict, above: float = -np.inf):
    d = arr.ndim
    if d == 2:
        return _solve_d2(arr, p, cfg, derive_rng(root, *path, STREAM_TRIALS), memo)
    n1 = arr.shape[0]
    M = sample_count(n1, p, max_samples=cfg.max_samples)
    xis = draw_candidates(root, path + (STREAM_CANDIDATE,), M, n1, p)
    keys = [xi.tobytes() for xi in xis]
    # each distinct candidate is contracted once and bounded once up to sign
    contracted, where, rows = {}, {}, []
    for xi, key in zip(xis, keys):
        if key not in contracted:
            contracted[key] = contract_first(arr, xi)
            if key not in where:
                where[key] = where[(-xi).tobytes()] = len(rows)
                rows.append(xi)
    subs = [contracted[key] for key in keys]
    bounds = slot_bounds(arr, np.stack(rows), conjugate_exponent(p), _DUAL_STEPS)
    bounds = bounds[[where[key] for key in keys]]
    order = sorted(range(M), key=lambda i: (-bounds[i], i))
    best, best_value = None, -np.inf
    for k, i in enumerate(order):
        floor = max(best_value, above)
        if bounds[i] < floor:
            break  # no candidate from here on can win or tie, here or at a level above
        sub = subs[i]
        if not sub.any():
            # valid zero-scoring candidate: fill remaining slots with basis vectors
            xs, value = [np.eye(n)[0] for n in sub.shape], 0.0
        else:
            if sub.ndim == 2 and _key(sub) not in memo:
                _solve_next((subs[j] for j in order[k:] if bounds[j] >= floor), p, cfg, memo)
            xs, value = _solve_rec(sub, p, cfg, root, path + (i,), memo, floor)
        if xs is not None and (value > best_value or (value == best_value and i < best)):
            best, best_value, best_xs = i, value, xs  # ties -> first index
    if best is None:
        return None, -np.inf  # every candidate was under an ancestor's best
    xs = [xis[best].copy()] + list(best_xs)
    return xs, eval_multilinear(arr, xs)


def solve_ml(inst: MlInstance) -> MlCertificate:
    """Approximately maximize F_A over d independent L_p balls; every stream
    derives from the root seed cfg.seed & MASK64, which the certificate carries."""
    A, p, cfg = inst.tensor, inst.p, inst.cfg
    root = int(cfg.seed) & MASK64
    xs, _value = _solve_rec(A.data, p, cfg, root, (), {})
    trials_used, samples_capped = cfg.trials, False
    if A.order >= 3:
        trials_used = sample_count(A.dims[0], p, max_samples=cfg.max_samples)
        samples_capped = sample_count(A.dims[0], p) > trials_used
    value = eval_multilinear(A, xs)
    if value < 0.0:
        xs[0], value = -xs[0], -value
    return MlCertificate(xs=tuple(xs), value=float(value), seed=root, trials_used=trials_used,
                         upper_bound=form_bound(A.data, conjugate_exponent(p)),
                         samples_capped=samples_capped)


def solve_ml_d2(B, p, cfg: SolverConfig | None = None) -> MlCertificate:
    """Bilinear special case, exposed directly for matrix inputs."""
    cfg = cfg or SolverConfig()
    inst = MlInstance(tensor=as_tensor(B), p=p, cfg=cfg)
    if inst.tensor.order != 2:
        raise ShapeError("solve_ml_d2 needs an order-2 tensor")
    return solve_ml(inst)
