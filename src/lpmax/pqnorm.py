"""Lower bounds for the p->q matrix norm via convex relaxation plus rounding.

For p in (2, inf] and q = p/(p-1), the norm ||B||_{p->q} = max x^T B y over two
L_p balls.  Lifting the products x_i y_j to a psd matrix X with per-block
diagonal constraints sum_i |X_ii|^{p/2} <= 1 (max <= 1 when p = inf) gives a
convex relaxation whose optimum, written relax_p(B) below, sits within the
Grothendieck constant of the true norm:

    ||B||_{p->q}  <=  relax_p(B)  <=  K_G * ||B||_{p->q},
    K_G < pi / (2 ln(1 + sqrt(2))) < 1.783.

solve_vecp maximizes the relaxation, and round_gram turns its Gram
factorization into a feasible sign pair (hyperplane rounding, or Krivine
rounding whose single-trial expectation is (2 ln(1+sqrt 2)/pi) * relaxation
value).  The two are chained in one place, the d = 2 base case of
lpmax.mlopt, and the pqnorm command runs solve_ml on the order-2 instance.

solve_vecp works on the Gram factors of X: unit directions u_i, v_j in
R^(m+n), enough dimensions to factor every feasible X, and lengths l, l' in
the unit L_p ball.  Block coordinate ascent on them (the "mixing method" of
Wang, Chang & Kolter, arXiv:1706.00476, with tensor.holder_rows as length
update) sets one side to its closed-form best given the other; every iterate
is feasible.  A step costs two products with B and no Gram product: its
value is read off the column half step's own product.  Near an optimum of
low rank the ascent can converge linearly at a rate close to 1, so on small
matrices (m + n <= 12), from its twentieth step on, every tenth step of a
start still ascending also tries one step from its column directions
extrapolated toward their limit, and the start keeps it where it ends
higher.
The solver has one implementation, which works on a (k, m, n) stack of
same-shape matrices: solve_vecp_stack.  Each start of each matrix keeps its
own stopping rule and leaves the active set when it stops, and every
operation on the stack is one whose per-matrix result equals the unstacked
operation bit for bit, so a row of a stacked solve is exactly the solo solve.
solve_vecp is the stack of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SolverConfig
from .errors import ConvergenceError, DegenerateInputError, DomainError, ShapeError
from .sampler import derive_rng
from .tensor import holder_rows
from .validation import INF, TINY, as_float_array, as_matrix, check_p

KRIVINE_C = math.log(1.0 + math.sqrt(2.0))  # sinh(KRIVINE_C) = 1
KG_BOUND = math.pi / (2.0 * KRIVINE_C)  # < 1.783
# entries of one (k, N, N) array, N = m + n, of a stacked solve (64 KB); longer
# stacks are solved in chunks, which bounds the solver's working memory at
# about a dozen such arrays whatever k and N are
_STACK_ELEMS = 1 << 13
_SQRT_TINY = math.sqrt(TINY)  # a smaller norm has subnormal squares
# from step 2 * _EXTRAP_EVERY on, every _EXTRAP_EVERY-th step of a start still
# ascending also tries an extrapolated step (see _extrapolated_step), on
# matrices with m + n <= _EXTRAP_MAX_N: the contractions the recursion solves
# by the dozen, whose slowest start sets the cost of the whole stack.  Larger
# matrices do not try them yet: the steps they save let a benchmark run
# complete more operations, and as its harness keeps a few KB per operation,
# its peak RSS would rise past its bound (ROADMAP items 1 and 4)
_EXTRAP_EVERY = 10
_EXTRAP_MAX_N = 12


@dataclass(frozen=True)
class GramSolution:
    """Feasible factorized point of the relaxation.

    Rows of u_dirs / v_dirs are unit directions, u_lens / v_lens the
    nonnegative lengths with ||u_lens||_p <= 1 (max <= 1 for p = inf), and
    value = sum_ij B_ij u_lens[i] v_lens[j] <u_dirs[i], v_dirs[j]>.
    """

    u_dirs: np.ndarray
    v_dirs: np.ndarray
    u_lens: np.ndarray
    v_lens: np.ndarray
    value: float

    @cached_property
    def _krivine_factor(self) -> np.ndarray:
        """Cholesky factor of the Gram matrix of the Krivine embedding of the
        directions: every Krivine rounding of this solution draws against it,
        so it is computed once however many roundings there are."""
        c = KRIVINE_C
        UU = np.clip(self.u_dirs @ self.u_dirs.T, -1.0, 1.0)
        VV = np.clip(self.v_dirs @ self.v_dirs.T, -1.0, 1.0)
        UV = np.clip(self.u_dirs @ self.v_dirs.T, -1.0, 1.0)
        # the sinh/sin closed forms are exactly the inner products that make
        # E[sign products] come out to (2c/pi) times the relaxation inner products
        C = np.block([[np.sinh(c * UU), np.sin(c * UV)], [np.sin(c * UV).T, np.sinh(c * VV)]])
        np.fill_diagonal(C, 1.0)
        return _chol_psd(C)


@dataclass(frozen=True)
class RoundedPair:
    """Feasible bilinear pair: value = y^T B z with ||y||_p, ||z||_p <= 1."""

    y: np.ndarray
    z: np.ndarray
    value: float


# ---------------------------------------------------------------------------
# the relaxation solve: block ascent on the Gram factors
# ---------------------------------------------------------------------------

def _fro(A: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice, bit-equal to np.linalg.norm of the slice."""
    f = A.reshape(len(A), -1)
    return np.sqrt(np.vecdot(f, f))


def _gram_value(B, Ud, Vd, ul, vl) -> np.ndarray:
    M = (Ud * ul[:, :, None]) @ (Vd * vl[:, :, None]).swapaxes(1, 2)
    return np.sum(B * M, axis=(1, 2))


def _unit_rows(W, old):
    """The rows of W over their norms, and the row of old where W's is 0;
    also returns the norms, bit-equal to np.linalg.norm(W, axis=2)."""
    wn = np.sqrt(np.add.reduce(W * W, axis=2))
    if wn.all():
        return W / wn[:, :, None], wn
    zero = wn == 0.0
    U = W / np.where(zero, 1.0, wn)[:, :, None]
    U[zero] = old[zero]
    return U, wn


def _best_side(B, p, Vd, vl, Ud):
    """Closed-form best row side given the column side (Vd, vl): direction i
    along W_i = sum_j B_ij l'_j v_j (kept where W_i = 0), lengths the Holder
    dual of the |W_i| (uniform where every W_i = 0).  Also returns the |W_i|:
    the new point's value is sum_i l_i |W_i|, since <u_i, W_i> = |W_i|."""
    Ud, wn = _unit_rows((B * vl[:, None, :]) @ Vd, Ud)
    lens = holder_rows(wn, 1.0 if p == INF else p / (p - 1.0))
    if p != INF and not lens.all():  # zero rows come back zero (q > 1); zeros are rare
        lens[~wn.any(axis=1)] = wn.shape[1] ** (-1.0 / p)
    return Ud, lens, wn


def _extrapolated_step(B, p, Ud, Vd, ul, vl, val, V1, V2, V3):
    """One ascent step from column directions extrapolated toward their limit.

    Near an optimum of low rank the ascent can converge linearly at a rate
    close to 1, its directions approaching their limit V along one or two
    slow modes, V_t ~ V + a^t Y + b^t Z, and a start then needs thousands of
    steps to reach its plateau.  With the last steps d_t = V_t - V_t-1 (V1,
    V2, V3 are V_t-1, V_t-2, V_t-3), minimal polynomial extrapolation fits
    d_t + c1 d_t-1 + c0 d_t-2 = 0 by least squares and takes
    (c0 V_t-2 + c1 V_t-1 + V_t) / (c0 + c1 + 1) as the limit; where the steps
    are parallel (one mode) it takes Aitken's V_t + r / (1 - r) d_t, r the
    ratio of d_t to d_t-1.  One full step from that point, rows renormalized,
    gives a feasible point; each start keeps it only where it beats val.
    """
    k = len(B)
    d2, d1, d0 = ((a - b).reshape(k, -1) for a, b in ((Vd, V1), (V1, V2), (V2, V3)))
    g00, g01, g11 = np.vecdot(d0, d0), np.vecdot(d0, d1), np.vecdot(d1, d1)
    r0, r1 = np.vecdot(d0, d2), np.vecdot(d1, d2)
    rho = r1 / np.where(g11 > 0.0, g11, 1.0)
    one = (g11 > 0.0) & (rho > 0.0) & (rho < 1.0)
    rho = np.where(one, rho, 0.0)
    X = Vd + (rho / (1.0 - rho))[:, None, None] * (Vd - V1)
    det = g00 * g11 - g01 * g01
    two = det > 1e-8 * g00 * g11
    det = np.where(two, det, 1.0)
    c0, c1 = (g01 * r1 - g11 * r0) / det, (g01 * r0 - g00 * r1) / det
    s = c0 + c1 + 1.0
    two &= np.abs(s) > 1e-6
    c0, c1, c2 = ((c / np.where(two, s, 1.0))[:, None, None] for c in (c0, c1, 1.0))
    X = np.where(two[:, None, None], c0 * V2 + c1 * V1 + c2 * Vd, X)
    X, _ = _unit_rows(X, Vd)
    tUd, tul, _ = _best_side(B, p, X, vl, Ud)
    tVd, tvl, wn = _best_side(B.swapaxes(1, 2), p, tUd, tul, X)
    tval = np.vecdot(tvl, wn)
    take = (one | two) & (tval > val)
    return (np.where(take[:, None, None], tUd, Ud), np.where(take[:, None, None], tVd, Vd),
            np.where(take[:, None], tul, ul), np.where(take[:, None], tvl, vl),
            np.where(take, tval, val))


def _block_ascent(B, p, Ud, Vd, ul, vl, *, iters: int, rtol: float):
    """Alternating exact block maximization on a stack of problems.

    Each half step fixes one side and sets the other side's factors to their
    closed-form best (_best_side).  The value never falls and every iterate
    is feasible.  A step costs two products with B and no Gram product: the
    Gram value is taken once, at the start point, and each step's value is
    sum_j l'_j |W'_j| from its column half step.  From step 2 * _EXTRAP_EVERY
    on, every _EXTRAP_EVERY-th step also tries _extrapolated_step where
    m + n <= _EXTRAP_MAX_N.  Each problem stops at its own plateau, a gain of
    at most rtol * (1 + |value|), or after ``iters`` steps; returns the
    factors, the values and each problem's last gain.
    """
    val = _gram_value(B, Ud, Vd, ul, vl)
    gain = np.full(len(B), INF)
    res = [np.empty(a.shape) for a in (Ud, Vd, ul, vl, val, gain)]
    rows = np.arange(len(B))
    every = _EXTRAP_EVERY if sum(B.shape[1:]) <= _EXTRAP_MAX_N else iters + 1
    V1 = V2 = Vd  # the column directions one and two steps back
    for t in range(1, iters + 1):
        V3, V2, V1 = V2, V1, Vd
        Ud, ul, _ = _best_side(B, p, Vd, vl, Ud)
        Vd, vl, wn = _best_side(B.swapaxes(1, 2), p, Ud, ul, Vd)
        new_val = np.vecdot(vl, wn)
        if t > every and t % every == 0:
            Ud, Vd, ul, vl, new_val = _extrapolated_step(B, p, Ud, Vd, ul, vl, new_val,
                                                         V1, V2, V3)
        gain = new_val - val
        done = gain <= rtol * (1.0 + np.abs(new_val))
        val = np.maximum(val, new_val)  # a start not done gained, so it takes new_val
        if done.any():
            for r, a in zip(res, (Ud, Vd, ul, vl, val, gain)):
                r[rows[done]] = a[done]
            keep = ~done
            B, Ud, Vd, ul, vl, val, gain, rows, V1, V2 = (
                a[keep] for a in (B, Ud, Vd, ul, vl, val, gain, rows, V1, V2))
            if not rows.size:
                break
    for r, a in zip(res, (Ud, Vd, ul, vl, val, gain)):
        r[rows] = a
    return res


def _solve_chunk(B: np.ndarray, pf: float, tol: float, max_iter: int):
    """Block ascent from three fixed-seed starts on a (k, m, n) stack.

    All starts of all matrices ascend as one stack, and each leaves it when
    its own stopping rule fires, so each matrix runs exactly the arithmetic
    a solve of that matrix alone would.  A matrix has converged when each of
    its starts reached its plateau or, near an optimum of low rank where the
    ascent slows down sublinearly, gains so little per step that max_iter
    more steps at that rate would add at most tol.
    """
    k, m, n = B.shape
    with np.errstate(over="ignore"):
        scale = _fro(B)
    # where the plain sum of squares under- or overflows, take the norm of B / max|B|
    # instead; every other matrix keeps the plain norm, and with it its bits
    bad = ~((scale > _SQRT_TINY) & (scale < INF))
    if bad.any():
        top = np.abs(B[bad]).max(axis=(1, 2))
        scale[bad] = top * _fro(B[bad] / top[:, None, None])
    Bh = B / scale[:, None, None]
    l0u, l0v = np.full(m, m ** (-1.0 / pf)), np.full(n, n ** (-1.0 / pf))  # 1 at p = inf
    starts = []
    rng = derive_rng(0x9E3779B9)  # fixed: the starts are part of the deterministic solve
    for _ in range(3):
        RU, RV = (R / np.linalg.norm(R, axis=1)[:, None]
                  for R in (rng.standard_normal((m, m + n)), rng.standard_normal((n, m + n))))
        starts.append([np.broadcast_to(a, (k,) + a.shape) for a in (RU, RV, l0u, l0v)])
    # start j of matrix i is row j*k + i
    Ud, Vd, ul, vl, value, gain = _block_ascent(
        np.concatenate([Bh] * 3), pf, *(np.concatenate(parts) for parts in zip(*starts)),
        iters=max_iter, rtol=1e-7 * tol)
    best = np.argmax(value.reshape(3, k), axis=0)  # ties keep the earlier start
    stalled = gain <= max(1e-7, 1.0 / max(max_iter, 1)) * tol * (1.0 + np.abs(value))
    converged = stalled.reshape(3, k).all(axis=0)
    out = []
    for i, r in enumerate(best * k + np.arange(k)):
        g = GramSolution(*(a[r].copy() for a in (Ud, Vd, ul, vl)),
                         float(value[r]) * float(scale[i]))
        out.append((g, bool(converged[i])))
    return out


def solve_vecp_stack(Bs, p, tol=SolverConfig.tol, max_iter=SolverConfig.max_iter) -> list:
    """solve_vecp on every matrix of a (k, m, n) stack, solved together.

    Returns one (GramSolution, converged) pair per matrix, each bit-equal to
    what solve_vecp returns for that matrix alone; a matrix that is not
    converged at max_iter comes back with converged=False instead of raising.  Long stacks
    are split into chunks of at most _STACK_ELEMS matrix entries.
    """
    Bs = as_float_array(Bs, "matrix stack")
    if Bs.ndim != 3:
        raise ShapeError(f"matrix stack must be three-dimensional, got shape {Bs.shape}")
    if not np.any(Bs, axis=(1, 2)).all():
        raise DegenerateInputError("solve_vecp needs a nonzero matrix")
    pf = check_p(p)
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    k, m, n = Bs.shape
    step = max(1, _STACK_ELEMS // (m + n) ** 2)
    out = []
    for i in range(0, k, step):
        out += _solve_chunk(Bs[i:i + step], pf, tol, max_iter)
    return out


def solve_vecp(B, p, tol=SolverConfig.tol, max_iter=SolverConfig.max_iter) -> GramSolution:
    """Maximize the relaxation by block ascent on its Gram factors.

    From three fixed-seed random starts, alternately set the row factors and
    the column factors to their closed-form best given the other side until
    a step gains at most 1e-7 * tol relative or max_iter steps have run, and
    keep the best start; on matrices with m + n <= _EXTRAP_MAX_N, a start
    still ascending after 2 * _EXTRAP_EVERY steps also tries extrapolated
    steps (_extrapolated_step).  Every iterate is feasible, so the value is a lower
    estimate of the relaxation optimum.  This is solve_vecp_stack on a stack
    of one; it raises ConvergenceError, carrying the best point, when a start
    hits max_iter still gaining more than tol / max_iter per step.
    """
    B = as_matrix(B)
    [(g, converged)] = solve_vecp_stack(B[None], p, tol, max_iter)
    if not converged:
        raise ConvergenceError("relaxation solve hit max_iter still gaining", best=g)
    return g


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def _chol_psd(C: np.ndarray) -> np.ndarray:
    for jitter in (0.0, 1e-12, 1e-9, 1e-6):
        try:
            return np.linalg.cholesky(C + jitter * np.eye(C.shape[0]))
        except np.linalg.LinAlgError:
            continue
    w, V = np.linalg.eigh(C)
    return V * np.sqrt(np.clip(w, 0.0, None))[None, :]


def _trial_sign_values(B, g: GramSolution, strategy: str, trials: int, rng):
    """Raw per-trial sign roundings and their (signed) bilinear values."""
    m, r = g.u_dirs.shape
    if strategy == "hyperplane":
        G = rng.standard_normal((trials, r))
        su = np.where(G @ g.u_dirs.T >= 0.0, 1.0, -1.0)
        sv = np.where(G @ g.v_dirs.T >= 0.0, 1.0, -1.0)
    elif strategy == "krivine":
        L = g._krivine_factor
        S = np.where(rng.standard_normal((trials, L.shape[0])) @ L.T >= 0.0, 1.0, -1.0)
        su, sv = S[:, :m], S[:, m:]
    else:
        raise DomainError(f"unknown rounding strategy {strategy!r}")
    Y = su * g.u_lens
    Z = sv * g.v_lens
    vals = np.einsum("ti,ij,tj->t", Y, B, Z)
    return vals, Y, Z


def round_gram(B, g: GramSolution, strategy: str, trials: int, rng) -> RoundedPair:
    """Best feasible sign pair over ``trials`` roundings of g drawn from ``rng``.

    The winning pair is sign-normalized (y flipped wholesale when y^T B z < 0)
    so the returned value is nonnegative; ties go to the first trial.
    """
    B = as_matrix(B)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    vals, Y, Z = _trial_sign_values(B, g, strategy, int(trials), rng)
    i = int(np.argmax(np.abs(vals)))
    y, z = Y[i].copy(), Z[i].copy()
    if vals[i] < 0.0:
        y = -y
    return RoundedPair(y=y, z=z, value=float(y @ B @ z))

