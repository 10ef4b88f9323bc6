"""Lower bounds for the p->q matrix norm via convex relaxation plus rounding.

For p in (2, inf] and q = p/(p-1), the norm ||B||_{p->q} = max x^T B y over two
L_p balls.  Lifting the products x_i y_j to a psd matrix X with per-block
diagonal constraints sum_i |X_ii|^{p/2} <= 1 (max <= 1 when p = inf) gives a
convex relaxation whose optimum, written relax_p(B) below, sits within the
Grothendieck constant of the true norm:

    ||B||_{p->q}  <=  relax_p(B)  <=  K_G * ||B||_{p->q},
    K_G < pi / (2 ln(1 + sqrt(2))) < 1.783.

solve_vecp maximizes the relaxation, round_gram turns its Gram factorization
into a feasible sign pair (hyperplane rounding, or Krivine rounding whose
single-trial expectation is (2 ln(1+sqrt 2)/pi) * relaxation value), and
pq_norm_lb chains the two.

The solver has one implementation, which works on a (k, m, n) stack of
same-shape matrices: solve_vecp_stack.  Each matrix keeps its own step size,
counters and stopping rule and leaves the active set when it stops, and every
operation on the stack is one whose per-matrix result equals the unstacked
operation bit for bit, so a row of a stacked solve is exactly the solo solve.
solve_vecp is the stack of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SolverConfig
from .errors import ConvergenceError, DegenerateInputError, DomainError, ShapeError
from .sampler import STREAM_TRIALS, derive_rng
from .validation import INF, as_float_array, as_matrix, check_p, lp_norm

KRIVINE_C = math.log(1.0 + math.sqrt(2.0))  # sinh(KRIVINE_C) = 1
KG_BOUND = math.pi / (2.0 * KRIVINE_C)  # < 1.783
# entries of one (k, N, N) working array of a stacked solve (64 KB); longer
# stacks are solved in chunks, which bounds the solver's working memory at
# about twenty such arrays whatever k and N are
_STACK_ELEMS = 1 << 13
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # a smaller norm has subnormal squares


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


@dataclass(frozen=True)
class RoundedPair:
    """Feasible bilinear pair: value = y^T B z with ||y||_p, ||z||_p <= 1."""

    y: np.ndarray
    z: np.ndarray
    value: float


def holder_dual(y, q) -> np.ndarray:
    """Unit-L_p vector x (p = q/(q-1)) with x^T y = ||y||_q, for q in [1, 2).

    q = 1 returns the sign vector (p = inf convention, sign(0) := +1).
    """
    y = np.asarray(y, dtype=np.float64)
    qf = float(q)
    if not 1.0 <= qf < 2.0:
        raise DomainError(f"holder_dual needs q in [1, 2), got {q}")
    if not y.any():
        raise DegenerateInputError("holder_dual of the zero vector")
    if qf == 1.0:
        return np.where(y >= 0, 1.0, -1.0)
    nq = lp_norm(y, qf)
    return np.sign(y) * (np.abs(y) / nq) ** (qf - 1.0)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _psd_part(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    # np.maximum is what np.clip(w, 0.0, None) computes, without its wrappers
    return (V * np.maximum(w, 0.0)[:, None, :]) @ V.swapaxes(1, 2)


def _proj_psd(S: np.ndarray) -> np.ndarray:
    """Nearest psd matrix to the symmetric part of each slice of a stack."""
    S = 0.5 * (S + S.swapaxes(1, 2))
    w, V = np.linalg.eigh(S)
    neg = ~(w[:, 0] >= 0.0)
    if neg.all():  # the common case needs no row selection
        return _psd_part(w, V)
    if neg.any():
        S[neg] = _psd_part(w[neg], V[neg])
    return S


def _inner_newton(a: np.ndarray, mu: float, s: float, x0=None) -> np.ndarray:
    """Per-coordinate root of x + mu*s*x^(s-1) = a on [0, a], vectorized Newton.

    For s >= 2 the map is convex in x; for s in (1, 2) it is convex in
    u = x^(s-1).  Newton from the right endpoint is monotone, and a warm
    start from the root at a nearby multiplier converges in a few steps.
    """
    if mu <= 0.0:
        return a.copy()
    ms = mu * s
    if s == 1.5:
        # z = sqrt(x) satisfies z^2 + ms*z - a = 0; rationalized positive root
        z = 2.0 * a / (ms + np.sqrt(ms * ms + 4.0 * a))
        return z * z
    if s == 3.0:
        # ms*x^2 + x - a = 0 directly
        return 2.0 * a / (1.0 + np.sqrt(1.0 + 4.0 * ms * a))
    thr = 1e-16 * (1.0 + float(np.max(a, initial=0.0)))
    if s >= 2.0:
        msm = ms * (s - 1.0)
        x = a.copy() if x0 is None else np.minimum(np.maximum(x0, 0.0), a)
        for _ in range(40):
            xs1 = x ** (s - 1.0)
            f = x + ms * xs1 - a
            fp = 1.0 + msm * xs1 / np.maximum(x, 1e-300)
            step = f / fp
            x = np.maximum(x - step, 0.0)
            if float(np.max(np.abs(step))) <= thr:
                break
        return x
    t = 1.0 / (s - 1.0)
    u = a ** (s - 1.0) if x0 is None else np.maximum(x0, 0.0) ** (s - 1.0)
    ut = u ** t
    for _ in range(60):
        f = ut + ms * u - a
        fp = t * ut / np.maximum(u, 1e-300) + ms
        step = f / fp
        u = np.maximum(u - step, 0.0)
        ut = u ** t
        if float(np.max(np.abs(step))) <= thr:
            break
    return ut


def _proj_ball_core(y: np.ndarray, sf: float, mult_tol: float, state) -> np.ndarray:
    """Safeguarded Newton on the Lagrange multiplier of the projection.

    g(mu) = sum_i x_i(mu)^s - 1 is decreasing; the bracket starts at
    [0, previous mu] when ``state`` carries one (g(0) > 0 is known once the
    point is outside the ball), otherwise grows geometrically.  ``state`` is
    a dict caching (mu, x) so successive projections of slowly moving
    vectors -- the Dykstra iterates -- start one step from the answer.
    """
    a = np.abs(y)
    total = float(np.sum(a ** sf))
    if total <= 1.0:
        return y.copy()
    if sf == 2.0:
        return y / math.sqrt(total)
    warm_mu = state.get("mu") if state is not None else None
    warm_x = state.get("x") if state is not None else None
    if warm_x is not None and warm_x.shape != a.shape:
        warm_mu, warm_x = None, None
    lo = 0.0
    hi = float(warm_mu) if warm_mu else 1.0
    x = _inner_newton(a, hi, sf, x0=warm_x)
    g = float(np.sum(x ** sf)) - 1.0
    while g > 0.0:
        lo, hi = hi, hi * 8.0
        if hi > 1e30:
            break
        x = _inner_newton(a, hi, sf, x0=x)
        g = float(np.sum(x ** sf)) - 1.0
    mu = hi
    mu_prev = g_prev = None
    g_tol = max(1e-14, 1e-3 * mult_tol)
    for _ in range(80):
        if hi - lo <= mult_tol * max(1.0, hi) or abs(g) <= g_tol:
            break
        mu_new = math.nan
        if abs(g) <= 0.5:
            # quadratic endgame: Newton on g via the implicit derivative
            xs1 = x ** (sf - 1.0)
            denom = 1.0 + mu * sf * (sf - 1.0) * xs1 / np.maximum(x, 1e-300)
            gprime = float(np.sum(-sf * sf * xs1 * xs1 / denom))
            if gprime < 0.0:
                mu_new = mu - g / gprime
        if not lo < mu_new < hi:
            # sum x^s is close to a power law in mu, so a secant step on
            # log(sum) vs log(mu) adapts to the local slope; the first step
            # (no second point yet) uses the far-field exponent -s/(s-1)
            S2 = g + 1.0
            if mu > 0.0 and S2 > 0.0:
                if mu_prev is not None and mu_prev > 0.0 and mu_prev != mu:
                    S1 = g_prev + 1.0
                    if S1 > 0.0 and S1 != S2:
                        slope = math.log(S2 / S1) / math.log(mu / mu_prev)
                        if slope < 0.0:
                            mu_new = mu * math.exp(-math.log(S2) / slope)
                if not lo < mu_new < hi:
                    mu_new = mu * S2 ** ((sf - 1.0) / sf)
            if not lo < mu_new < hi:
                mu_new = 0.5 * (lo + hi)
        mu_prev, g_prev = mu, g
        x = _inner_newton(a, mu_new, sf, x0=x)
        g = float(np.sum(x ** sf)) - 1.0
        mu = mu_new
        if g > 0.0:
            lo = mu
        else:
            hi = mu
    if state is not None:
        state["mu"], state["x"] = mu, x.copy()
    norm = float(np.sum(x ** sf)) ** (1.0 / sf)
    if norm > 1.0:
        x = x / norm
    return np.sign(y) * x


def project_lp_ball(y, s, *, mult_tol: float = 1e-12) -> np.ndarray:
    """Euclidean projection of y onto {x : sum_i |x_i|^s <= 1}, s > 1."""
    y = np.asarray(y, dtype=np.float64)
    sf = float(s)
    if sf <= 1.0:
        raise DomainError(f"project_lp_ball needs s > 1, got {s}")
    return _proj_ball_core(y, sf, mult_tol, None)


def _proj_ball_rows(Y: np.ndarray, s: float, mult_tol: float, states, j: int) -> np.ndarray:
    """_proj_ball_core on each row of Y, with warm start states[row][j].

    The closed-form s = 2 case is vectorized (dividing by sqrt(1.0) leaves a
    row inside the ball bit-equal to its copy); other exponents run the
    multiplier search row by row.
    """
    if s == 2.0:
        total = np.add.reduce(np.abs(Y) ** s, axis=1)
        return Y / np.sqrt(np.maximum(total, 1.0))[:, None]
    return np.array([_proj_ball_core(y, s, mult_tol, st[j]) for y, st in zip(Y, states)])


def _proj_diag(T: np.ndarray, p: float, m: int, states, mult_tol: float) -> np.ndarray:
    """Project each slice onto the set with unconstrained off-diagonals and
    per-block diagonal vectors inside the L_{p/2} ball (box [-1,1] for p = inf).

    ``states`` holds one (u block, v block) pair of warm starts per slice.
    """
    k, N = T.shape[:2]
    out = T.copy()
    diag = np.diagonal(T, axis1=1, axis2=2).copy()
    if p == INF:
        diag = np.clip(diag, -1.0, 1.0)
    else:
        s = p / 2.0
        diag[:, :m] = _proj_ball_rows(diag[:, :m], s, mult_tol, states, 0)
        diag[:, m:] = _proj_ball_rows(diag[:, m:], s, mult_tol, states, 1)
    out.reshape(k, N * N)[:, ::N + 1] = diag
    return out


def _fro(A: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice, bit-equal to np.linalg.norm of the slice."""
    f = A.reshape(len(A), -1)
    return np.sqrt(np.vecdot(f, f))


def _project_feasible(Y: np.ndarray, p: float, m: int, *, sweeps: int, tol: float,
                      states, mult_tol: float = 1e-12) -> np.ndarray:
    """Dykstra alternation between the diagonal-constrained set and the psd cone.

    Works on a (k, N, N) stack; each slice stops at its own sweep.  The psd
    projection runs last so returned iterates are always psd.
    """
    X = 0.5 * (Y + Y.swapaxes(1, 2))
    out = np.empty_like(X)
    P = np.zeros_like(X)
    Q = np.zeros_like(X)
    rows = np.arange(len(X))
    for _ in range(sweeps):
        T = X + P
        R = _proj_diag(T, p, m, states, mult_tol)
        P = T - R
        T = R + Q
        Xn = _proj_psd(T)
        Q = T - Xn
        done = _fro(Xn - X) <= tol * (1.0 + _fro(Xn))
        X = Xn
        if done.any():
            out[rows[done]] = X[done]
            keep = ~done
            X, P, Q, rows = X[keep], P[keep], Q[keep], rows[keep]
            states = [st for st, kept in zip(states, keep) if kept]
            if not rows.size:
                break
    out[rows] = X
    return out


# ---------------------------------------------------------------------------
# Gram polish (closed-form alternating ascent on the factorized relaxation)
# ---------------------------------------------------------------------------

def _holder_lengths(w: np.ndarray, p: float) -> np.ndarray:
    """Row-wise argmax of l.w over ||l||_p <= 1, l >= 0, for w >= 0."""
    if p == INF:
        return np.ones_like(w)
    q = p / (p - 1.0)
    pos = ~(np.max(w, axis=1, initial=0.0) <= 0.0)
    # the q-norm root stays a scalar pow: numpy's vectorized pow can round
    # differently, and one row of a stack must equal the solve of that row
    sums = np.sum(w ** q, axis=1).tolist()
    nq = np.array([t ** (1.0 / q) if ok else 1.0 for t, ok in zip(sums, pos)])
    out = (w / nq[:, None]) ** (q - 1.0)
    out[~pos] = w.shape[1] ** (-1.0 / p)
    return out


def _gram_value(B, Ud, Vd, ul, vl) -> np.ndarray:
    M = (Ud * ul[:, :, None]) @ (Vd * vl[:, :, None]).swapaxes(1, 2)
    return np.sum(B * M, axis=(1, 2))


def _polish_gram(B, p, Ud, Vd, ul, vl, *, iters: int = 500, rtol: float = 1e-13):
    """Alternating exact block maximization; monotone, stays feasible.

    Works on a stack of problems; each stops at its own plateau.
    """
    val = _gram_value(B, Ud, Vd, ul, vl)
    res = [np.empty(a.shape) for a in (Ud, Vd, ul, vl, val)]
    rows = np.arange(len(B))
    for _ in range(iters):
        W = (B * vl[:, None, :]) @ Vd
        wn = np.linalg.norm(W, axis=2)
        Ud = np.where((wn > 0.0)[:, :, None], W / np.maximum(wn, 1e-300)[:, :, None], Ud)
        ul = _holder_lengths(wn, p)
        W = (B.swapaxes(1, 2) * ul[:, None, :]) @ Ud
        wn = np.linalg.norm(W, axis=2)
        Vd = np.where((wn > 0.0)[:, :, None], W / np.maximum(wn, 1e-300)[:, :, None], Vd)
        vl = _holder_lengths(wn, p)
        new_val = _gram_value(B, Ud, Vd, ul, vl)
        done = new_val - val <= rtol * (1.0 + np.abs(new_val))
        val = np.where(done & ~(new_val > val), val, new_val)
        if done.any():
            for r, a in zip(res, (Ud, Vd, ul, vl, val)):
                r[rows[done]] = a[done]
            keep = ~done
            B, Ud, Vd, ul, vl, val, rows = (a[keep] for a in (B, Ud, Vd, ul, vl, val, rows))
            if not rows.size:
                break
    for r, a in zip(res, (Ud, Vd, ul, vl, val)):
        r[rows] = a
    return res


def _extract_gram(X: np.ndarray, m: int, p: float):
    w, V = np.linalg.eigh(0.5 * (X + X.swapaxes(1, 2)))
    F = V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    lens = np.linalg.norm(F, axis=2)
    dirs = np.zeros_like(F)
    nz = lens > 0.0
    dirs[nz] = F[nz] / lens[nz][:, None]
    dirs[~nz, 0] = 1.0
    for row in lens:
        for blk in (row[:m], row[m:]):
            nrm = lp_norm(blk, p)
            if nrm > 1.0:
                blk /= nrm
    return dirs[:, :m], dirs[:, m:], lens[:, :m], lens[:, m:]


def _solve_chunk(B: np.ndarray, pf: float, tol: float, max_iter: int):
    """Projected gradient ascent plus Gram polish on a (k, m, n) stack.

    Every matrix keeps its own step size, streak, plateau count and
    multiplier warm starts, and leaves the active set when its own stopping
    rule fires, so each row runs exactly the iterations a solve of that
    matrix alone would.
    """
    k, m, n = B.shape
    N = m + n
    with np.errstate(over="ignore"):
        scale = _fro(B)
    # where the plain sum of squares under- or overflows, take the norm of B / max|B|
    # instead; every other matrix keeps the plain norm, and with it its bits
    bad = ~((scale > _SQRT_TINY) & (scale < INF))
    if bad.any():
        top = np.abs(B[bad]).max(axis=(1, 2))
        scale[bad] = top * _fro(B[bad] / top[:, None, None])
    Bh = B / scale[:, None, None]
    Bt = np.zeros((k, N, N))
    Bt[:, :m, m:] = 0.5 * Bh
    Bt[:, m:, :m] = 0.5 * Bh.swapaxes(1, 2)
    if pf == INF:
        X0 = np.eye(N)
    else:
        X0 = np.diag(np.concatenate([np.full(m, m ** (-2.0 / pf)), np.full(n, n ** (-2.0 / pf))]))
    X = np.repeat(X0[None], k, axis=0)
    eta0 = np.array([1.0 / float(np.linalg.norm(b)) for b in Bt])
    eta = eta0.copy()
    val = np.sum(Bt * X, axis=(1, 2))
    plateau = np.zeros(k, dtype=int)
    streak = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    states = [({}, {}) for _ in range(k)]
    X_end = np.empty_like(X)
    rows = np.arange(k)
    for _ in range(max_iter):
        Xn = _project_feasible(X + eta[:, None, None] * Bt, pf, m, sweeps=6, tol=1e-10,
                               states=[states[i] for i in rows], mult_tol=3e-10)
        vn = np.sum(Bt * Xn, axis=(1, 2))
        up = vn >= val - 1e-13 * (1.0 + np.abs(val))
        gain = vn - val
        X = np.where(up[:, None, None], Xn, X)
        val = np.where(up, vn, val)
        streak = np.where(up, streak + 1, 0)
        grow = streak >= 3
        eta = np.where(grow, np.minimum(eta * 2.0, 256.0 * eta0), np.where(up, eta, eta * 0.5))
        streak[grow] = 0
        flat = gain <= 1e-2 * tol * (1.0 + np.abs(val))
        plateau = np.where(up, np.where(flat, plateau + 1, 0), plateau)
        done = np.where(up, plateau >= 6, eta < 1e-7 * eta0)
        if done.any():
            X_end[rows[done]] = X[done]
            converged[rows[done]] = True
            keep = ~done
            X, Bt, eta, eta0, val, plateau, streak, rows = (
                a[keep] for a in (X, Bt, eta, eta0, val, plateau, streak, rows))
            if not rows.size:
                break
    X_end[rows] = X
    X = _project_feasible(X_end, pf, m, sweeps=80, tol=1e-13, states=states)
    starts = [_extract_gram(X, m, pf)]
    rng = derive_rng(0x9E3779B9)  # fixed: restarts are part of the deterministic solve
    for _ in range(2):
        RU = rng.standard_normal((m, N))
        RV = rng.standard_normal((n, N))
        RU /= np.linalg.norm(RU, axis=1)[:, None]
        RV /= np.linalg.norm(RV, axis=1)[:, None]
        if pf == INF:
            l0u, l0v = np.ones(m), np.ones(n)
        else:
            l0u, l0v = np.full(m, m ** (-1.0 / pf)), np.full(n, n ** (-1.0 / pf))
        starts.append([np.broadcast_to(a, (k,) + a.shape) for a in (RU, RV, l0u, l0v)])
    # all three starts of every matrix polish as one stack: start j of row i is row j*k + i
    Ud, Vd, ul, vl, value = _polish_gram(np.concatenate([Bh] * 3), pf,
                                         *(np.concatenate(parts) for parts in zip(*starts)))
    vals = value.reshape(3, k)
    best = np.zeros(k, dtype=int)
    for j in (1, 2):  # ties keep the earlier start
        best = np.where(vals[j] > vals[best, np.arange(k)], j, best)
    out = []
    for i, r in enumerate(best * k + np.arange(k)):
        g = GramSolution(u_dirs=Ud[r].copy(), v_dirs=Vd[r].copy(), u_lens=ul[r].copy(),
                         v_lens=vl[r].copy(), value=float(value[r]) * float(scale[i]))
        out.append((g, bool(converged[i])))
    return out


def solve_vecp_stack(Bs, p, tol: float = 1e-6, max_iter: int = 5000) -> list:
    """solve_vecp on every matrix of a (k, m, n) stack, solved together.

    Returns one (GramSolution, converged) pair per matrix, each bit-equal to
    what solve_vecp returns for that matrix alone; a matrix that hits
    max_iter comes back with converged=False instead of raising.  Long stacks
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


def solve_vecp(B, p, tol: float = 1e-6, max_iter: int = 5000) -> GramSolution:
    """Maximize the relaxation by projected gradient ascent plus Gram polish.

    Gradient steps in full matrix space are projected onto the feasible set by
    Dykstra alternation; the resulting Gram factors are then driven to a
    stationary point by closed-form alternating ascent (which cannot leave the
    feasible set, so the value stays a lower estimate of the relaxation
    optimum).  Deterministic: no RNG enters except two fixed-seed polish
    restarts.  This is solve_vecp_stack on a stack of one.
    """
    B = as_matrix(B)
    [(g, converged)] = solve_vecp_stack(B[None], p, tol, max_iter)
    if not converged:
        raise ConvergenceError("relaxation solve hit max_iter before its plateau rule", best=g)
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
        c = KRIVINE_C
        UU = np.clip(g.u_dirs @ g.u_dirs.T, -1.0, 1.0)
        VV = np.clip(g.v_dirs @ g.v_dirs.T, -1.0, 1.0)
        UV = np.clip(g.u_dirs @ g.v_dirs.T, -1.0, 1.0)
        # Gram matrix of the Krivine embedding: the sinh/sin closed forms are
        # exactly the inner products that make E[sign products] come out to
        # (2c/pi) times the relaxation inner products.
        C = np.block([[np.sinh(c * UU), np.sin(c * UV)], [np.sin(c * UV).T, np.sinh(c * VV)]])
        np.fill_diagonal(C, 1.0)
        L = _chol_psd(C)
        S = np.where(rng.standard_normal((trials, C.shape[0])) @ L.T >= 0.0, 1.0, -1.0)
        su, sv = S[:, :m], S[:, m:]
    else:
        raise DomainError(f"unknown rounding strategy {strategy!r}")
    Y = su * g.u_lens
    Z = sv * g.v_lens
    vals = np.einsum("ti,ij,tj->t", Y, B, Z)
    return vals, Y, Z


def round_gram(B, g: GramSolution, p, strategy: str = "krivine", trials: int = 100, rng=None) -> RoundedPair:
    """Best feasible sign pair over ``trials`` roundings of the Gram solution.

    The winning pair is sign-normalized (y flipped wholesale when y^T B z < 0)
    so the returned value is nonnegative; ties go to the first trial.
    """
    B = as_matrix(B)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if rng is None:
        rng = derive_rng(0, STREAM_TRIALS)
    vals, Y, Z = _trial_sign_values(B, g, strategy, int(trials), rng)
    i = int(np.argmax(np.abs(vals)))
    y, z = Y[i].copy(), Z[i].copy()
    if vals[i] < 0.0:
        y = -y
    return RoundedPair(y=y, z=z, value=float(y @ B @ z))


def pq_norm_lb(B, p, cfg: SolverConfig | None = None, rng=None) -> tuple[GramSolution, RoundedPair]:
    """solve_vecp then round_gram: a feasible lower bound on ||B||_{p->q}.

    Returns the relaxation's Gram solution and the rounded pair.  With high
    probability over trials the pair's value lands in
    [relaxation/K_G - tol, ||B||_{p->q}].  Trials draw from ``rng``, by default
    ``derive_rng(cfg.seed, STREAM_TRIALS)``.
    """
    cfg = cfg or SolverConfig()
    g = solve_vecp(B, p, cfg.tol, cfg.max_iter)
    if rng is None:
        rng = derive_rng(cfg.seed, STREAM_TRIALS)
    return g, round_gram(B, g, p, cfg.strategy, cfg.trials, rng)
