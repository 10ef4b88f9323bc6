import math

import numpy as np
import pytest

from lpmax import pqnorm
from lpmax.errors import ConvergenceError, DegenerateInputError, DomainError, ShapeError
from lpmax.mlopt import MlInstance, solve_ml
from lpmax.pqnorm import (
    KG_BOUND,
    KRIVINE_C,
    round_gram,
    solve_vecp,
    solve_vecp_stack,
)
from lpmax.tensor import holder_dual
from lpmax.sampler import derive_rng
from lpmax.validation import INF, conjugate_exponent, lp_norm

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])


# ---------------------------------------------------------------------------
# holder_dual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [1.0, 4.0 / 3.0, 1.5, 1.9])
def test_holder_dual_attains_norm(rng, q):
    y = rng.standard_normal(6)
    x = holder_dual(y, q)
    p = INF if q == 1.0 else q / (q - 1.0)
    assert abs(lp_norm(x, p) - 1.0) <= 1e-12
    assert abs(x @ y - lp_norm(y, q)) <= 1e-12 * (1.0 + lp_norm(y, q))


def test_holder_dual_sign_convention():
    x = holder_dual(np.array([0.0, -2.0, 3.0]), 1.0)
    assert np.array_equal(x, [1.0, -1.0, 1.0])


def test_holder_dual_guards():
    with pytest.raises(DomainError):
        holder_dual(np.ones(2), 2.0)
    with pytest.raises(DomainError):
        holder_dual(np.ones(2), 0.5)
    with pytest.raises(DegenerateInputError):
        holder_dual(np.zeros(3), 1.5)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
@pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 1.9])
def test_holder_dual_survives_extreme_scales(q, scale):
    # the power sum of y over- or underflows, but the dual of y is that of y / max|y|
    y = np.array([1.0, -2.0, 3.0])
    assert np.allclose(holder_dual(scale * y, q), holder_dual(y, q), rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# solve_vecp
# ---------------------------------------------------------------------------

def test_solve_vecp_identity_inf():
    g = solve_vecp(np.eye(2), INF)
    assert abs(g.value - 2.0) <= 1e-6


def test_solve_vecp_chsh_inf():
    # the relaxation reaches 2*sqrt(2) while the true norm is 2
    g = solve_vecp(CHSH, INF)
    assert abs(g.value - 2.0 * math.sqrt(2.0)) <= 1e-6


def test_solve_vecp_rank_one_finite_p(rng):
    # ||uv^T||_{p->q} = ||u||_q ||v||_q and the relaxation is tight on rank one
    p = 3.0
    q = conjugate_exponent(p)
    u, v = rng.standard_normal(3), rng.standard_normal(4)
    g = solve_vecp(np.outer(u, v), p)
    want = lp_norm(u, q) * lp_norm(v, q)
    assert abs(g.value - want) <= 1e-5 * want


def test_solve_vecp_gram_feasibility(rng):
    for p in (3.0, INF):
        B = rng.standard_normal((4, 3))
        g = solve_vecp(B, p)
        assert np.allclose(np.linalg.norm(g.u_dirs, axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(g.v_dirs, axis=1), 1.0, atol=1e-9)
        assert np.all(g.u_lens >= -1e-12) and np.all(g.v_lens >= -1e-12)
        assert lp_norm(g.u_lens, p) <= 1.0 + 1e-9
        assert lp_norm(g.v_lens, p) <= 1.0 + 1e-9
        assert abs(_gram_value(B, g) - g.value) <= 1e-9 * (1.0 + abs(g.value))


def test_solve_vecp_scale_equivariance(rng):
    B = rng.standard_normal((3, 3))
    a = solve_vecp(B, 4.0).value
    b = solve_vecp(2.5 * B, 4.0).value
    assert abs(b - 2.5 * a) <= 1e-8 * (1.0 + abs(b))


def test_solve_vecp_sign_invariance(rng):
    B = rng.standard_normal((3, 4))
    assert abs(solve_vecp(B, INF).value - solve_vecp(-B, INF).value) <= 1e-7


def test_solve_vecp_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        solve_vecp(np.zeros((2, 2)), INF)
    with pytest.raises(DomainError):
        solve_vecp(np.eye(2), 2.0)
    with pytest.raises(DomainError):
        solve_vecp(np.eye(2), INF, tol=0.0)
    with pytest.raises(DegenerateInputError):
        solve_vecp_stack(np.stack([np.eye(2), np.zeros((2, 2))]), INF)
    with pytest.raises(ShapeError):
        solve_vecp_stack(np.eye(2), INF)


@pytest.mark.parametrize("p", [INF, 4.0, 3.0, "7/2"])
def test_solve_vecp_stack_rows_equal_solo_solves(rng, p, monkeypatch):
    # each row of a stacked solve runs exactly the arithmetic of its solo
    # solve, so every array and value must match bit for bit, for full
    # solves and for max_iter = 8, which leaves rows unconverged and where a
    # tiny element budget forces chunks
    unconverged = 0
    for m, n in ((2, 2), (3, 4), (6, 5)):
        Bs = rng.standard_normal((2, m, n))
        for max_iter in (5000, 8):
            solos = []
            for B in Bs:
                try:
                    solos.append((solve_vecp(B, p, max_iter=max_iter), True))
                except ConvergenceError as exc:
                    solos.append((exc.best, False))
            budgets = [None] if max_iter > 8 else [None, 2 * (m + n) ** 2]
            for budget in budgets:
                if budget is not None:
                    monkeypatch.setattr(pqnorm, "_STACK_ELEMS", budget)
                rows = solve_vecp_stack(Bs, p, max_iter=max_iter)
                monkeypatch.undo()
                assert len(rows) == len(Bs)
                for (g, converged), (solo, solo_converged) in zip(rows, solos):
                    assert converged == solo_converged
                    unconverged += not converged
                    for f in ("u_dirs", "v_dirs", "u_lens", "v_lens"):
                        assert np.array_equal(getattr(g, f), getattr(solo, f)), f
                    assert g.value == solo.value
    assert unconverged > 0


def test_solve_vecp_converges_where_the_ascent_slows_down():
    # near an optimum of low rank the plain ascent converges linearly at a rate
    # close to 1: here its starts need about 3,700 steps to gain under 1e-13
    # per step, and the extrapolated steps reach that plateau within 200.  Cut
    # off where a step still gains more than tol / max_iter the solve raises;
    # cut off where it gains less, it converges, with its value inside tol
    B = np.random.default_rng(37).standard_normal((6, 6))
    full = solve_vecp(B, INF).value
    with pytest.raises(ConvergenceError) as exc:
        solve_vecp(B, INF, max_iter=20)
    assert exc.value.best.value < full * (1.0 - 1e-6)
    with pytest.raises(ConvergenceError):
        solve_vecp(B, INF, max_iter=0)
    assert solve_vecp(B, INF, max_iter=1000).value >= full * (1.0 - 1e-6)
    assert solve_vecp(B, INF, max_iter=200).value == full


def test_extrapolated_steps_do_not_lower_the_value(monkeypatch):
    # the extrapolated steps change where a start stops on its plateau, never
    # by more than the plateau's own width, and lift the slow starts above
    # where the plain ascent's gain rule stops them; a matrix with m + n above
    # _EXTRAP_MAX_N runs the plain ascent
    Bs = [np.random.default_rng(s).standard_normal((6, 6)) for s in (37, 38, 39)]
    big = np.random.default_rng(40).standard_normal((7, 6))
    fast = [solve_vecp(B, INF).value for B in Bs + [big]]
    monkeypatch.setattr(pqnorm, "_EXTRAP_EVERY", 10 ** 9)
    plain = [solve_vecp(B, INF).value for B in Bs + [big]]
    assert all(f >= v * (1.0 - 1e-12) for f, v in zip(fast, plain))
    assert fast[0] > plain[0]
    assert fast[-1] == plain[-1]


def _planted(rng, m, n):
    return sum(np.outer(rng.standard_normal(m), rng.standard_normal(n)) for _ in range(2))


def _zero_row_and_column(rng, m, n):
    B = rng.standard_normal((m, n))
    B[1], B[:, 2] = 0.0, 0.0
    return B


def _gram_value(B, g):
    """sum_ij B_ij u_lens[i] v_lens[j] <u_dirs[i], v_dirs[j]>, formed in full."""
    M = (g.u_dirs * g.u_lens[:, None]) @ (g.v_dirs * g.v_lens[:, None]).T
    return float(np.sum(B * M))


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e160])
@pytest.mark.parametrize("p", [3.0, "7/2", 4.0, INF])
def test_value_is_the_gram_value_of_the_factors(p, scale):
    # the ascent takes each step's value in closed form from its last half
    # step; it must be the value of the factors it returns
    for i, make in enumerate((lambda r, m, n: r.standard_normal((m, n)), _planted,
                              _zero_row_and_column)):
        B = scale * make(np.random.default_rng(60 + i), 5 + i, 7 - i)
        [(g, _)] = solve_vecp_stack(B[None], p)
        want = _gram_value(B, g)
        assert abs(g.value - want) <= 1e-12 * abs(want), (i, g.value, want)


@pytest.mark.parametrize("p", [INF, 4.0])
def test_value_never_falls_as_max_iter_grows(p):
    # each start's path does not depend on max_iter, and its value never falls;
    # the 6 x 6 matrix tries extrapolated steps, the 7 x 6 one runs the plain
    # ascent.  Cut off after an extrapolated step (k = 20, 30, ...), the value
    # is still that of the factors returned
    for B in (np.random.default_rng(37).standard_normal((6, 6)),
              np.random.default_rng(41).standard_normal((7, 6))):
        values = []
        for k in range(1, 61):
            try:
                g = solve_vecp(B, p, max_iter=k)
            except ConvergenceError as exc:
                g = exc.best
            assert abs(g.value - _gram_value(B, g)) <= 1e-12 * g.value, k
            values.append(g.value)
        assert all(b >= a for a, b in zip(values, values[1:])), values
        assert values[-1] > values[0]


# relaxation values of the earlier projected-gradient/Dykstra solver on a seeded
# corpus: matrix i is default_rng(7000 + i).standard_normal((2 + i % 7,
# 2 + (3i + 1) % 7)) at p = _CORPUS_PS[i % 5].  A solver may only match or beat them.
_CORPUS_PS = (2.5, 3.0, "7/2", 4.0, INF)
_CORPUS_VALUES = (
    1.5904447872011145, 4.843777963649146, 3.454516426764852, 5.319209195246507,
    22.888099709099823, 4.4676321119249005, 8.45582169651625, 3.831762925381913,
    7.931105206811898, 7.822391116530738, 3.999180402232666, 8.808557728285399,
    6.150515449985493, 12.299400531212644, 3.7929909995369466, 3.5026870326384527,
    3.013914885570794, 5.635085208571712, 10.51413060029873, 16.175645691322977,
    5.941365106553758, 1.6319279760072831, 5.256531956203695, 2.53653126603543,
    12.445641026747959, 5.582788668521169, 5.08293026340778, 7.686194512318622,
    2.0256146472851193, 11.838267795307171, 2.929656484697889, 6.334290350767076,
    11.158834374465288, 7.058742072018386, 21.947941215297966, 3.047092011580972,
    4.0273676481525005, 2.6720052736189386, 7.2038209757942715, 24.04816439871821,
    5.5575162720819185, 7.683224938391575, 3.1688792254882974, 9.64267138431976,
    5.167367537652628,
)


def test_solve_vecp_never_falls_below_the_corpus_values():
    for i, old in enumerate(_CORPUS_VALUES):
        B = np.random.default_rng(7000 + i).standard_normal((2 + i % 7, 2 + (3 * i + 1) % 7))
        assert solve_vecp(B, _CORPUS_PS[i % 5]).value >= old * (1.0 - 1e-9), i


def test_solve_vecp_upper_bounds_true_norm(rng):
    # relaxation dominates every feasible bilinear value
    from lpmax.oracle import exact_ml_linf

    for k in range(5):
        B = np.random.default_rng(k).standard_normal((4, 4))
        g = solve_vecp(B, INF)
        assert exact_ml_linf(B).value <= g.value + 1e-6


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["krivine", "hyperplane"])
def test_round_gram_feasible_pair(rng, strategy):
    for p in (3.0, INF):
        B = rng.standard_normal((4, 5))
        g = solve_vecp(B, p)
        pair = round_gram(B, g, strategy, 50, derive_rng(0, 0x51))
        assert pair.value >= 0.0
        assert lp_norm(pair.y, p) <= 1.0 + 1e-9
        assert lp_norm(pair.z, p) <= 1.0 + 1e-9
        assert abs(pair.y @ B @ pair.z - pair.value) <= 1e-10 * (1.0 + pair.value)
        # rounding never beats the relaxation
        assert pair.value <= g.value + 1e-9


def test_round_gram_deterministic(rng):
    B = rng.standard_normal((3, 3))
    g = solve_vecp(B, INF)
    # the second rounding of g reuses its Krivine factor; the copy computes its own
    copy = pqnorm.GramSolution(g.u_dirs, g.v_dirs, g.u_lens, g.v_lens, g.value)
    a, b, c = (round_gram(B, h, "krivine", 25, derive_rng(9, 0x51)) for h in (g, g, copy))
    for r in (b, c):
        assert np.array_equal(a.y, r.y) and np.array_equal(a.z, r.z) and a.value == r.value


def test_round_gram_rejects_unknown_strategy(rng):
    B = rng.standard_normal((2, 2))
    g = solve_vecp(B, INF)
    with pytest.raises(DomainError):
        round_gram(B, g, "simplex", 10, derive_rng(0, 0x51))
    with pytest.raises(DomainError):
        round_gram(B, g, "krivine", 0, derive_rng(0, 0x51))


# the p -> q norm lower bound is solve_ml on the order-2 instance: solve_vecp,
# then round_gram

def test_pq_norm_lb_identity():
    cert = solve_ml(MlInstance(np.eye(2), INF))
    assert abs(cert.value - 2.0) <= 1e-6


def test_pq_norm_lb_within_grothendieck(rng):
    for k in range(8):
        B = np.random.default_rng(100 + k).standard_normal((4, 4))
        p = [3.0, 4.0, INF][k % 3]
        g = solve_vecp(B, p)
        cert = solve_ml(MlInstance(B, p))
        assert cert.relax_value == g.value
        assert cert.value <= g.value + 1e-9
        assert cert.value >= g.value / KG_BOUND - 1e-6


def test_krivine_constant_values():
    assert math.sinh(KRIVINE_C) == pytest.approx(1.0, abs=1e-15)
    assert KG_BOUND < 1.783
