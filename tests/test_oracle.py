import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lpmax
from lpmax import oracle, tensor
from lpmax.errors import DomainError, ResourceLimitError, ShapeError
from lpmax.oracle import (
    OracleMethod,
    OracleResult,
    exact_ml_linf,
    fn_check,
    grid_hp,
    grid_ml,
    oracle_ml,
    sym_equivalence_check,
)
from lpmax.pqnorm import solve_vecp
from lpmax.symmetry import symmetrize
from lpmax.tensor import as_tensor, eval_multilinear, eval_poly
from lpmax.validation import INF, conjugate_exponent, lp_norm

from supersym import perm_avg, random_supersym

CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])


# ---------------------------------------------------------------------------
# exact_ml_linf
# ---------------------------------------------------------------------------

def test_exact_chsh_matrix():
    res = exact_ml_linf(CHSH)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.method is OracleMethod.VERTEX_ENUM
    assert res.resolution == 0.0


def test_exact_all_ones_cube():
    res = exact_ml_linf(np.ones((2, 2, 2)))
    assert res.value == pytest.approx(8.0, abs=1e-12)


def test_exact_single_entry():
    A = np.zeros((2, 3, 2))
    A[1, 2, 0] = -5.0
    res = exact_ml_linf(A)
    assert res.value == pytest.approx(5.0, abs=1e-12)


def test_exact_argmax_reproduces_value(rng):
    A = rng.standard_normal((3, 2, 3))
    res = exact_ml_linf(A)
    assert len(res.argmax) == 3
    for x in res.argmax:
        assert lp_norm(x, INF) <= 1.0 + 1e-12
    assert eval_multilinear(A, list(res.argmax)) == pytest.approx(res.value, rel=1e-12)


def test_exact_dominates_random_sign_probes(rng):
    A = rng.standard_normal((2, 3, 2))
    res = exact_ml_linf(A)
    for _ in range(200):
        xs = [np.sign(rng.standard_normal(n)) for n in (2, 3, 2)]
        assert eval_multilinear(A, xs) <= res.value + 1e-12


@pytest.mark.parametrize("dims", [(1, 1), (1, 4), (1, 2, 2), (2, 1, 3), (1, 3, 1, 2)])
def test_exact_matches_brute_force_with_slots_of_length_one(dims):
    A = np.random.default_rng(sum(dims)).standard_normal(dims)
    brute = max(eval_multilinear(A, [np.array(x) for x in xs])
                for xs in itertools.product(*(itertools.product((1.0, -1.0), repeat=n)
                                              for n in dims)))
    res = exact_ml_linf(A)
    assert res.value == pytest.approx(brute, rel=1e-12)
    assert [x.shape for x in res.argmax] == [(n,) for n in dims]
    assert eval_multilinear(A, list(res.argmax)) == res.value


def test_exact_sign_rows_stream_in_bounded_blocks():
    # slot 1 holds 2^17 pinned sign rows of 18 coordinates; one 2^16-row
    # block of them is 9.4 MB, all of them at once were 44 MB
    A = np.random.default_rng(25).standard_normal((18, 4))
    tracemalloc.start()
    try:
        res = exact_ml_linf(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    # brute force from the short side: max over signs y of ||A y||_1
    brute = max(np.abs(A @ np.array(y)).sum() for y in itertools.product((1.0, -1.0), repeat=4))
    assert res.value == pytest.approx(brute, rel=1e-12)


def test_exact_size_gate():
    with pytest.raises(ResourceLimitError):
        exact_ml_linf(np.ones((13, 13)))  # sum of dims over the gate


# ---------------------------------------------------------------------------
# grid_ml
# ---------------------------------------------------------------------------

def test_grid_ml_identity_close_to_relaxation():
    g = grid_ml(np.eye(2), 3.0, steps=64)
    v = solve_vecp(np.eye(2), 3.0).value
    assert g.value <= v + 1e-9
    assert g.value >= 0.98 * v


def test_grid_ml_rank_one_closed_form(rng):
    p = 3.0
    q = conjugate_exponent(p)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    closed = lp_norm(u, q) * lp_norm(v, q)
    res = grid_ml(np.outer(u, v), p, steps=17, refine=4)
    assert res.value <= closed + 1e-9
    assert res.value >= closed * (1.0 - 5e-3)


def test_grid_ml_refinement_monotone(rng):
    A = rng.standard_normal((3, 3))
    # nested grids: steps -> 2*steps - 1 reuses every point
    v1 = grid_ml(A, 3.0, steps=9).value
    v2 = grid_ml(A, 3.0, steps=17).value
    assert v2 >= v1 - 1e-12
    # ascent polish can only help
    v3 = grid_ml(A, 3.0, steps=9, refine=4).value
    assert v3 >= v1 - 1e-12


def test_grid_ml_inf_steps2_equals_vertex_enum(rng):
    # the {-1, 1} grid plus the dual last slot is exactly sign enumeration
    A = rng.standard_normal((2, 3, 2))
    g = grid_ml(A, INF, steps=2)
    e = exact_ml_linf(A)
    assert g.value == pytest.approx(e.value, rel=1e-12)


def test_grid_ml_argmax_feasible(rng):
    A = rng.standard_normal((2, 2, 3))
    res = grid_ml(A, 4.0, steps=7, refine=2)
    assert len(res.argmax) == 3
    for x in res.argmax:
        assert lp_norm(x, 4.0) <= 1.0 + 1e-9
    assert eval_multilinear(A, list(res.argmax)) == pytest.approx(res.value, rel=1e-10)
    assert res.method is OracleMethod.GRID
    assert res.resolution == pytest.approx(2.0 / 6.0)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_grid_ml_survives_extreme_scales(scale):
    # the Holder duals that complete each scanned row must not over- or underflow
    A = np.random.default_rng(0).standard_normal((3, 3, 3))
    want = grid_ml(A, 3.0, 9, 0).value
    assert want > 4.0
    assert grid_ml(scale * A, 3.0, 9, 0).value / scale == pytest.approx(want, rel=1e-12)

@pytest.mark.parametrize("vec", [np.array([1.0, -2.0]), np.array(3.0)])
def test_exact_ml_linf_rejects_order_below_two(vec):
    # as grid_ml does: a ShapeError (exit 3), not an IndexError from the empty slot list
    with pytest.raises(ShapeError):
        exact_ml_linf(vec)


def test_grid_ml_budget_and_arg_guards(rng):
    with pytest.raises(ResourceLimitError):
        grid_ml(rng.standard_normal((12, 12, 12, 12)), INF, steps=33)
    with pytest.raises(DomainError):
        grid_ml(np.eye(2), 3.0, steps=1)
    with pytest.raises(ShapeError):
        grid_ml(np.ones(3), 3.0, steps=5)


@pytest.mark.parametrize("dims, steps, calls", [
    ((3, 3, 3), 5, 2),        # the 98-row inner slot is built once
    ((1, 3, 2), 106, 3),      # a 66,152-row inner slot streams once per outer row
])
def test_grid_ml_builds_each_inner_slot_once(monkeypatch, dims, steps, calls):
    made = []
    build = oracle._sphere_chunks

    def counting(*args):
        made.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "_sphere_chunks", counting)
    grid_ml(np.random.default_rng(4).standard_normal(dims), 3.0, steps=steps)
    assert len(made) == calls


# ---------------------------------------------------------------------------
# the pruning bound of the multilinear scans
# ---------------------------------------------------------------------------

def _matrix_bound(C, p, steps=0):
    return tensor.matrix_bounds(C[None], conjugate_exponent(p), steps)[0]


def _bound_corpus():
    """(matrix, scale, p): every shape 1..6 x 1..6 in each of nine kinds, p
    cycling; the last two are Gaussian matrices to be scaled by 1e-170 (their
    squares underflow) and by 1e160 (their squares overflow)."""
    ps = (2.0, 3.0, 3.5, 4.0, INF)
    kinds = (
        lambda rng, m, n: rng.standard_normal((m, n)),
        lambda rng, m, n: 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((m, n)),
        lambda rng, m, n: np.outer(rng.standard_normal(m), rng.standard_normal(n)),
        lambda rng, m, n: _single((m, n), (rng.integers(m), rng.integers(n)), -2.5),
        lambda rng, m, n: np.zeros((m, n)),
        lambda rng, m, n: rng.integers(-2, 3, size=(m, n)).astype(float),
        lambda rng, m, n: rng.integers(-1, 2, size=(m, n)).astype(float),
    )
    scaled = [(kind, 1.0) for kind in kinds] + [(kinds[0], 1e-170), (kinds[0], 1e160)]
    rng = np.random.default_rng(98)
    return [(kind(rng, m, n), scale, ps[(m + n + k) % len(ps)])
            for k, (kind, scale) in enumerate(scaled) for m in range(1, 7) for n in range(1, 7)]


def test_row_bound_is_above_the_oracle_value():
    cases = _bound_corpus()
    assert len(cases) >= 200
    for C, scale, p in cases:
        # ||C||_{p->q} is transpose-invariant; the oracle grids the shorter side
        short = C if C.shape[0] <= C.shape[1] else C.T
        steps = {4: 17, 5: 9, 6: 7}.get(short.shape[0], 33)
        # the norm is homogeneous: the oracle runs on the unscaled matrix, so
        # its own arithmetic stays in range
        res = oracle_ml(short, p, steps, refine=6)
        if p == INF:
            assert res.method is OracleMethod.VERTEX_ENUM  # the exact optimum
        # both tiers of the scan: the cheap bound and the one its dual steps tighten
        for steps in (0, oracle._SCAN_DUAL_STEPS):
            bound = _matrix_bound(scale * C, p, steps)
            assert bound * (1.0 + tensor._BOUND_SLACK) >= scale * res.value, (C, scale, p, steps)


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e160])
@pytest.mark.parametrize("p", [2.0, 3.0, 3.5, 4.0, INF])
def test_row_bound_is_tight_on_rank_one(p, scale):
    q = conjugate_exponent(p)
    rng = np.random.default_rng(99)
    for m, n in itertools.product(range(1, 7), repeat=2):
        u, v = rng.standard_normal(m), rng.standard_normal(n)
        assert _matrix_bound(scale * np.outer(u, v), p) == pytest.approx(
            scale * lp_norm(u, q) * lp_norm(v, q), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dims, seed, steps, refine, parent_calls", [
    ((3, 3, 3), 92, 17, 6, 9240),
    ((2, 2, 2, 2), 91, 9, 0, 4108),   # pruned on two levels
    # the benchmark's size; pruned in grid order under the cheap bound alone
    pytest.param((3, 3, 3), 5, 33, 6, 12630, id="3x3x3-s33-grid-order"),
])
def test_pruning_skips_most_rows(monkeypatch, dims, seed, steps, refine, parent_calls):
    # parent_calls: row_norms calls of the same scan without pruning, or (the
    # last case) with each block pruned in grid order under the cheap bound
    calls = []
    norms = oracle.row_norms

    def counting(X, r):
        calls.append(len(X))
        return norms(X, r)

    monkeypatch.setattr(oracle, "row_norms", counting)
    grid_ml(_gauss(dims, seed), 3.0, steps, refine)
    assert len(calls) <= parent_calls / 3


@pytest.mark.parametrize("call", [
    lambda: grid_ml(_gauss((3, 3, 3), 83), 2.0, 9, 6),  # p = 2: the spectral term is exact
    lambda: grid_ml(_gauss((2, 3, 2, 2), 82), 4.0, 7, 6),
    lambda: grid_ml(_gauss((2, 2, 2, 2, 2), 83), 3.5, 5, 3),
    lambda: grid_ml(_ints((3, 3, 3), 83, -1, 1), INF, 9, 6),
    lambda: grid_ml(_gauss((2, 1, 3), 83), 3.0, 3, 6),  # 16 offers: the top 6 fills late
    # rank one, many rows of one value: bounds equal to the floor up to rounding
    lambda: grid_ml(np.full((3, 2, 3), 0.1), 4.0, 9, 6),
    lambda: exact_ml_linf(_gauss((2, 3, 2, 3), 86)),
    # squares of the entries underflow (or are subnormal) and overflow
    lambda: grid_ml(1e-170 * _gauss((3, 3, 3), 0), 3.0, 9, 3),
    lambda: grid_ml(1e-170 * _gauss((3, 3, 3), 0), INF, 9, 3),
    lambda: grid_ml(1e-160 * _gauss((2, 3, 2, 2), 1), 2.0, 7, 3),
    lambda: exact_ml_linf(1e-170 * _gauss((3, 3, 3), 0)),
    lambda: grid_ml(1e160 * _gauss((3, 3, 3), 0), 3.0, 9, 3),
    lambda: grid_ml(1e160 * _gauss((3, 3, 3), 0), 2.0, 9, 3),
    lambda: exact_ml_linf(1e160 * _gauss((2, 3, 2, 3), 2)),
    # the bound stack itself overflows
    lambda: grid_ml(5e307 * _gauss((3, 3, 3), 0), 3.0, 9, 3),
    lambda: exact_ml_linf(5e307 * _gauss((3, 3, 3), 0)),
    # the benchmark's size, where the dual steps tighten every block
    lambda: grid_ml(_gauss((3, 3, 3), 5), 3.0, 33, 6),
    lambda: grid_ml(_gauss((3, 3, 3), 6), 4.0, 33, 6),
    # slot 2's blocks are visited best first and tightened, once per row of slot 1
    lambda: grid_ml(_gauss((2, 3, 3, 2), 84), 3.0, 7, 6),
    # every row ties: the top 6 is the first 6 offers in grid order
    lambda: grid_ml(np.full((3, 3, 3), 0.1), 3.0, 17, 6),
], ids=["gauss-d3-p2", "gauss-d4", "gauss-d5", "ints-pinf", "few-offers", "rank-one-ties",
        "exact-d4", "tiny-p3", "tiny-pinf", "subnormal-d4-p2", "tiny-exact", "huge-p3",
        "huge-p2", "huge-exact-d4", "overflow-p3", "overflow-exact", "verify-p3", "verify-p4",
        "d4-inner-best-first", "all-ties"])
def test_pruned_scan_keeps_the_full_scans_top_k(monkeypatch, call):
    # every item the full scan keeps, in order, not only the winner: refine
    # polishes all of them
    tops = []

    class Recording(oracle._TopK):
        def __init__(self, k):
            super().__init__(k)
            tops.append(self)

    monkeypatch.setattr(oracle, "_TopK", Recording)
    call()
    monkeypatch.setattr(oracle, "slot_bounds", lambda arr, X, q, steps=0: np.full(len(X), np.inf))
    call()
    pruned, full = ([(v, [x.tobytes() for x in xs]) for v, xs in top.items] for top in tops)
    assert pruned == full


@pytest.mark.parametrize("k", [1, 6, 40])
def test_topk_keeps_the_same_items_in_any_offer_order(k):
    # offers as a scan makes them, in grid order: values heavy with exact
    # ties, and each row x met again later as -x on the opposite face, with
    # the same value (the L_q norm of a contraction is sign-symmetric)
    rng = np.random.default_rng(78)
    offers = []
    for i in range(120):
        value = float(rng.integers(-2, 3)) / 4.0
        x = rng.integers(-2, 3, size=3).astype(float)
        pos = (int(i // 10), int(i % 10))
        offers.append((value, (x,), pos))
        if i % 3 == 0:
            offers.append((value, (-x,), (pos[0] + 12, pos[1])))
    offers.sort(key=lambda t: t[2])

    def kept(order):
        top = oracle._TopK(k)
        for i in order:
            top.offer(*offers[i])
        return [(v, [x.tobytes() for x in xs]) for v, xs in top.items]

    in_order = kept(range(len(offers)))
    ranked = sorted(offers, key=lambda t: (-t[0], t[2]))[:k]
    assert in_order == [(v, [x.tobytes() for x in xs]) for v, xs, _ in ranked]
    for seed in range(5):
        assert kept(np.random.default_rng(seed).permutation(len(offers))) == in_order


def test_row_bounds_memory_is_bounded():
    # the whole stack of this block is 65,536 x 3 x 2,000 doubles (3 GB)
    rng = np.random.default_rng(97)
    block = rng.standard_normal((1 << 16, 3))
    arr = rng.standard_normal((3, 3, 2000))
    tracemalloc.start()
    try:
        bounds = tensor.slot_bounds(arr, block, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    for i in (0, 12345, len(block) - 1):  # rows of the first, a middle and the last sub-block
        S = np.tensordot(block[i], arr, axes=(0, 0))
        allowance = tensor.rounding_allowance(arr, block[i:i + 1], 1.0)[0]
        assert bounds[i] == pytest.approx(_matrix_bound(S, INF) + allowance, rel=1e-12)


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 2, 2)])
def test_p2_scans_of_tiny_tensors_stay_feasible(dims):
    # the last slot's L_2-dual normalizes w; w @ w of entries near 1e-170 underflows to 0
    A = _gauss(dims, 5)
    for scan in (lambda T: grid_ml(T, 2.0, 7, 3), lambda T: oracle_ml(T, 2.0, 7, 3)):
        tiny, ref = scan(1e-170 * A), scan(A)
        assert all(np.isfinite(x).all() and lp_norm(x, 2.0) <= 1.0 + 1e-12 for x in tiny.argmax)
        assert tiny.value == pytest.approx(1e-170 * ref.value, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
@pytest.mark.parametrize("dims", [(3, 3), (3, 3, 3)])
def test_p2_scans_of_scaled_tensors_keep_their_value(dims, scale):
    # the last slot's offers are L_2 norms whose squares under- or overflow;
    # an inf or 0 offer from each row would tie them all, and the first row won
    A = _gauss(dims, 3)
    ref = grid_ml(A, 2.0, 9, 0).value
    assert grid_ml(scale * A, 2.0, 9, 0).value / scale == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# grid_hp
# ---------------------------------------------------------------------------

def test_grid_hp_cubic_monomial():
    # f(x) = 3 x1^2 x2, max over the sup-ball is 3 at (1, 1)
    A = np.zeros((2, 2, 2))
    A[0, 0, 1] = A[0, 1, 0] = A[1, 0, 0] = 1.0
    res = grid_hp(A, INF, steps=3)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert abs(res.argmax[0][1]) == pytest.approx(1.0)


def test_grid_hp_sum_of_squares():
    res = grid_hp(np.eye(2), INF, steps=5)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_grid_hp_nonpositive_forms():
    # -(v.x)^4 has its kernel direction on the steps=5 grid: the sphere max
    # is a legitimate 0 and the witness must reproduce it
    v = np.array([1.0, 0.5])
    A = -np.einsum("i,j,k,l->ijkl", v, v, v, v)
    res = grid_hp(A, INF, steps=5)
    assert res.value == 0.0
    assert eval_poly(as_tensor(A), res.argmax[0]) == pytest.approx(0.0, abs=1e-12)
    # -(x1^2 + x2^2)^2 is strictly negative on the sphere: the ball optimum
    # is 0 at the origin
    B = -perm_avg(np.einsum("ij,kl->ijkl", np.eye(2), np.eye(2)))
    res = grid_hp(B, INF, steps=5)
    assert res.value == 0.0
    assert np.array_equal(res.argmax[0], np.zeros(2))


def test_grid_hp_refinement_monotone(rng):
    A = random_supersym(rng, 3, 3)
    v1 = grid_hp(A, 3.0, steps=9).value
    v2 = grid_hp(A, 3.0, steps=17).value
    v3 = grid_hp(A, 3.0, steps=9, refine=6).value
    assert v2 >= v1 - 1e-12
    assert v3 >= v1 - 1e-12


def test_grid_hp_argmax_on_sphere(rng):
    A = random_supersym(rng, 2, 4)
    res = grid_hp(A, 4.0, steps=9, refine=3)
    if res.value > 0.0:
        assert lp_norm(res.argmax[0], 4.0) == pytest.approx(1.0, abs=1e-9)


def test_grid_hp_budget_counts_refine_points(monkeypatch, rng):
    A = random_supersym(rng, 4, 3)
    # steps 3 on n = 4: 80 surface points, plus 5^4 = 625 offsets per round
    monkeypatch.setattr(oracle, "GRID_BUDGET", 80 + 625)
    grid_hp(A, 3.0, steps=3, refine=1)
    with pytest.raises(ResourceLimitError):
        grid_hp(A, 3.0, steps=3, refine=2)


def test_grid_hp_refine_blocks_share_one_center(rng):
    # n = 7: the 5^7 offsets of a round run in several blocks, all around the
    # grid winner; the reference takes them in one pass, first index winning
    A = random_supersym(rng, 7, 3)
    p, steps = 3.0, 2
    x0 = grid_hp(A, p, steps).argmax[0]
    offsets = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=7)))
    pts = x0 + 2.0 / (steps - 1) * offsets
    pts = pts / np.sum(np.abs(pts) ** p, axis=1, keepdims=True) ** (1.0 / p)
    vals = np.einsum("ijk,ti,tj,tk->t", A, pts, pts, pts)
    k = int(np.argmax(vals))
    assert vals[k] > eval_poly(as_tensor(A), x0)  # the round leaves the grid point
    res = grid_hp(A, p, steps, refine=1)
    assert res.value == pytest.approx(vals[k], rel=1e-12)
    assert np.allclose(res.argmax[0], pts[k], rtol=0, atol=1e-12)


def test_grid_hp_guards(rng):
    with pytest.raises(DomainError):
        grid_hp(rng.standard_normal((3, 3)), INF, steps=5)  # not super-symmetric
    with pytest.raises(ShapeError):
        grid_hp(np.ones(4), INF, steps=5)


# ---------------------------------------------------------------------------
# the polynomial row evaluator of grid_hp
# ---------------------------------------------------------------------------

def _einsum_rows(arr, X):
    """grid_hp's former evaluator: one 4-operand einsum over the whole block."""
    letters = "abcdefghijkl"[:arr.ndim]
    sub = letters + "," + ",".join("t" + c for c in letters) + "->t"
    return np.einsum(sub, arr, *([X] * arr.ndim), optimize=True)


def _row_counts(n, d):
    """No rows, one, a few, and (where a sub-block is small enough to check
    row by row) a count past two sub-blocks that is no multiple of one."""
    step = max(1, oracle._CHUNK // n ** (d - 1))
    return [0, 1, 37] + ([2 * step + 3] if step <= 2048 else [])


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_poly_rows_match_contract_all(d, scale):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(210 + d)
    for n in range(1, 7):
        arr = scale * random_supersym(rng, n, d)
        for rows in _row_counts(n, d):
            X = rng.standard_normal((rows, n))
            X[::5] = 0.0  # zero rows
            vals = oracle._poly_rows(arr, X)
            assert vals.shape == (rows,)
            for x, v in zip(X, vals):
                ref = tensor.contract_all(arr, [x] * d)
                tol = 4 * n ** d * eps * tensor.contract_all(np.abs(arr), [np.abs(x)] * d)
                assert abs(v - ref) <= tol, (n, d, rows, scale)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_poly_rows_are_sign_symmetric(d):
    rng = np.random.default_rng(220 + d)
    for n in range(1, 7):
        arr = random_supersym(rng, n, d)
        X = rng.standard_normal((max(_row_counts(n, d)), n))
        pos, neg = oracle._poly_rows(arr, X), oracle._poly_rows(arr, -X)
        assert neg.tobytes() == (pos if d % 2 == 0 else -pos).tobytes(), (n, d)


def test_poly_rows_memory_is_bounded():
    # one unchunked (65,536 x 16) intermediate alone is 8 MiB
    rng = np.random.default_rng(230)
    arr = random_supersym(rng, 4, 3)
    X = rng.standard_normal((1 << 16, 4))
    tracemalloc.start()
    try:
        vals = oracle._poly_rows(arr, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    for i in (0, 4097, len(X) - 1):  # rows of the first, a middle and the last sub-block
        assert vals[i] == pytest.approx(tensor.contract_all(arr, [X[i]] * 3), rel=1e-12)


def _hp_cases():
    """(tensor, p, refine): seeded Gaussian super-symmetric tensors, d = 2..4."""
    sizes = {2: (2, 3, 5), 3: (2, 3, 4), 4: (2, 3)}
    return [(_sym(n, d, 240 + 7 * d + n), p, refine)
            for d, ns in sizes.items() for n in ns
            for p in (3.0, 4.0, INF) for refine in (0, 8)]


def test_grid_hp_certificates_match_the_einsum_evaluator(monkeypatch):
    cases = _hp_cases()
    assert len(cases) >= 40
    new = [grid_hp(A, p, 9, refine) for A, p, refine in cases]
    monkeypatch.setattr(oracle, "_poly_rows", _einsum_rows)
    old = [grid_hp(A, p, 9, refine) for A, p, refine in cases]
    for a, b in zip(new, old):
        assert a.argmax[0].tobytes() == b.argmax[0].tobytes()
        assert a.value == b.value


# ---------------------------------------------------------------------------
# fn_check and the equivalence check
# ---------------------------------------------------------------------------

def test_fn_check_known_values():
    gm, formula = fn_check(2, 3, 2.0, steps=61)
    assert formula == pytest.approx(3.0, abs=1e-12)
    assert gm <= formula + 1e-3
    gm, formula = fn_check(2, 2, 2.0, steps=61)
    assert formula == pytest.approx(2.0, abs=1e-12)
    gm, formula = fn_check(2, 3, INF, steps=31)
    assert formula == pytest.approx(2.0, abs=1e-12)  # n^(1-0) with p = inf


def test_fn_check_balanced_point_attains():
    # include the balanced point x = (d/n, ..., d/n) in the grid: steps odd
    gm, formula = fn_check(2, 4, 3.0, steps=81)
    assert gm <= formula + 1e-3
    assert gm >= formula - 1e-2


def test_fn_check_guards():
    with pytest.raises(DomainError):
        fn_check(1, 3, 2.0, steps=10)
    with pytest.raises(DomainError):
        fn_check(3, 2, 2.0, steps=10)
    with pytest.raises(DomainError):
        fn_check(2, 3, 1.5, steps=10)
    with pytest.raises(DomainError):
        fn_check(2, 3, 2.0, steps=1)


def test_sym_equivalence_identity_inf():
    assert sym_equivalence_check(np.eye(2), INF, steps=9)


def test_sym_equivalence_singleton_p4():
    assert sym_equivalence_check(np.array([[1.0]]), 4.0, steps=41)


def test_sym_equivalence_random_and_padded(rng):
    A = rng.standard_normal((2, 2, 2))
    assert sym_equivalence_check(A, INF, steps=9)
    # sym of the padded cube is 9x9x9, past the enumeration gate; at p = inf
    # the steps=2 vertex grid is still exact for the multilinear objective
    padded = np.zeros((3, 3, 3))
    padded[:2, :2, :2] = A
    assert sym_equivalence_check(padded, INF, steps=2)


def test_oracle_result_frozen():
    res = exact_ml_linf(np.eye(2))
    assert isinstance(res, OracleResult)
    with pytest.raises(AttributeError):
        res.value = 0.0


# ---------------------------------------------------------------------------
# pinned oracle corpus: argmax bytes, value, method and resolution per case
# ---------------------------------------------------------------------------

def _ints(shape, seed, low=-2, high=2):
    return np.random.default_rng(seed).integers(low, high + 1, size=shape).astype(float)


def _signs(shape, seed):
    return np.where(np.random.default_rng(seed).standard_normal(shape) >= 0.0, 1.0, -1.0)


def _gauss(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def _sym(n, d, seed):
    return random_supersym(np.random.default_rng(seed), n, d)


def _single(shape, index, value):
    A = np.zeros(shape)
    A[index] = value
    return A


ORACLE_CASES = {
    "exact-d2-gauss": lambda: exact_ml_linf(_gauss((3, 4), 11)),
    "exact-d2-int": lambda: exact_ml_linf(_ints((4, 5), 12)),
    "exact-d2-sign": lambda: exact_ml_linf(_signs((5, 3), 13)),
    "exact-d2-ones": lambda: exact_ml_linf(np.ones((3, 3))),
    "exact-d3-gauss": lambda: exact_ml_linf(_gauss((2, 3, 2), 14)),
    "exact-d3-6x6x6": lambda: exact_ml_linf(_gauss((6, 6, 6), 15)),
    "exact-d3-int": lambda: exact_ml_linf(_ints((3, 3, 3), 16, -1, 1)),
    "exact-d3-sign": lambda: exact_ml_linf(_signs((3, 4, 3), 17)),
    "exact-d3-ones": lambda: exact_ml_linf(np.ones((2, 2, 2))),
    "exact-d3-single": lambda: exact_ml_linf(_single((2, 3, 2), (1, 2, 0), -5.0)),
    "exact-d4-gauss": lambda: exact_ml_linf(_gauss((2, 3, 2, 3), 18)),
    "exact-d4-int": lambda: exact_ml_linf(_ints((3, 2, 2, 2), 19, -1, 1)),
    "exact-d4-sign": lambda: exact_ml_linf(_signs((2, 2, 2, 2), 20)),
    "exact-d5-gauss": lambda: exact_ml_linf(_gauss((2, 2, 2, 2, 3), 21)),
    "exact-d5-int": lambda: exact_ml_linf(_ints((2, 2, 3, 2, 2), 22, -1, 1)),
    "exact-d5-sign": lambda: exact_ml_linf(_signs((2, 2, 2, 2, 2), 23)),
    "exact-d2-18x2": lambda: exact_ml_linf(_gauss((18, 2), 24)),  # 2^17 sign rows
}
for _i, (_p, _r) in enumerate(itertools.product((2.0, 3.0, 3.5, 4.0, INF), (0, 1, 6))):
    ORACLE_CASES[f"grid-ml-p{_p}-r{_r}-d2"] = (
        lambda p=_p, r=_r, s=30 + _i: grid_ml(_gauss((3, 3), s), p, steps=9, refine=r))
    ORACLE_CASES[f"grid-ml-p{_p}-r{_r}-d3"] = (
        lambda p=_p, r=_r, s=60 + _i: grid_ml(_gauss((2, 3, 2), s), p, steps=7, refine=r))
# two inner slots; the benchmark's 3x3x3 scale; an inner slot of 66,152 rows,
# past the size up to which an inner slot is built once, so it streams
for _r in (0, 6):
    ORACLE_CASES[f"grid-ml-r{_r}-d4"] = (
        lambda r=_r: grid_ml(_gauss((2, 2, 2, 2), 91), 3.0, steps=7, refine=r))
ORACLE_CASES["grid-ml-3x3x3-s17"] = lambda: grid_ml(_gauss((3, 3, 3), 92), 3.0, 17, 6)
ORACLE_CASES["grid-ml-inner-streamed"] = lambda: grid_ml(_gauss((1, 3, 2), 93), 4.0, 106)
ORACLE_CASES["grid-ml-int-ties"] = lambda: grid_ml(_ints((3, 2, 3), 90, -1, 1), 4.0, 5, 2)
ORACLE_CASES["grid-ml-zero-slice"] = lambda: grid_ml(_single((2, 2, 3), (0, 1, 2), 1.0),
                                                     3.0, 5, 1)
# pruned scans: a rank-one tensor whose optimum is a grid point, so the bound
# of the winning row equals its value; pruning on three levels; many tied
# block maxima at p = inf; a long last slot, so the bound stack of a 27-row
# block is built in two sub-blocks
ORACLE_CASES["grid-ml-rank-one-on-grid"] = lambda: grid_ml(
    np.einsum("i,j,k->ijk", [1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, 2.0, -2.0]), 3.0, 9, 6)
ORACLE_CASES["grid-ml-d5"] = lambda: grid_ml(_gauss((2, 2, 2, 2, 2), 94), 3.0, 5, 1)
ORACLE_CASES["grid-ml-pinf-int-ties"] = lambda: grid_ml(_ints((3, 3, 3), 95, -1, 1), INF, 9, 6)
ORACLE_CASES["grid-ml-long-last-slot"] = lambda: grid_ml(_gauss((4, 2, 20000), 96), 4.0, 3, 1)
for _i, (_p, _r) in enumerate(itertools.product((3.0, 4.0, INF), (0, 8))):
    ORACLE_CASES[f"grid-hp-p{_p}-r{_r}-d3"] = (
        lambda p=_p, r=_r, s=100 + _i: grid_hp(_sym(3, 3, s), p, steps=9, refine=r))
    ORACLE_CASES[f"grid-hp-p{_p}-r{_r}-d4"] = (
        lambda p=_p, r=_r, s=120 + _i: grid_hp(_sym(2, 4, s), p, steps=9, refine=r))
# sym_equivalence_check: its verdict, and the two oracle calls it makes
for _name, _A, _p, _steps in (("cube-inf", _gauss((2, 2, 2), 140), INF, 9),
                              ("mat-p4", _gauss((2, 2), 141), 4.0, 9),
                              ("padded-inf", np.pad(_gauss((2, 2, 2), 142), (0, 1)), INF, 2)):
    ORACLE_CASES[f"sym-{_name}-check"] = (
        lambda A=_A, p=_p, s=_steps: sym_equivalence_check(A, p, s))
    ORACLE_CASES[f"sym-{_name}-lhs"] = lambda A=_A, p=_p, s=_steps: oracle_ml(A, p, s, 4)
    ORACLE_CASES[f"sym-{_name}-rhs"] = (
        lambda A=_A, p=_p, s=_steps: oracle_ml(symmetrize(A), p, s, 4))


def oracle_digest(res) -> str:
    if isinstance(res, bool):
        return repr(res)
    h = hashlib.sha256()
    for x in res.argmax:
        x = np.asarray(x)
        h.update(repr((x.dtype.str, x.shape)).encode() + x.tobytes())
    h.update(f"{res.value!r}|{res.method.value}|{res.resolution!r}".encode())
    return h.hexdigest()[:16]


PINNED_ORACLES = {
    "exact-d2-18x2": "0d39af0631e7e911",
    "exact-d2-gauss": "1b8b8c288396c1c5",
    "exact-d2-int": "8cb68b34ff5356dd",
    "exact-d2-ones": "2305a561dcb40925",
    "exact-d2-sign": "79616109b433b0f8",
    "exact-d3-6x6x6": "0086ba280aa50247",
    "exact-d3-gauss": "aa7cef842d4c8d02",
    "exact-d3-int": "4c62bad417e2a235",
    "exact-d3-ones": "f87adc41bdf90c81",
    "exact-d3-sign": "a6c9683a59534380",
    "exact-d3-single": "6b51a28a65fcd96f",
    "exact-d4-gauss": "b64cee71cb12cb86",
    "exact-d4-int": "cf51d2a45aa1329b",
    "exact-d4-sign": "877fd335994aced4",
    "exact-d5-gauss": "f29632538664122c",
    "exact-d5-int": "22df1e2f89724c9c",
    "exact-d5-sign": "d40f7a7e178844d5",
    "grid-hp-p3.0-r0-d3": "65580ad15454715f",
    "grid-hp-p3.0-r0-d4": "68f437e72ae75be5",
    "grid-hp-p3.0-r8-d3": "ec81a19e254805d7",
    "grid-hp-p3.0-r8-d4": "9ccfbe6737381e7a",
    "grid-hp-p4.0-r0-d3": "44b03b0eabc87065",
    "grid-hp-p4.0-r0-d4": "e74857ea002e553f",
    "grid-hp-p4.0-r8-d3": "d7940700664e09ed",
    "grid-hp-p4.0-r8-d4": "047eb8dc9cf51cc8",
    "grid-hp-pinf-r0-d3": "223bb84bb0919d9c",
    "grid-hp-pinf-r0-d4": "fde7219addb26921",
    "grid-hp-pinf-r8-d3": "ce6665604ce2cde3",
    "grid-hp-pinf-r8-d4": "f9f96f626bd6f927",
    "grid-ml-3x3x3-s17": "b9e7d0897dd1a5de",
    "grid-ml-d5": "aac7bbc7a9bfa31b",
    "grid-ml-inner-streamed": "8ff512cea8a2b192",
    "grid-ml-int-ties": "1d3448954168f895",
    "grid-ml-long-last-slot": "8b595286fa66c35a",
    "grid-ml-p2.0-r0-d2": "1667af49e0b33366",
    "grid-ml-p2.0-r0-d3": "79e71bc53f88434a",
    "grid-ml-p2.0-r1-d2": "9f9d0acd11cf9d70",
    "grid-ml-p2.0-r1-d3": "386d1a7d6eafd039",
    "grid-ml-p2.0-r6-d2": "fa065d99bd891471",
    "grid-ml-p2.0-r6-d3": "0e49ed0cd9838958",
    "grid-ml-p3.0-r0-d2": "ddcb48d55ef82f61",
    "grid-ml-p3.0-r0-d3": "212600235c8a942b",
    "grid-ml-p3.0-r1-d2": "210605d6c91f55cc",
    "grid-ml-p3.0-r1-d3": "19890aa6a9a7866e",
    "grid-ml-p3.0-r6-d2": "06514abd95b8f677",
    "grid-ml-p3.0-r6-d3": "baacd825c0c055c0",
    "grid-ml-p3.5-r0-d2": "0aa3f6866565a376",
    "grid-ml-p3.5-r0-d3": "d07e387eb17920a7",
    "grid-ml-p3.5-r1-d2": "83dd9125e133e946",
    "grid-ml-p3.5-r1-d3": "f47b6c62fbcc1900",
    "grid-ml-p3.5-r6-d2": "369039715f9d0833",
    "grid-ml-p3.5-r6-d3": "d1df4a3711b1ec62",
    "grid-ml-p4.0-r0-d2": "45edce3432cab10c",
    "grid-ml-p4.0-r0-d3": "a61e93b07c86f2f2",
    "grid-ml-p4.0-r1-d2": "5fc42c4b787b3854",
    "grid-ml-p4.0-r1-d3": "71edd2e6d970bcab",
    "grid-ml-p4.0-r6-d2": "12b4dc68ed53c66a",
    "grid-ml-p4.0-r6-d3": "8ad43730231002d5",
    "grid-ml-pinf-int-ties": "01f398fec3f27d81",
    "grid-ml-pinf-r0-d2": "9afb0b5cdf413c1e",
    "grid-ml-pinf-r0-d3": "9844b76181bdb914",
    "grid-ml-pinf-r1-d2": "52d5f93bf6e51b9b",
    "grid-ml-pinf-r1-d3": "f7c01c7e93b83906",
    "grid-ml-pinf-r6-d2": "b7bb653efd5bf459",
    "grid-ml-pinf-r6-d3": "2728d4625bb1769a",
    "grid-ml-r0-d4": "dc57dd49c37c10e8",
    "grid-ml-r6-d4": "4fb914238f190be6",
    "grid-ml-rank-one-on-grid": "35d03e45f8efeb6d",
    "grid-ml-zero-slice": "0098195e372a1c9f",
    "sym-cube-inf-check": "True",
    "sym-cube-inf-lhs": "6c62713f049beeae",
    "sym-cube-inf-rhs": "21e368912be4e5b7",
    "sym-mat-p4-check": "True",
    "sym-mat-p4-lhs": "cc25342c5727cde4",
    "sym-mat-p4-rhs": "42a730e7078bdab2",
    "sym-padded-inf-check": "True",
    "sym-padded-inf-lhs": "046d3589fef5f8c3",
    "sym-padded-inf-rhs": "586125f31195dce1",
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_pinned_oracle_corpus(case):
    assert oracle_digest(ORACLE_CASES[case]()) == PINNED_ORACLES[case]


def test_oracle_pins_hold_on_one_blas_thread():
    # the benchmark runs with OPENBLAS_NUM_THREADS=1, and the scans and _poly_rows
    # run on BLAS; the thread count is read when numpy loads, so the cases run in
    # a subprocess.  One pin moves: contract_all's tensordot on the (4, 2, 20000)
    # tensor of grid-ml-long-last-slot sums in another order on one thread
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(lpmax.__file__).resolve().parents[1]
    code = ("import json\n"
            "from test_oracle import ORACLE_CASES, oracle_digest\n"
            "print(json.dumps({case: oracle_digest(run()) for case, run in ORACLE_CASES.items()"
            " if case.startswith(('exact-', 'grid-ml-', 'grid-hp-'))}))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    digests = json.loads(res.stdout)
    assert len(digests) == 17 + 40 + 12
    moved = {case for case, digest in digests.items() if digest != PINNED_ORACLES[case]}
    assert moved == {"grid-ml-long-last-slot"}
