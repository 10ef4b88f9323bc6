import collections
import hashlib
import itertools

import numpy as np
import pytest

from lpmax import mlopt
from lpmax.config import SolverConfig
from lpmax.errors import ConvergenceError, DegenerateInputError, DomainError, ShapeError
from lpmax.hpopt import HpInstance, solve_hp
from lpmax.mlopt import MlCertificate, MlInstance, solve_ml, solve_ml_d2
from lpmax.oracle import exact_ml_linf
from lpmax.cli import run
from lpmax.pqnorm import GramSolution, round_gram, solve_vecp, solve_vecp_stack
from lpmax.sampler import MASK64, STREAM_CANDIDATE, STREAM_TRIALS, derive_rng, sample_count
from lpmax.tensor import (eval_multilinear, matrix_bounds, rounding_allowance, save_tensor,
                          slot_bounds)
from lpmax.validation import INF, conjugate_exponent, lp_norm

from supersym import random_supersym


def small_cfg(seed=0, **kw):
    kw.setdefault("trials", 24)
    kw.setdefault("max_samples", 6)
    return SolverConfig(seed=seed, **kw)


def test_instance_validation(rng):
    with pytest.raises(ShapeError):
        MlInstance(np.ones(3), INF)
    with pytest.raises(DegenerateInputError):
        MlInstance(np.zeros((2, 2, 2)), INF)
    with pytest.raises(DomainError):
        MlInstance(rng.standard_normal((2, 2)), 2.0)
    inst = MlInstance(rng.standard_normal((2, 3)), "7/2")
    assert inst.p == 3.5


def test_d2_matches_pqnorm_pipeline(rng, tmp_path):
    # the pqnorm command reports solve_ml's order-2 certificate bit for bit
    cases = itertools.product(["3", "7/2", "4", "inf"], ["krivine", "hyperplane"],
                              [(-5, 1.0), (3, 1e-170), (11, 1e160)])
    for p, strategy, (seed, scale) in cases:
        B = rng.standard_normal((3, 4)) * scale
        B[1] = 0.0
        save_tensor(B, tmp_path / "mat.json")
        cfg = SolverConfig(seed=seed, trials=40, strategy=strategy)
        cert = solve_ml(MlInstance(B, p, cfg))
        rep = run("pqnorm", tmp_path / "mat.json", p, seed=seed, trials=40, strategy=strategy)
        got = rep.certificate
        assert np.array(got["y"]).tobytes() == cert.xs[0].tobytes()
        assert np.array(got["z"]).tobytes() == cert.xs[1].tobytes()
        assert (got["value"], got["upper_bound"]) == (cert.value, cert.upper_bound)
        assert cert.trials_used == cfg.trials


def test_solve_ml_d2_guard(rng):
    with pytest.raises(ShapeError):
        solve_ml_d2(rng.standard_normal((2, 2, 2)), INF)
    cert = solve_ml_d2(np.eye(2), INF)
    assert cert.value == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("p", [3.0, INF])
def test_certificate_invariants(rng, p):
    dims = (3, 2, 3)
    A = rng.standard_normal(dims)
    cert = solve_ml(MlInstance(A, p, small_cfg(seed=2)))
    assert isinstance(cert, MlCertificate)
    assert len(cert.xs) == 3
    for x, n in zip(cert.xs, dims):
        assert x.shape == (n,)
        assert lp_norm(x, p) <= 1.0 + 1e-9
    assert cert.value >= 0.0
    assert cert.value == pytest.approx(eval_multilinear(A, cert.xs), rel=1e-10)
    assert cert.value <= cert.upper_bound
    assert cert.trials_used == sample_count(3, p, max_samples=6)


def test_certificate_says_whether_max_samples_capped_the_draws(rng):
    A = rng.standard_normal((3, 2, 2))
    assert sample_count(3, INF) == 103
    assert solve_ml(MlInstance(A, INF, small_cfg(max_samples=6))).samples_capped is True
    assert solve_ml(MlInstance(A, INF, small_cfg(max_samples=10**6))).samples_capped is False
    B = rng.standard_normal((3, 3))
    assert solve_ml(MlInstance(B, INF, small_cfg(max_samples=1))).samples_capped is False


def test_monotone_in_max_samples(rng):
    # candidate streams are indexed, so enlarging the budget keeps old draws
    A = rng.standard_normal((3, 3, 3))
    v_small = solve_ml(MlInstance(A, INF, small_cfg(seed=7, max_samples=3))).value
    v_large = solve_ml(MlInstance(A, INF, small_cfg(seed=7, max_samples=9))).value
    assert v_large >= v_small - 1e-12


def test_deterministic_given_seed(rng):
    A = rng.standard_normal((2, 3, 2))
    a = solve_ml(MlInstance(A, 3.0, small_cfg(seed=11)))
    b = solve_ml(MlInstance(A, 3.0, small_cfg(seed=11)))
    assert a.value == b.value
    for x, y in zip(a.xs, b.xs):
        assert np.array_equal(x, y)


def test_sign_normalization():
    A = np.zeros((2, 2, 2))
    A[0, 0, 0] = -5.0
    cert = solve_ml(MlInstance(A, INF, small_cfg()))
    assert cert.value > 0.0


def test_duplicate_slices_handle_zero_contractions():
    # candidates hitting the null space of the first slot fall back gracefully
    A = np.zeros((2, 2, 2))
    A[0] = A[1] = np.array([[1.0, 2.0], [3.0, 4.0]])
    cert = solve_ml(MlInstance(A, INF, small_cfg(seed=0, max_samples=8)))
    assert cert.value >= 0.0
    assert np.isfinite(cert.value)


def test_hp_instance_is_an_ml_instance(rng):
    # a polynomial instance is its own multilinear relaxation, checked once
    S = random_supersym(rng, 2, 3)
    hp = HpInstance(S, "7/2", small_cfg(seed=4))
    assert isinstance(hp, MlInstance)
    assert hp.p == 3.5 and hp.cfg.seed == 4 and hp.tensor.supersymmetric
    a, b = solve_ml(hp), solve_ml(MlInstance(hp.tensor, hp.p, hp.cfg))
    assert a.value == b.value and all(np.array_equal(x, y) for x, y in zip(a.xs, b.xs))
    with pytest.raises(ShapeError, match="instances need a tensor of order >= 2"):
        HpInstance(np.ones(3), INF)
    with pytest.raises(DegenerateInputError):
        HpInstance(np.zeros((2, 2, 2)), INF)
    with pytest.raises(DomainError):
        HpInstance(S, 2.0)


def test_seed_changes_candidates(rng):
    A = rng.standard_normal((4, 4, 4))
    a = solve_ml(MlInstance(A, INF, small_cfg(seed=0)))
    b = solve_ml(MlInstance(A, INF, small_cfg(seed=1)))
    # different streams: identical output would mean the seed is ignored
    assert a.value != b.value or not all(
        np.array_equal(x, y) for x, y in zip(a.xs, b.xs)
    )


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 7, -1])
def test_certificates_carry_the_masked_config_seed(rng, seed):
    # cfg.seed is the only root: every stream, and the certificate, use seed & MASK64
    A, S = rng.standard_normal((2, 3, 2)), random_supersym(rng, 2, 3)
    ml = solve_ml(MlInstance(A, INF, small_cfg(seed)))
    hp = solve_hp(HpInstance(S, INF, small_cfg(seed)))
    assert ml.seed == hp.seed == seed & MASK64
    masked = solve_ml(MlInstance(A, INF, small_cfg(seed & MASK64)))
    assert masked.value == ml.value
    assert all(np.array_equal(x, y) for x, y in zip(masked.xs, ml.xs))


def test_distinct_candidates_solved_once(rng, monkeypatch):
    # a 3-long slot has 2^3 sign vectors, so at most 8 of the M = 103 p = inf
    # candidates contract to distinct matrices; repeats reuse the relaxation
    calls = []

    def counting(*args, **kwargs):
        calls.extend(m.shape for m in args[0])
        return solve_vecp_stack(*args, **kwargs)

    monkeypatch.setattr(mlopt, "solve_vecp_stack", counting)
    A = rng.standard_normal((3, 2, 2))
    cert = solve_ml(MlInstance(A, INF, SolverConfig(seed=3, trials=24)))
    assert cert.trials_used == sample_count(3, INF) == 103
    assert 0 < len(calls) <= 2 ** 3


def test_convergence_error_propagates_and_is_not_kept(rng, monkeypatch):
    inst = MlInstance(rng.standard_normal((3, 2, 2)), INF, small_cfg(seed=3))
    expected = solve_ml(inst)

    solo_calls = []

    def failing(*args, **kwargs):
        solo_calls.append(args)
        raise ConvergenceError("iteration cap hit")

    def unconverged(*args, **kwargs):
        return [(g, False) for g, _ in solve_vecp_stack(*args, **kwargs)]

    monkeypatch.setattr(mlopt, "solve_vecp", failing)
    monkeypatch.setattr(mlopt, "solve_vecp_stack", unconverged)
    with pytest.raises(ConvergenceError) as exc:
        solve_ml(inst)
    # raised from the stacked solve, whose row is the solo solve: no second solve
    assert solo_calls == []
    assert isinstance(exc.value.best, GramSolution)
    monkeypatch.undo()
    again = solve_ml(inst)
    assert again.value == expected.value
    assert all(np.array_equal(x, y) for x, y in zip(again.xs, expected.xs))


# ---------------------------------------------------------------------------
# bound-and-prune candidate levels
# ---------------------------------------------------------------------------

_SCALES = (1.0, 1e-170, 1e160)


def _kind_tensor(kind, dims, seed):
    rng = np.random.default_rng(seed)
    if kind == "rank-one":
        A = rng.standard_normal(dims[0])
        for n in dims[1:]:
            A = np.multiply.outer(A, rng.standard_normal(n))
        return A
    A = rng.standard_normal(dims)
    if kind == "zero-slice":  # some sign candidates contract to the zero matrix
        A[1] = A[0]
        A[2:] = 0.0
        A[:, 0] = 0.0
    return A


# every (kind, scale) pair once; p cycles through {3, 7/2, 4, inf} at d = 3, then at d = 4;
# then each scale once at d = 5
_PRUNE_CASES = [(kind, scale, 3 + k // 4 % 2, (3.0, 3.5, 4.0, INF)[k % 4])
                for k, (kind, scale) in enumerate(itertools.product(
                    ("gauss", "rank-one", "zero-slice"), _SCALES))] + [
    ("gauss", 1.0, 5, 4.0), ("rank-one", 1e-170, 5, INF), ("zero-slice", 1e160, 5, 4.0),
    # p = inf with more candidates than sign vectors: levels that draw repeats
    ("gauss", 1.0, 3, INF), ("zero-slice", 1e160, 4, INF)]
_PRUNE_DIMS = {3: (4, 3, 3), 4: (3, 2, 2, 3), 5: (2, 3, 2, 2, 2)}


@pytest.mark.parametrize("kind,scale,d,p", _PRUNE_CASES)
def test_pruned_levels_equal_unpruned_levels(monkeypatch, kind, scale, d, p):
    dims = _PRUNE_DIMS[d]
    samples = {3.0: 8, 3.5: 6}.get(p, 24) // (d - 2)  # p = 3 and 7/2 solve slowly
    A = scale * _kind_tensor(kind, dims, 311 + d)
    inst = MlInstance(A, p, SolverConfig(seed=d, trials=24, max_samples=samples))
    pruned = solve_ml(inst)
    # every bound +inf: each level solves every candidate, in index order
    monkeypatch.setattr(mlopt, "slot_bounds", lambda arr, X, q, steps: np.full(len(X), np.inf))
    full = solve_ml(inst)
    assert [x.tobytes() for x in pruned.xs] == [x.tobytes() for x in full.xs]
    assert pruned.value == full.value


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("d, p", [(4, 4.0), (4, INF), (5, 4.0), (5, INF)])
def test_incumbent_passed_down_keeps_xs_and_value(monkeypatch, d, p, scale):
    # a level also skips every candidate under the best of any level above
    # it; a level that keeps no candidate returns none, and its parent goes on
    A = scale * np.random.default_rng(405).standard_normal(_PRUNE_DIMS[d])
    inst = MlInstance(A, p, SolverConfig(seed=d, trials=24, max_samples=24 // (d - 2)))
    kept_none = []
    solve_rec = mlopt._solve_rec

    def recording(*args):
        xs, value = solve_rec(*args)
        kept_none.append(xs is None)
        return xs, value

    monkeypatch.setattr(mlopt, "_solve_rec", recording)
    pruned = solve_ml(inst)
    assert any(kept_none)
    monkeypatch.setattr(mlopt, "slot_bounds", lambda arr, X, q, steps: np.full(len(X), np.inf))
    full = solve_ml(inst)
    assert [x.tobytes() for x in pruned.xs] == [x.tobytes() for x in full.xs]
    assert pruned.value == full.value


@pytest.mark.parametrize("scale", _SCALES)
def test_slot_bounds_ignore_the_rows_sign(scale):
    # a level bounds each candidate once up to sign, so -x must get x's bound bit for bit
    rng = np.random.default_rng(341)
    for kind, dims in itertools.product(("gauss", "rank-one", "zero-slice"),
                                        ((4, 3, 3), (3, 2, 2, 3))):
        A = scale * _kind_tensor(kind, dims, 341 + len(dims))
        for q in (1.0, 4.0 / 3.0, 1.5):
            X = rng.standard_normal((6, dims[0]))
            if q == 1.0:
                X = np.sign(X)
            for steps in (0, mlopt._DUAL_STEPS):
                assert slot_bounds(A, -X, q, steps).tobytes() == \
                    slot_bounds(A, X, q, steps).tobytes(), (kind, dims, q, steps)


def _level_work(monkeypatch):
    """Rows passed to slot_bounds and calls to the contraction kernel, per
    recursion path."""
    paths, bounded, contracted = [], collections.Counter(), collections.Counter()
    solve_rec, bounds, contract = mlopt._solve_rec, mlopt.slot_bounds, mlopt.contract_first

    def recording(arr, p, cfg, root, path, memo, *above):
        paths.append(path)
        try:
            return solve_rec(arr, p, cfg, root, path, memo, *above)
        finally:
            paths.pop()

    def counted_bounds(arr, X, q, steps):
        bounded[paths[-1]] += len(X)
        return bounds(arr, X, q, steps)

    def counted_contract(arr, x):
        contracted[paths[-1]] += 1
        return contract(arr, x)

    monkeypatch.setattr(mlopt, "_solve_rec", recording)
    monkeypatch.setattr(mlopt, "slot_bounds", counted_bounds)
    monkeypatch.setattr(mlopt, "contract_first", counted_contract)
    return bounded, contracted


def test_levels_contract_and_bound_each_distinct_candidate_once(monkeypatch):
    # at p = inf a level of n1 = 3 draws 103 of the 8 sign vectors, 4 up to sign
    bounded, contracted = _level_work(monkeypatch)
    rng = np.random.default_rng(342)
    A = rng.standard_normal((3, 4, 5))
    assert sample_count(3, INF, max_samples=SolverConfig().max_samples) == 103
    solve_ml(MlInstance(A, INF, SolverConfig(seed=1)))
    assert 0 < bounded[()] <= 4 and 0 < contracted[()] <= 8
    bounded.clear()
    contracted.clear()
    solve_ml(MlInstance(rng.standard_normal((3, 3, 3, 3)), INF, SolverConfig(seed=1)))
    assert len(bounded) > 1  # the top level and the order-3 levels below it
    assert max(bounded.values()) <= 4 and max(contracted.values()) <= 8
    # p-Gaussian candidates are all distinct: every one is still bounded
    bounded.clear()
    contracted.clear()
    M = sample_count(3, 4.0, max_samples=SolverConfig().max_samples)
    solve_ml(MlInstance(A, 4.0, SolverConfig(seed=1)))
    assert bounded[()] == contracted[()] == M


def test_levels_draw_their_candidates_in_one_batch(monkeypatch):
    # a generator is derived once per rounded d = 2 leaf, on its trial stream;
    # the level's 103 candidates come from one draw_candidates call
    derived, leaves, batches = [], [], []
    derive, solve_d2, draw = mlopt.derive_rng, mlopt._solve_d2, mlopt.draw_candidates

    def counted_derive(seed, *path):
        derived.append(path)
        return derive(seed, *path)

    def counted_d2(*args):
        leaves.append(args[0].shape)
        return solve_d2(*args)

    def counted_draw(seed, path, count, n, p):
        batches.append((path, count))
        return draw(seed, path, count, n, p)

    monkeypatch.setattr(mlopt, "derive_rng", counted_derive)
    monkeypatch.setattr(mlopt, "_solve_d2", counted_d2)
    monkeypatch.setattr(mlopt, "draw_candidates", counted_draw)
    A = np.random.default_rng(343).standard_normal((3, 4, 5))
    solve_ml(MlInstance(A, INF, SolverConfig(seed=1)))
    assert leaves and len(derived) == len(leaves)
    assert all(path[-1] == STREAM_TRIALS for path in derived)
    assert batches == [((STREAM_CANDIDATE,), 103)]


def test_order_four_top_level_prunes(monkeypatch):
    # the top level bounds each candidate's order-3 contraction by its
    # (slot 2 | rest) unfolding; solving every candidate recurses into all 24
    recursed = []
    solve_rec = mlopt._solve_rec

    def recording(arr, p, cfg, root, path, memo, *above):
        if len(path) == 1:
            recursed.append(path[0])
        return solve_rec(arr, p, cfg, root, path, memo, *above)

    monkeypatch.setattr(mlopt, "_solve_rec", recording)
    A = np.random.default_rng(1).standard_normal((3, 2, 2, 3))
    cert = solve_ml(MlInstance(A, 4.0, SolverConfig(seed=1, max_samples=24)))
    assert cert.trials_used == 24
    assert 0 < len(recursed) < 24


@pytest.mark.parametrize("scale", _SCALES)
def test_slot_bound_caps_order_three_candidates(scale):
    # what solve_ml reaches at p = 4 and the exact optimum at p = inf, below
    # each candidate of an order-4 level
    rng = np.random.default_rng(330)
    for k, dims in enumerate([(3, 2, 2, 3), (2, 3, 2, 2), (3, 3, 2, 2)]):
        A = scale * rng.standard_normal(dims)
        signs = rng.choice([-1.0, 1.0], size=(4, dims[0]))
        gauss = rng.standard_normal((4, dims[0]))
        gauss /= np.sum(gauss ** 4, axis=1, keepdims=True) ** 0.25
        for p, X in ((INF, signs), (4.0, gauss)):
            bounds = slot_bounds(A, X, conjugate_exponent(p), mlopt._DUAL_STEPS)
            for x, bound in zip(X, bounds):
                sub = np.tensordot(A, x, axes=(0, 0))
                if p == INF:
                    assert bound >= exact_ml_linf(sub).value, (dims, x)
                else:
                    cert = solve_ml(MlInstance(sub, p, small_cfg(k)))
                    relax = solve_vecp(np.tensordot(sub, cert.xs[0], axes=(0, 0)), p).value
                    assert bound >= cert.value and bound >= relax, (dims, x)


@pytest.mark.parametrize("scale", _SCALES)
def test_matrix_bound_caps_relaxation_and_rounding(scale):
    # the bound a candidate level prunes by, on C = the contraction of C[None] with [1];
    # a row of a stacked solve is the solo solve_vecp
    rng = np.random.default_rng(312)
    ps = (3.0, 3.5, 4.0, INF)
    for k, (m, n) in enumerate(itertools.product(range(1, 4), range(1, 5))):
        p, q = ps[k % 4], conjugate_exponent(ps[k % 4])
        Cs = scale * np.stack([rng.standard_normal((m, n)),
                               np.outer(rng.standard_normal(m), rng.standard_normal(n)),
                               rng.integers(-2, 3, size=(m, n)) + 0.5])
        allowance = np.concatenate(
            [rounding_allowance(C[None], np.ones((1, 1)), q) for C in Cs])
        loose = matrix_bounds(Cs, q) + allowance
        tight = matrix_bounds(Cs, q, mlopt._DUAL_STEPS) + allowance
        assert (tight <= loose).all()
        for C, bound, (g, _) in zip(Cs, tight, solve_vecp_stack(Cs, p)):
            pair = round_gram(C, g, "krivine", 32, derive_rng(k))
            assert bound >= g.value and bound >= pair.value, (C, p)


@pytest.mark.parametrize("p", [3.0, 4.0, INF])
def test_dual_steps_bring_the_bound_near_the_relaxation(p):
    # matrices shaped like the candidate contractions of the multilinear benchmark
    q = conjugate_exponent(p)
    Cs = np.random.default_rng(313).standard_normal((24, 5, 3))
    relax = np.array([g.value for g, _ in solve_vecp_stack(Cs, p)])
    loose = matrix_bounds(Cs, q) / relax
    tight = matrix_bounds(Cs, q, mlopt._DUAL_STEPS) / relax
    assert np.median(loose) > 1.05
    assert np.median(tight) < 1.01 and tight.max() < 1.05


def _stack_rows(monkeypatch, inst):
    """solve_ml(inst) and the number of matrices in each stacked relaxation solve."""
    rows = []

    def counting(Bs, *args, **kwargs):
        rows.append(len(Bs))
        return solve_vecp_stack(Bs, *args, **kwargs)

    monkeypatch.setattr(mlopt, "solve_vecp_stack", counting)
    return solve_ml(inst), rows


def test_pruning_solves_few_candidate_relaxations(monkeypatch):
    # solving every candidate of this level takes 207 relaxations
    A = np.random.default_rng(1).standard_normal((4, 5, 3))
    cert, rows = _stack_rows(monkeypatch, MlInstance(A, 4.0, SolverConfig(seed=1)))
    assert cert.trials_used == 207
    assert max(rows) <= mlopt._STACK
    assert sum(rows) <= 48


@pytest.mark.parametrize("seed", range(4))
def test_p4_candidate_level_solves_one_stack(monkeypatch, seed):
    # with bounds this tight the first stack holds every candidate that can
    # win, so a level's cost does not swing with how loose its bounds are
    A = np.random.default_rng(320 + seed).standard_normal((4, 5, 3))
    _, rows = _stack_rows(monkeypatch, MlInstance(A, 4.0, SolverConfig(seed=seed)))
    assert rows == [mlopt._STACK]


@pytest.mark.parametrize("scale", [1e-150, 1e-170, 1e-250])
def test_tiny_tensors_prune_as_at_scale_one(monkeypatch, scale):
    # the rounding allowance must not swamp the bounds of a tiny tensor
    A = np.random.default_rng(7001).standard_normal((4, 5, 3))
    cfg = SolverConfig(seed=7001)
    _, unit = _stack_rows(monkeypatch, MlInstance(A, 4.0, cfg))
    _, tiny = _stack_rows(monkeypatch, MlInstance(scale * A, 4.0, cfg))
    assert sum(tiny) == sum(unit)


def _digests(xs):
    return [hashlib.sha256(np.asarray(x).tobytes()).hexdigest() for x in xs]


# Pinned certificates, every bit of them.  Sharing candidate relaxations
# within a solve reuses bit-identical solves only, so it moves none of them.
_PINNED_ML = [
    # (data seed, dims, p, config, value, upper_bound, sha256 of each xs[i])
    (101, (3, 3, 3), INF, dict(seed=1), 12.16447182510679, 18.144560080665393, [
        "a906b5c6c576156b8dafa08ea066bd0a15913831fc0786f077d681f2d1a918e4",
        "62a2ea5b4ca4ef4893cb5b44a07d87ff3d8fc32d841a33a834c2e0eae59f1a2c",
        "7104782d6bdc0fdba5f94a4023afa0312e8e90258a7090d2dd0743633c47cc38"]),
    (102, (4, 3, 2), INF, dict(seed=2, trials=40), 15.625768199252253, 21.221643067857595, [
        "ca86087ad435069fb6add3ecb9a4a2a166da9bf8e647969cc8d6691202c67a6e",
        "a906b5c6c576156b8dafa08ea066bd0a15913831fc0786f077d681f2d1a918e4",
        "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5"]),
    (103, (2, 4, 3), INF, dict(seed=3, trials=24, max_samples=40),
     12.673492043142751, 18.236424481058695, [
        "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
        "ca86087ad435069fb6add3ecb9a4a2a166da9bf8e647969cc8d6691202c67a6e",
        "159a9057eb75c1de2efc86707155d0f57cdc58fc8a6fe4aa62ced46dc3c12046"]),
    (104, (2, 2, 2, 2), INF, dict(seed=4, trials=16, max_samples=12),
     5.974052155936818, 9.18267381637906, [
        "b74fce6cd8bcafd014a1ce8c6585beac59c5f4098a6d499f5d1d42d464146633",
        "b74fce6cd8bcafd014a1ce8c6585beac59c5f4098a6d499f5d1d42d464146633",
        "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
        "e077172409ed971e7cbc8aaf3f5fc99ffd5806da65b60973369d000cf6a32fc6"]),
    (105, (3, 3, 3), 4.0, dict(seed=5, trials=24, max_samples=8),
     5.444007712706796, 9.685645283458037, [
        "90d76fb992c7044ae85773be3555c90a6e7c976fe2ac3b23d59fb5f5ee18e67f",
        "8e866d4eb28136673c788535123c9b95aae23338d15d8a90df1fe6c99cd61539",
        "e71481e26a0a9547c816c8de636310acea5047bb2067e56fcc43c0c98ddee50e"]),
    (106, (3, 2, 3), 4.0, dict(seed=6, trials=24, max_samples=6),
     4.187173222618451, 4.896494009955626, [
        "0ffbe0fc95ca419815e260337ed252797063af84b59c69aca7988ef776ad92d7",
        "ccf509b5c420d78b5740e274e60fb265521fcb8a777705c4d290c960f6f0f588",
        "135ae1e6f4e2365c1695b5f41d8275666814d11864a245007e02c96f6ddc7005"]),
]


@pytest.mark.parametrize("seed,dims,p,kw,value,bound,digests", _PINNED_ML,
                         ids=[str(case[0]) for case in _PINNED_ML])  # the data seed
def test_pinned_ml_certificates(seed, dims, p, kw, value, bound, digests):
    A = np.random.default_rng(seed).standard_normal(dims)
    cert = solve_ml(MlInstance(A, p, SolverConfig(**kw)))
    assert cert.value == value
    assert cert.upper_bound == bound
    assert _digests(cert.xs) == digests


def test_pinned_hp_certificate():
    S = random_supersym(np.random.default_rng(107), 3, 3)
    cert = solve_hp(HpInstance(S, INF, SolverConfig(seed=7, trials=40)))
    assert cert.value == 9.76616873029814
    assert cert.ml_value == 9.76616873029814
    assert cert.upper_bound == 11.789821139754553
    assert _digests([cert.x_hat]) == [
        "62a2ea5b4ca4ef4893cb5b44a07d87ff3d8fc32d841a33a834c2e0eae59f1a2c"]
