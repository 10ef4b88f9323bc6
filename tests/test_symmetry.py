import math

import numpy as np
import pytest

import lpmax.symmetry
from lpmax.errors import DegenerateInputError, DomainError, ResourceLimitError, ShapeError
from lpmax.symmetry import (
    embed_matrix,
    permutation_expansion,
    pi_transpose,
    rebalance_blocks,
    split,
    stack,
    symmetrize,
)
from lpmax.tensor import eval_multilinear, eval_poly
from lpmax.validation import INF, lp_norm


def test_stack_split_roundtrip(rng):
    xs = [rng.standard_normal(n) for n in (2, 3, 1)]
    z = stack(xs)
    assert z.shape == (6,)
    back = split(z, (2, 3, 1))
    assert [b.shape for b in back] == [(2,), (3,), (1,)]
    for a, b in zip(xs, back):
        assert np.array_equal(a, b)
    for dims in ((2, 2), (6, 0), ()):
        with pytest.raises(ShapeError):
            split(z, dims)


def test_pi_transpose(rng):
    A = rng.standard_normal((2, 3, 4))
    T = pi_transpose(A, (2, 3, 1))
    # result[i_pi(1), ..., i_pi(d)] = A[i_1, ..., i_d]: axis k of the result
    # is indexed by i_pi(k), so entry (i2, i3, i1) holds A[i1, i2, i3]
    assert T.dims == (3, 4, 2)
    for i, j, k in np.ndindex(2, 3, 4):
        assert T.data[j, k, i] == A[i, j, k]
    assert np.array_equal(T.data, np.transpose(A, (1, 2, 0)))
    with pytest.raises(DomainError):
        pi_transpose(A, (1, 1, 2))


def test_symmetrize_matrix_block_structure():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = symmetrize(B)
    assert S.dims == (4, 4)
    assert S.supersymmetric
    want = np.block([[np.zeros((2, 2)), B], [B.T, np.zeros((2, 2))]])
    assert np.array_equal(S.data, want)


def test_symmetrize_identity(rng):
    for dims in [(2, 3), (2, 2, 2), (3, 2, 2), (2, 1, 3, 2)]:
        A = rng.standard_normal(dims)
        d = len(dims)
        S = symmetrize(A)
        assert S.dims == (sum(dims),) * d
        xs = [rng.standard_normal(n) for n in dims]
        lhs = eval_poly(S, stack(xs))
        rhs = math.factorial(d) * eval_multilinear(A, xs)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_symmetrize_guards(rng, monkeypatch):
    with pytest.raises(DomainError):
        symmetrize(np.ones(3))
    # one cap: symmetrize reads tensor.DENSE_CAP at call time, binding none of its own
    monkeypatch.setattr(lpmax.tensor, "DENSE_CAP", 100)
    # symmetrize's own check, before the 12^3 output is allocated
    with pytest.raises(ResourceLimitError, match="sym"):
        symmetrize(rng.standard_normal((4, 4, 4)))
    assert not hasattr(lpmax.symmetry, "DENSE_CAP")


def test_permutation_expansion_matches_sym_form(rng):
    for dims in [(2, 2), (2, 3, 2), (2, 2, 2, 2)]:
        A = rng.standard_normal(dims)
        d = len(dims)
        zs = [rng.standard_normal(sum(dims)) for _ in range(d)]
        lhs = permutation_expansion(A, zs)
        rhs = eval_multilinear(symmetrize(A), zs)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_embed_matrix(rng):
    B = rng.standard_normal((2, 3))
    T = embed_matrix(B, 4)
    assert T.dims == (1, 1, 2, 3)
    xs = [np.ones(1), np.ones(1), rng.standard_normal(2), rng.standard_normal(3)]
    assert np.isclose(eval_multilinear(T, xs), xs[2] @ B @ xs[3])
    with pytest.raises(DomainError):
        embed_matrix(B, 1)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, INF])
def test_rebalance_blocks_unit_norms(rng, p):
    # monotonicity is promised for feasible inputs: every block inside its ball
    A = rng.standard_normal((2, 3, 2))
    zs = [rng.standard_normal(n) for n in (2, 3, 2)]
    zs = [z / lp_norm(z, p) * s for z, s in zip(zs, (0.2, 0.95, 0.6))]
    if eval_multilinear(A, zs) < 0:
        zs[0] = -zs[0]
    v0 = eval_multilinear(A, zs)
    out = rebalance_blocks(A, zs, p)
    for z in out:
        assert abs(lp_norm(z, p) - 1.0) <= 1e-10
    assert eval_multilinear(A, out) >= v0 - 1e-12
    with pytest.raises(ShapeError, match="need 3 blocks"):
        rebalance_blocks(A, zs[:2], p)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, INF])
def test_rebalance_divides_each_block_by_its_norm(rng, p):
    # the closed form: no sweep, one division per block
    A = rng.standard_normal((2, 3, 2))
    zs = [rng.standard_normal(n) * s for n, s in zip((2, 3, 2), (0.3, 2.0, 1e-3))]
    out = rebalance_blocks(A, zs, p)
    for z, orig in zip(out, zs):
        assert z.tobytes() == (orig / lp_norm(orig, p)).tobytes()


@pytest.mark.parametrize("scale", [1e-100, 1e100])
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_rebalance_is_scale_safe(rng, p, scale):
    A = rng.standard_normal((2, 3, 2))
    zs = [rng.standard_normal(n) for n in (2, 3, 2)]
    out = rebalance_blocks(A, [scale * z for z in zs], p)
    for z, orig in zip(out, zs):
        assert abs(lp_norm(z, p) - 1.0) <= 1e-12
        assert np.allclose(z, orig / lp_norm(orig, p), rtol=1e-12, atol=0.0)


def test_rebalance_preserves_direction(rng):
    A = rng.standard_normal((2, 2))
    zs = [np.array([0.1, 0.0]), np.array([0.0, 5.0])]
    out = rebalance_blocks(A, zs, 3.0)
    # rescaling only: directions are unchanged
    assert np.allclose(out[0] / lp_norm(out[0], 2.0), [1.0, 0.0])
    assert np.allclose(out[1] / lp_norm(out[1], 2.0), [0.0, 1.0])


def test_rebalance_rejects_zero_block(rng):
    A = rng.standard_normal((2, 2))
    with pytest.raises(DegenerateInputError):
        rebalance_blocks(A, [np.zeros(2), np.ones(2)], 3.0)
    with pytest.raises(DegenerateInputError):
        rebalance_blocks(A, [np.zeros(2), np.ones(2)], INF)


def test_rebalance_inf_is_per_block(rng):
    A = rng.standard_normal((2, 2, 2))
    zs = [rng.standard_normal(2) * s for s in (0.1, 7.0, 2.0)]
    out = rebalance_blocks(A, zs, INF)
    for z, orig in zip(out, zs):
        assert abs(lp_norm(z, INF) - 1.0) <= 1e-12
        assert np.allclose(z * lp_norm(orig, INF), orig)
