import itertools
import json

import numpy as np
import pytest

import lpmax.tensor
from lpmax.errors import DomainError, ResourceLimitError, ShapeError
from lpmax.tensor import (
    Tensor,
    as_tensor,
    contract,
    contract_first,
    eval_multilinear,
    eval_poly,
    holder_rows,
    is_supersymmetric,
    load_tensor,
    row_norms,
    save_tensor,
    tensor_from_doc,
    tensor_to_doc,
)

from lpmax.validation import INF, lp_norm

from supersym import perm_avg, random_supersym


def test_tensor_basics(rng):
    A = Tensor(rng.standard_normal((2, 3, 4)))
    assert A.dims == (2, 3, 4)
    assert A.order == 3
    assert A.data.shape == (2, 3, 4)
    assert "dims=(2, 3, 4)" in repr(A)
    with pytest.raises(ValueError):
        A.data[0, 0, 0] = 1.0  # immutable storage


def test_tensor_rejects_bad_input(monkeypatch):
    with pytest.raises(DomainError):
        Tensor([[np.inf, 0.0], [0.0, 0.0]])
    monkeypatch.setattr(lpmax.tensor, "DENSE_CAP", 50)  # read at call time
    with pytest.raises(ResourceLimitError):
        Tensor(np.zeros((10, 10)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((0, 3)))
    with pytest.raises(DomainError):
        Tensor([[0.0, 1.0], [2.0, 0.0]], supersymmetric=True)


def test_as_tensor_idempotent(rng):
    A = Tensor(rng.standard_normal((2, 2)))
    assert as_tensor(A) is A
    assert isinstance(as_tensor(np.eye(2)), Tensor)


def test_eval_multilinear_matches_einsum(rng):
    A = rng.standard_normal((3, 2, 4))
    xs = [rng.standard_normal(n) for n in (3, 2, 4)]
    want = np.einsum("ijk,i,j,k->", A, *xs)
    assert np.isclose(eval_multilinear(A, xs), want, rtol=1e-12)
    with pytest.raises(ShapeError):
        eval_multilinear(A, xs[:2])
    with pytest.raises(ShapeError):
        eval_multilinear(A, [xs[1], xs[0], xs[2]])


def test_contract_partial(rng):
    A = rng.standard_normal((3, 2, 4))
    x = rng.standard_normal(2)
    out = contract(A, {2: x})
    assert out.dims == (3, 4)
    assert np.allclose(out.data, np.einsum("ijk,j->ik", A, x))
    # contracting everything leaves an order-0 tensor
    xs = [rng.standard_normal(n) for n in (3, 2, 4)]
    full = contract(A, {1: xs[0], 2: xs[1], 3: xs[2]})
    assert full.order == 0
    assert np.isclose(float(full.data), eval_multilinear(A, xs))


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e160])
def test_contract_first_equals_tensordot(scale):
    # the same gemv on the same operands, so bit for bit, whatever the layout;
    # slot j is contract_first of np.moveaxis(arr, j, 0), as in tensor.contract
    rng = np.random.default_rng(60)
    for d in range(1, 6):
        for _ in range(8):
            dims = tuple(int(n) for n in rng.integers(1, 6, size=d))
            big = scale * rng.standard_normal(tuple(2 * n for n in dims))
            xs = [rng.standard_normal(n) for n in dims]
            arr = np.ascontiguousarray(big[tuple(slice(n) for n in dims)])
            for view in (arr, big[(slice(None, None, 2),) * d], np.asfortranarray(arr),
                         arr[::-1], big[tuple(slice(n) for n in dims)]):
                for j, x in enumerate(xs):
                    got = contract_first(np.moveaxis(view, j, 0), x)
                    want = np.tensordot(view, x, axes=(j, 0))
                    assert got.shape == want.shape == dims[:j] + dims[j + 1:]
                    assert got.tobytes() == want.tobytes(), (dims, j, view.strides)
                    got = contract(view, {j + 1: x}).data  # a plain dict
                    assert got.tobytes() == want.tobytes()


def test_contract_guards(rng):
    A = rng.standard_normal((3, 2))
    with pytest.raises(ShapeError):
        contract(A, {})
    with pytest.raises(ShapeError):
        contract(A, {0: np.ones(3)})
    with pytest.raises(ShapeError):
        contract(A, {3: np.ones(2)})
    with pytest.raises(ShapeError):
        contract(A, {1: np.ones(2)})
    with pytest.raises(DomainError):
        contract(A, {1: [1.0, np.nan, 0.0]})


def test_eval_poly_requires_supersymmetry(rng):
    S = random_supersym(rng, 3, 3)
    x = rng.standard_normal(3)
    assert np.isclose(eval_poly(S, x), eval_multilinear(S, [x] * 3))
    with pytest.raises(DomainError):
        eval_poly(rng.standard_normal((3, 3, 3)), x)
    # the supersymmetric flag skips the permutation check
    T = Tensor(S, supersymmetric=True)
    assert np.isclose(eval_poly(T, x), eval_poly(S, x))


def test_is_supersymmetric(rng):
    assert is_supersymmetric(np.eye(3))
    assert is_supersymmetric(random_supersym(rng, 2, 4))
    assert not is_supersymmetric(rng.standard_normal((3, 3)))
    assert not is_supersymmetric(np.zeros((2, 3)))  # not cubical
    assert is_supersymmetric(np.arange(3.0))  # order 1 is trivially symmetric


def _symmetric_under_all_perms(arr, tol):
    # the definition: every one of the d! permutations, held to the full bound
    bound = tol * (1.0 + float(np.max(np.abs(arr))))
    return len(set(arr.shape)) == 1 and all(
        np.max(np.abs(arr - np.transpose(arr, perm))) <= bound
        for perm in itertools.permutations(range(arr.ndim)))


def _average_over(arr, perms):
    perms = list(perms)
    return sum(np.transpose(arr, q) for q in perms) / len(perms)


def test_is_supersymmetric_matches_full_enumeration():
    # symmetric tensors, tensors invariant only under a subgroup (the
    # permutations fixing the last index, the cyclic shifts, one swap), and
    # perturbations far below or far above the tolerance
    rng = np.random.default_rng(31)
    for d in range(2, 6):
        for n in (2, 3):
            A = rng.standard_normal((n,) * d)
            fix_last = [q + (d - 1,) for q in itertools.permutations(range(d - 1))]
            cyclic = [tuple((i + s) % d for i in range(d)) for s in range(d)]
            swap = [tuple(range(d)), (1, 0) + tuple(range(2, d))]
            S = perm_avg(A)
            bump = np.zeros_like(A)
            bump.flat[1] = 1.0
            corpus = [S, A, _average_over(A, fix_last), _average_over(A, cyclic),
                      _average_over(A, swap), S + 1e-15 * bump, S + 1e-6 * bump]
            for T in corpus:
                assert is_supersymmetric(T) == _symmetric_under_all_perms(T, 1e-12)


def test_is_supersymmetric_degree_nine():
    # entries that depend only on how many indices are 1 are symmetric; making
    # them depend on the last index too leaves only the first eight symmetric
    idx = np.indices((2,) * 9)
    S = np.cos(idx.sum(axis=0).astype(float))
    assert is_supersymmetric(S)
    T = np.cos(idx[:8].sum(axis=0) + 0.5 * idx[8])
    assert not is_supersymmetric(T)
    assert np.array_equal(np.swapaxes(T, 0, 7), T)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_row_norms_rescale_only_rows_out_of_range(r):
    # rows scaled by powers of two: the power sums of the middle three under-
    # or overflow at r >= 2, and scaling a row back is exact
    rng = np.random.default_rng(34)
    X = rng.standard_normal((7, 4))
    exps = [0, -565, 532, -1030, 0, 0, 0]
    Y = X * np.ldexp(1.0, exps)[:, None]
    Y[4], Y[5, 1], Y[6, 2] = 0.0, np.inf, np.nan
    out = row_norms(Y, r)
    plain = np.sum(np.abs(Y[:1]) ** r, axis=1) ** (1.0 / r)
    assert out[0].tobytes() == plain[0].tobytes()  # in range: the power sum's own bits
    for i in (1, 2, 3):
        back = np.ldexp(Y[i], -exps[i])
        ref = np.ldexp(np.sum(np.abs(back) ** r) ** (1.0 / r), exps[i])
        assert out[i] == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert out[4] == 0.0 and out[5] == np.inf and np.isnan(out[6])


@pytest.mark.parametrize("q", [1.0, 4.0 / 3.0, 1.5, 2.0])
def test_holder_rows_stack_equals_one_row_calls(q):
    # rows 1 and 3 have power sums that over- and underflow, row 5 is zero
    rng = np.random.default_rng(35)
    Y = rng.standard_normal((8, 5))
    Y[1] *= 1e300
    Y[3] *= 1e-300
    Y[5] = 0.0
    out = holder_rows(Y, q)
    solo = np.concatenate([holder_rows(Y[i:i + 1], q) for i in range(len(Y))])
    assert out.tobytes() == solo.tobytes()
    plain = holder_rows(Y[[0, 2, 4, 6, 7]], q)
    assert out[[0, 2, 4, 6, 7]].tobytes() == plain.tobytes()
    for i, scale in ((1, 1e300), (3, 1e-300)):
        assert np.allclose(out[i], holder_rows(Y[i:i + 1] / scale, q)[0], rtol=1e-14, atol=0.0)
    assert np.array_equal(out[5], np.ones(5) if q == 1.0 else np.zeros(5))
    p = INF if q == 1.0 else q / (q - 1.0)
    for i in (0, 2, 4, 6, 7):
        assert abs(lp_norm(out[i], p) - 1.0) <= 1e-12
        assert out[i] @ Y[i] == pytest.approx(lp_norm(Y[i], q), rel=1e-12)


def test_doc_roundtrip(rng):
    A = rng.standard_normal((2, 3))
    A[0, 1] = 0.0
    doc = tensor_to_doc(A)
    assert doc["dims"] == [2, 3]
    assert all(len(row) == 3 for row in doc["coo"])
    B = tensor_from_doc(doc)
    assert np.array_equal(B.data, A)
    # the document must be JSON-serializable as-is
    json.dumps(doc)


def test_doc_dense_payload():
    doc = {"dims": [2, 2], "dense": [1.0, 2.0, 3.0, 4.0]}
    T = tensor_from_doc(doc)
    assert np.array_equal(T.data, [[1.0, 2.0], [3.0, 4.0]])


def test_doc_duplicates_accumulate():
    doc = {"dims": [2], "coo": [[1, 2.0], [1, 3.0]]}
    assert tensor_from_doc(doc).data[0] == 5.0


@pytest.mark.parametrize(
    "doc",
    [
        {"coo": []},
        {"dims": [0, 2], "coo": []},
        {"dims": [2, 2]},
        {"dims": [2, 2], "coo": [[1, 1.0]]},
        {"dims": [2, 2], "coo": [[3, 1, 1.0]]},
    ],
)
def test_doc_rejects_malformed(doc):
    with pytest.raises(ShapeError):
        tensor_from_doc(doc)


def test_doc_dense_cap(monkeypatch):
    monkeypatch.setattr(lpmax.tensor, "DENSE_CAP", 50)
    # the document's own check, before the dense array is allocated
    with pytest.raises(ResourceLimitError, match="entries exceeds the dense cap"):
        tensor_from_doc({"dims": [100, 100], "coo": []})


def test_save_load(tmp_path, rng):
    A = rng.standard_normal((2, 2, 2))
    path = tmp_path / "t.json"
    save_tensor(A, path)
    B = load_tensor(path)
    assert np.array_equal(B.data, A)
