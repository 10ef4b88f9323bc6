"""Dense order-d tensors, multilinear forms, and partial contractions.

A tensor A of dimensions (n_1, ..., n_d) carries two objects at once: the
multilinear form F_A(x^1, ..., x^d) = sum a_{i_1..i_d} x^1_{i_1} ... x^d_{i_d},
and, when A is super-symmetric (cubical and invariant under every index
permutation), the homogeneous degree-d polynomial f_A(x) = F_A(x, ..., x).
Everything downstream is built on the three kernels here: full evaluation,
partial contraction, and the super-symmetry test.
"""
from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, ResourceLimitError, ShapeError
from .validation import INF, as_vector, row_norms

DENSE_CAP = 10_000_000  # most entries Tensor, tensor_from_doc and symmetrize allocate
SYM_TOL = 1e-9  # asymmetry polynomial inputs may carry, relative to 1 + max|a|
# A bound of matrix_bounds and a value computed under it sum the same products
# in different orders, so they round apart by at most about (terms summed) *
# 2^-53 times the same sums of absolute values; _BOUND_SLACK covers that
# factor.  matrix_bounds and row_norms rescale every sum that would under- or
# overflow, so only subnormal results round by an absolute amount, at most
# 2^-1075 (about 2.5e-324) per operation; _BOUND_TINY covers 10^23 of them.
_BOUND_SLACK = 1e-9
_BOUND_TINY = 1e-300


class Tensor:
    """Immutable dense real tensor in row-major storage.

    An order-0 tensor (empty ``dims``) is the legal result of contracting
    every index and wraps a single scalar.
    """

    __slots__ = ("data", "supersymmetric")

    def __init__(self, data, *, supersymmetric: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.size == 0:
            raise ShapeError("every tensor dimension must be positive")
        if arr.size > DENSE_CAP:
            raise ResourceLimitError(
                f"dense tensor with {arr.size} entries exceeds the cap of {DENSE_CAP}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor entries must be finite")
        arr.flags.writeable = False
        self.data = arr
        if supersymmetric and not is_supersymmetric(arr, 1e-12):
            raise DomainError("tensor flagged super-symmetric fails the permutation check")
        self.supersymmetric = bool(supersymmetric)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(dims={self.dims}, supersymmetric={self.supersymmetric})"


def as_tensor(A) -> Tensor:
    return A if isinstance(A, Tensor) else Tensor(A)


def _raw(A) -> np.ndarray:
    return A.data if isinstance(A, Tensor) else np.asarray(A, dtype=np.float64)


def eval_multilinear(A, xs: Sequence) -> float:
    """F_A(x^1, ..., x^d), computed by contracting one index at a time."""
    arr = _raw(A)
    if len(xs) != arr.ndim:
        raise ShapeError(f"need {arr.ndim} vectors, got {len(xs)}")
    return contract_all(arr, [as_vector(x, n, name=f"xs[{i}]")
                              for i, (x, n) in enumerate(zip(xs, arr.shape))])


def contract_first(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """arr contracted in its first slot with x, of shape arr.shape[1:]: the
    gemv of np.tensordot(arr, x, axes=(0, 0)) on the same operands, so equal
    to it bit for bit, without its set-up.  Slot j is contract_first of
    np.moveaxis(arr, j, 0), which lays out tensordot(arr, x, axes=(j, 0))'s
    operands the same way."""
    flat = arr.transpose((*range(1, arr.ndim), 0)).reshape(-1, len(x))
    return np.dot(flat, x).reshape(arr.shape[1:])


def contract_all(arr: np.ndarray, xs) -> float:
    """eval_multilinear without input checks, for callers that built ``xs``."""
    out = arr
    for x in xs:
        out = contract_first(out, x)
    return float(out)


def contract(A, assignments: Mapping) -> Tensor:
    """Sum out the indices of ``assignments``, a mapping {1-based position:
    vector}; the order drops by its length."""
    arr = _raw(A)
    if not assignments:
        raise ShapeError("contraction needs at least one assignment")
    out = arr
    for pos in sorted(assignments, key=int, reverse=True):
        j = int(pos)
        if not 1 <= j <= arr.ndim:
            raise ShapeError(f"position {pos} is outside 1..{arr.ndim}")
        x = as_vector(assignments[pos], arr.shape[j - 1], name=f"assignment at position {j}")
        out = contract_first(np.moveaxis(out, j - 1, 0), x)
    return Tensor(out)


def eval_poly(A, x, *, tol: float = SYM_TOL) -> float:
    """f_A(x) = F_A(x, ..., x); requires a super-symmetric tensor."""
    arr = _raw(A)
    flagged = isinstance(A, Tensor) and A.supersymmetric
    if not flagged and not is_supersymmetric(arr, tol):
        raise DomainError("eval_poly needs a super-symmetric tensor")
    return eval_multilinear(arr, [x] * arr.ndim)


def is_supersymmetric(A, tol: float = 1e-12) -> bool:
    """True iff A is cubical and invariant under every index permutation.

    Exact for every d: the d-1 adjacent transpositions generate all
    permutations, and every permutation is a product of at most d(d-1)/2 of
    them.  Each transposition is held to tol * (1 + max|a|) / (d(d-1)/2), so
    by the triangle inequality no permutation moves an entry by more than
    tol * (1 + max|a|).
    """
    arr = _raw(A)
    d = arr.ndim
    if d <= 1:
        return True
    if len(set(arr.shape)) != 1:
        return False
    bound = tol * (1.0 + float(np.max(np.abs(arr)))) / (d * (d - 1) // 2)
    for i in range(d - 1):
        if np.max(np.abs(arr - np.swapaxes(arr, i, i + 1))) > bound:
            return False
    return True


# ---------------------------------------------------------------------------
# Holder duals and p->q norm bounds on validation.row_norms, shared by the oracle and solver
# ---------------------------------------------------------------------------

def holder_rows(Y: np.ndarray, q: float) -> np.ndarray:
    """Row-wise Holder dual for q in [1, 2]: row i is a unit-L_p vector x
    (p = q/(q-1)) with x.Y_i = ||Y_i||_q, zero where Y_i is (q > 1), and sign
    vectors (sign(0) := +1) at q = 1.  Row i is (|Y_i| / ||Y_i||_q)^(q-1)
    signed as Y_i, with the norm from row_norms: a row whose power sum leaves
    [smallest normal, inf) keeps an accurate dual, and a stacked row equals
    its solo dual."""
    if q == 1.0:
        return np.where(Y >= 0.0, 1.0, -1.0)
    nrm = row_norms(Y, q)
    return np.copysign((np.abs(Y) / np.where(nrm > 0.0, nrm, 1.0)[:, None]) ** (q - 1.0), Y)


def holder_dual(y, q) -> np.ndarray:
    """Unit-L_p vector x (p = q/(q-1)) with x^T y = ||y||_q, for q in [1, 2)
    and y != 0: holder_rows of the one row y."""
    y = np.asarray(y, dtype=np.float64)
    if not 1.0 <= float(q) < 2.0:
        raise DomainError(f"holder_dual needs q in [1, 2), got {q}")
    if not y.any():
        raise DegenerateInputError("holder_dual of the zero vector")
    return holder_rows(y.reshape(1, -1), float(q)).reshape(y.shape)


def matrix_bounds(C: np.ndarray, q: float, steps: int = 0) -> np.ndarray:
    """Upper bound on ||C_k||_{p->q} (p = q*, q in [1, 2]) for each matrix of a
    (k, m, n) stack: the smaller of its entrywise q-norm and
    ||C_k||_2 (mn)^(1/2-1/p).  Both also cap the value
    sum_ij C_ij l_i l'_j <u_i, v_j> of every point of the Gram relaxation
    (unit u_i, v_j; ||l||_p, ||l'||_p <= 1), as q <= 2 <= p.  For q < 2,
    ``steps`` > 0 also tightens the spectral term by that many subgradient
    steps of the relaxation's dual (see _dual_descent).  A stack with an
    overflowed entry bounds nothing: every bound is inf."""
    k, m, n = C.shape
    # each C_k over its largest entry, so its Gram matrix neither under- nor overflows
    scale = np.abs(C).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        return np.full(k, np.inf)
    U = C / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    gram = U @ U.transpose(0, 2, 1) if m <= n else U.transpose(0, 2, 1) @ U
    top_eig = np.linalg.eigvalsh(gram)[:, -1]  # ||U_k||_2 ** 2
    bound = np.minimum(row_norms(U.reshape(k, -1), q),
                       np.sqrt(top_eig) * (m * n) ** (1.0 / q - 0.5))
    if steps > 0 and q < 2.0:
        bound = np.minimum(bound, _dual_descent(U, q / (2.0 - q), steps))  # r = p/(p-2)
    return scale * bound


def _dual_descent(U: np.ndarray, r: float, steps: int) -> np.ndarray:
    """Least of ``steps`` dual bounds on the relaxation optimum of each U_k.

    For any positive a, b, every point X of the relaxation of U (Gram blocks
    X_11, X_22, X_12 with ||diag X_11||_{p/2}, ||diag X_22||_{p/2} <= 1) has
    <U, X_12> <= ||D_a^-1/2 U D_b^-1/2||_2 (||a||_r ||b||_r)^(1/2), r = p/(p-2);
    a = b = 1 is the spectral term of matrix_bounds, and the least over a, b is
    the relaxation optimum.  Subgradient steps on (log a, log b), each
    normalized to largest entry 1 and floored at e^-50, approach it."""
    k, m, n = U.shape
    if m > n:  # the eigenproblem below is on the smaller side
        return _dual_descent(U.transpose(0, 2, 1), r, steps)
    la, lb = np.zeros((k, m)), np.zeros((k, n))
    best = np.full(k, np.inf)
    for t in range(steps):
        a_r, b_r = np.exp(r * la), np.exp(r * lb)
        K = U * np.exp(-0.5 * la)[:, :, None] * np.exp(-0.5 * lb)[:, None, :]
        w, V = np.linalg.eigh(K @ K.transpose(0, 2, 1))
        top = np.maximum(w[:, -1], 0.0)  # ||K||_2 ** 2
        sa, sb = a_r.sum(axis=1), b_r.sum(axis=1)
        best = np.minimum(best, np.sqrt(top * (sa * sb) ** (1.0 / r)))
        u = V[:, :, -1]
        v2 = np.einsum("kij,ki->kj", K, u) ** 2 / np.where(top > 0.0, top, 1.0)[:, None]
        eta = 1.0 / math.sqrt(t + 1.0)
        la = la - eta * (a_r / sa[:, None] - u ** 2)
        lb = lb - eta * (b_r / sb[:, None] - v2)
        la = np.maximum(la - la.max(axis=1, keepdims=True), -50.0)
        lb = np.maximum(lb - lb.max(axis=1, keepdims=True), -50.0)
    return best


def slot_bounds(arr: np.ndarray, X: np.ndarray, q: float, steps: int = 0) -> np.ndarray:
    """Upper bound on every value, and every relaxation value, reachable below
    arr (order >= 3) contracted in its first slot with each row r of X
    (p = q*, q in [1, 2]): the matrix_bounds bound, with ``steps`` dual steps,
    on S_r, the (slot 2 | rest) unfolding of that contraction, built 8 MiB at
    a time, plus rounding_allowance; a nan bound (an overflowed allowance) is
    inf.  Sound at every order: ||x (x) y||_p = ||x||_p ||y||_p, so
    ||S_r||_{p->q} caps every value below r, and the relaxation of a deeper
    matrix A(r, x_2, .., ., .) embeds in S_r's (row lengths |x_2| and
    directions +-w, column lengths the products of the later lengths, column
    directions b with <w, b> = +-<u_j, v_k>)."""
    flat = arr.reshape(arr.shape[0], arr.shape[1], -1)
    step = max(1, (1 << 20) // flat[0].size)  # 2^20 doubles of contractions at a time
    out = np.empty(len(X))
    for i in range(0, len(X), step):
        out[i:i + step] = matrix_bounds(np.tensordot(X[i:i + step], flat, axes=(1, 0)), q, steps)
    out += rounding_allowance(arr, X, q)
    out[np.isnan(out)] = np.inf
    return out


def form_bound(arr: np.ndarray, q: float) -> float:
    """Upper bound on F_arr over unit L_p balls (p = q*, q in [1, 2]): the least
    matrix_bounds bound of a (slot j | rest) unfolding, as ||x (x) y||_p = ||x||_p ||y||_p."""
    bound = min(matrix_bounds(np.moveaxis(arr, j, 0).reshape(1, n, -1), q)[0]
                for j, n in enumerate(arr.shape))
    return float(bound + row_norms(arr.reshape(1, -1), q)[0] * _BOUND_SLACK + _BOUND_TINY)


def rounding_allowance(arr: np.ndarray, X: np.ndarray, q: float) -> np.ndarray:
    """How far a value computed on arr contracted in its first slot with a row
    r of X may round above its matrix_bounds bound: _BOUND_SLACK *
    sum_i |r_i| ||arr_i||_q (entrywise norms of the slices) + _BOUND_TINY.
    An overflowed slice norm makes it inf, or nan where r_i = 0."""
    slack = row_norms(arr.reshape(len(arr), -1), q) * _BOUND_SLACK
    with np.errstate(invalid="ignore"):
        return np.abs(X) @ slack + _BOUND_TINY


# ---------------------------------------------------------------------------
# shared tensor text format (also used by the CLI)
# ---------------------------------------------------------------------------

def tensor_to_doc(A) -> dict:
    """JSON-ready document: {"dims": [...], "coo": [[i1,...,id,value],...]}.

    Indices are 1-based and emitted in lexicographic order; zero entries are
    omitted.
    """
    A = as_tensor(A)
    idx = np.argwhere(A.data != 0.0)
    coo = [[int(i) + 1 for i in row] + [float(A.data[tuple(row)])] for row in idx]
    return {"dims": [int(n) for n in A.dims], "coo": coo}


def tensor_from_doc(doc: Mapping) -> Tensor:
    """Parse the shared format: integer dims and either a "coo" payload (integer
    indices, numeric values) or a numeric "dense" one; anything else is a ShapeError."""
    def json_number(v, kinds=(int, float)) -> bool:
        return isinstance(v, kinds) and not isinstance(v, bool)  # JSON's true is no number
    if "dims" not in doc:
        raise ShapeError('tensor document needs a "dims" field')
    dims = list(doc["dims"])
    if not all(json_number(n, int) and n >= 1 for n in dims):
        raise ShapeError(f"dims must be positive integers, got {dims}")
    size = int(np.prod(dims)) if dims else 1
    if size > DENSE_CAP:
        raise ResourceLimitError(f"{size} entries exceeds the dense cap of {DENSE_CAP}")
    if "dense" in doc:
        arr = np.asarray(doc["dense"])
        if arr.dtype.kind not in "iuf":
            raise ShapeError(f"dense payload must hold numbers, got dtype {arr.dtype}")
        return Tensor(arr.reshape(dims))
    if "coo" not in doc:
        raise ShapeError('tensor document needs a "coo" or "dense" field')
    arr = np.zeros(dims)
    for row in doc["coo"]:
        if len(row) != len(dims) + 1:
            raise ShapeError(f"coo row {row} should hold {len(dims)} indices plus a value")
        if not all(json_number(i, int) for i in row[:-1]) or not json_number(row[-1]):
            raise ShapeError(f"coo row {row} needs integer indices and a numeric value")
        idx = tuple(i - 1 for i in row[:-1])
        if any(i < 0 or i >= n for i, n in zip(idx, dims)):
            raise ShapeError(f"coo row {row} out of range for dims {dims}")
        arr[idx] += row[-1]  # duplicates accumulate
    return Tensor(arr)


def save_tensor(A, path) -> None:
    with open(path, "w") as fh:
        json.dump(tensor_to_doc(A), fh)
        fh.write("\n")


def load_tensor(path) -> Tensor:
    with open(path) as fh:
        doc = json.load(fh)
    return tensor_from_doc(doc)
