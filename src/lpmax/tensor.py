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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DENSE_CAP
from .errors import DomainError, ResourceLimitError, ShapeError
from .validation import as_vector

SYM_TOL = 1e-9  # asymmetry polynomial inputs may carry, relative to 1 + max|a|


class Tensor:
    """Immutable dense real tensor in row-major storage.

    An order-0 tensor (empty ``dims``) is the legal result of contracting
    every index and wraps a single scalar.
    """

    __slots__ = ("data", "supersymmetric")

    def __init__(self, data, *, supersymmetric: bool = False, dense_cap: int = DENSE_CAP):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.size == 0:
            raise ShapeError("every tensor dimension must be positive")
        if arr.size > dense_cap:
            raise ResourceLimitError(
                f"dense tensor with {arr.size} entries exceeds the cap of {dense_cap}"
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

    @property
    def entries(self) -> np.ndarray:
        """Flat row-major view of the entries."""
        return self.data.reshape(-1)

    def item(self) -> float:
        if self.order != 0 and self.data.size != 1:
            raise ShapeError("item() is only defined for single-entry tensors")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(dims={self.dims}, supersymmetric={self.supersymmetric})"


def as_tensor(A, *, dense_cap: int = DENSE_CAP) -> Tensor:
    return A if isinstance(A, Tensor) else Tensor(A, dense_cap=dense_cap)


@dataclass(frozen=True)
class ContractionSpec:
    """Assignment of vectors to (1-based) index positions to be summed out."""

    assignments: Mapping[int, np.ndarray]

    def __post_init__(self):
        if not self.assignments:
            raise ShapeError("contraction needs at least one assignment")
        clean = {}
        for pos, vec in self.assignments.items():
            j = int(pos)
            if j < 1:
                raise ShapeError(f"index positions are 1-based, got {pos}")
            clean[j] = as_vector(vec, name=f"assignment at position {j}")
        object.__setattr__(self, "assignments", clean)


def _raw(A) -> np.ndarray:
    return A.data if isinstance(A, Tensor) else np.asarray(A, dtype=np.float64)


def eval_multilinear(A, xs: Sequence) -> float:
    """F_A(x^1, ..., x^d), computed by contracting one index at a time."""
    arr = _raw(A)
    if len(xs) != arr.ndim:
        raise ShapeError(f"need {arr.ndim} vectors, got {len(xs)}")
    return contract_all(arr, [as_vector(x, n, name=f"xs[{i}]")
                              for i, (x, n) in enumerate(zip(xs, arr.shape))])


def contract_all(arr: np.ndarray, xs) -> float:
    """eval_multilinear without input checks, for callers that built ``xs``."""
    out = arr
    for x in xs:
        out = np.tensordot(out, x, axes=(0, 0))
    return float(out)


def contract(A, spec: ContractionSpec) -> Tensor:
    """Sum out the indices named in ``spec``; order drops by ``len(spec.assignments)``."""
    arr = _raw(A)
    d = arr.ndim
    for pos, vec in spec.assignments.items():
        if pos > d:
            raise ShapeError(f"position {pos} exceeds tensor order {d}")
        if vec.shape[0] != arr.shape[pos - 1]:
            raise ShapeError(
                f"assignment at position {pos} has length {vec.shape[0]}, "
                f"dimension is {arr.shape[pos - 1]}"
            )
    out = arr
    for pos in sorted(spec.assignments, reverse=True):
        out = np.tensordot(out, spec.assignments[pos], axes=(pos - 1, 0))
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


def tensor_from_doc(doc: Mapping, *, dense_cap: int = DENSE_CAP) -> Tensor:
    """Parse the shared format; accepts either a "coo" or a "dense" payload."""
    if "dims" not in doc:
        raise ShapeError('tensor document needs a "dims" field')
    dims = [int(n) for n in doc["dims"]]
    if any(n < 1 for n in dims):
        raise ShapeError(f"dims must be positive, got {dims}")
    size = int(np.prod(dims)) if dims else 1
    if size > dense_cap:
        raise ResourceLimitError(f"{size} entries exceeds the dense cap of {dense_cap}")
    if "dense" in doc:
        arr = np.asarray(doc["dense"], dtype=np.float64).reshape(dims)
        return Tensor(arr, dense_cap=dense_cap)
    if "coo" not in doc:
        raise ShapeError('tensor document needs a "coo" or "dense" field')
    arr = np.zeros(dims)
    for row in doc["coo"]:
        if len(row) != len(dims) + 1:
            raise ShapeError(f"coo row {row} should hold {len(dims)} indices plus a value")
        idx = tuple(int(i) - 1 for i in row[:-1])
        if any(i < 0 or i >= n for i, n in zip(idx, dims)):
            raise ShapeError(f"coo row {row} out of range for dims {dims}")
        arr[idx] += float(row[-1])  # duplicates accumulate
    return Tensor(arr, dense_cap=dense_cap)


def save_tensor(A, path) -> None:
    with open(path, "w") as fh:
        json.dump(tensor_to_doc(A), fh)
        fh.write("\n")


def load_tensor(path, *, dense_cap: int = DENSE_CAP) -> Tensor:
    with open(path) as fh:
        doc = json.load(fh)
    return tensor_from_doc(doc, dense_cap=dense_cap)
