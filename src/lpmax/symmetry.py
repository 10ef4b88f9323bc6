"""Symmetrization and block machinery.

Given a tensor A with dims (n_1, ..., n_d), sym(A) is the cubical order-d
tensor of side N = sum n_j whose (chi_1, ..., chi_d) block is the
chi-transpose of A when chi is a permutation of (1..d) and zero otherwise.
It satisfies f_sym(A)(stack(xs)) = d! * F_A(x^1, ..., x^d), which is what lets
a polynomial solver attack a multilinear problem and vice versa.  The
rebalancing step divides each block of a stacked solution by its own norm,
which gives unit block norms without decreasing a positive form value.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, ResourceLimitError, ShapeError
from .tensor import DENSE_CAP, Tensor, as_tensor, eval_multilinear
from .validation import as_matrix, as_vector, check_p, lp_norm


@dataclass(frozen=True)
class BlockPartition:
    """Consecutive index blocks of lengths n_1, ..., n_d inside {1, ..., N}."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if not dims or any(n < 1 for n in dims):
            raise ShapeError(f"block lengths must be positive, got {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def N(self) -> int:
        return sum(self.dims)

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) pairs, 0-based half-open, one per block."""
        stops = np.cumsum(self.dims)
        starts = np.concatenate(([0], stops[:-1]))
        return tuple((int(a), int(b)) for a, b in zip(starts, stops))

    def slices(self) -> list[slice]:
        return [slice(a, b) for a, b in self.offsets]


def stack(xs) -> np.ndarray:
    """Concatenate block vectors into one long vector."""
    return np.concatenate([as_vector(x, name="block") for x in xs])


def split(z, partition: BlockPartition) -> list[np.ndarray]:
    z = as_vector(z, name="stacked vector")
    if z.shape[0] != partition.N:
        raise ShapeError(f"stacked vector has length {z.shape[0]}, partition wants {partition.N}")
    return [z[sl].copy() for sl in partition.slices()]


def pi_transpose(A, pi) -> Tensor:
    """The pi-transpose: result[i_{pi_1}, ..., i_{pi_d}] = A[i_1, ..., i_d]."""
    A = as_tensor(A)
    d = A.order
    pi = tuple(int(j) for j in pi)
    if sorted(pi) != list(range(1, d + 1)):
        raise DomainError(f"{pi} is not a permutation of 1..{d}")
    return Tensor(np.transpose(A.data, axes=[j - 1 for j in pi]))


def symmetrize(A, *, dense_cap: int = DENSE_CAP) -> Tensor:
    """sym(A): permutation blocks are transposes of A, everything else zero."""
    A = as_tensor(A)
    d = A.order
    if d < 2:
        raise DomainError("symmetrize needs order >= 2")
    part = BlockPartition(A.dims)
    N = part.N
    if N ** d > dense_cap:
        raise ResourceLimitError(f"sym(A) with {N}^{d} entries exceeds the dense cap")
    out = np.zeros((N,) * d)
    sls = part.slices()
    for chi in itertools.permutations(range(d)):
        out[tuple(sls[c] for c in chi)] = np.transpose(A.data, axes=chi)
    return Tensor(out, supersymmetric=True, dense_cap=dense_cap)


def embed_matrix(B, d: int) -> Tensor:
    """Order-d tensor with dims (1,...,1,m,n) holding B in its last two slots."""
    B = as_matrix(B)
    if d < 2:
        raise DomainError("embedding order must be at least 2")
    return Tensor(B.reshape((1,) * (d - 2) + B.shape))


def rebalance_blocks(A, zs, p) -> list[np.ndarray]:
    """Divide every block by its p-norm, never decreasing a positive F_A.

    F_A is multilinear, so the result's value is F_A(z) / prod_i ||z^i||_p, and
    by AM-GM prod_i ||z^i||_p^p <= (sum_i ||z^i||_p^p / d)^d, which is at most
    1 whenever the block masses sum to at most d (every feasible input).
    """
    A = as_tensor(A)
    if len(zs) != A.order:
        raise ShapeError(f"need {A.order} blocks, got {len(zs)}")
    pf = check_p(p, allow_low=True)
    out = []
    for i, (z, n) in enumerate(zip(zs, A.dims)):
        z = as_vector(z, n, name=f"block {i+1}")
        nrm = lp_norm(z, pf)
        if nrm == 0.0:
            raise DegenerateInputError(f"block {i+1} is zero")
        out.append(z / nrm)
    return out


def permutation_expansion(A, zs) -> float:
    """sum over permutations pi of F_A(block_1 of z^{pi(1)}, ..., block_d of z^{pi(d)}).

    This equals F_sym(A)(z^1, ..., z^d); exposed so tests can enumerate S_d
    directly against the symmetrized evaluation.
    """
    A = as_tensor(A)
    d = A.order
    part = BlockPartition(A.dims)
    blocks = [split(z, part) for z in zs]  # blocks[i][j] = block j of z^i
    total = 0.0
    for pi in itertools.permutations(range(d)):
        total += eval_multilinear(A, [blocks[pi[k]][k] for k in range(d)])
    return total
