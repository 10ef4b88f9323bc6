"""Symmetrization and block machinery.

Given a tensor A with dims (n_1, ..., n_d), sym(A) is the cubical order-d
tensor of side N = sum n_j whose (chi_1, ..., chi_d) block is the
chi-transpose of A when chi is a permutation of (1..d) and zero otherwise.
It satisfies f_sym(A)(stack(xs)) = d! * F_A(x^1, ..., x^d), which is what lets
a polynomial solver attack a multilinear problem and vice versa.  The
rebalancing step turns a stacked solution with uneven block norms into one
with unit block norms without decreasing a positive form value.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateInputError, DomainError, ResourceLimitError,
                     ShapeError)
from .tensor import DENSE_CAP, Tensor, as_tensor, eval_multilinear
from .validation import INF, as_matrix, as_vector, check_p, lp_norm


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


def rebalance_blocks(A, zs, p, *, tol: float = 1e-10, max_iter: int = 10000) -> list[np.ndarray]:
    """Rescale blocks so every block p-norm is 1, never decreasing a positive F_A.

    Input mass is first normalized so that sum_i ||z^i||_p^p = d.  Then the
    block with the largest norm deviation is rescaled against all others,
    which multiplies F_A by (d-1)^((d-1)/p) * ((d-theta)^(d-1) * theta)^(-1/p)
    >= 1, until all block norms sit within ``tol`` of 1.  p = inf blocks are
    independently normalizable and handled directly.
    """
    A = as_tensor(A)
    d = A.order
    if len(zs) != d:
        raise ShapeError(f"need {d} blocks, got {len(zs)}")
    zs = [as_vector(z, n, name=f"block {i+1}") for i, (z, n) in enumerate(zip(zs, A.dims))]
    if p == INF:
        out = []
        for i, z in enumerate(zs):
            nrm = lp_norm(z, INF)
            if nrm == 0.0:
                raise DegenerateInputError(f"block {i+1} is zero")
            out.append(z / nrm)
        return out
    pf = check_p(p, allow_low=True)
    masses = np.array([np.sum(np.abs(z) ** pf) for z in zs])
    if np.any(masses == 0.0):
        raise DegenerateInputError("rebalance_blocks got a zero block")
    scale = (d / masses.sum()) ** (1.0 / pf)
    zs = [z * scale for z in zs]
    masses = masses * (d / masses.sum())
    for _ in range(max_iter):
        devs = np.abs(masses ** (1.0 / pf) - 1.0)
        j = int(np.argmax(devs))
        if devs[j] <= tol:
            return zs
        theta = masses[j]
        other = ((d - 1) / (d - theta)) ** (1.0 / pf)
        for i in range(d):
            if i == j:
                zs[i] = zs[i] * theta ** (-1.0 / pf)
                masses[i] = 1.0
            else:
                zs[i] = zs[i] * other
                masses[i] = masses[i] * (d - 1) / (d - theta)
    raise ConvergenceError(f"block norms not balanced after {max_iter} sweeps", best=zs)


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
