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

import numpy as np

from .errors import DegenerateInputError, DomainError, ResourceLimitError, ShapeError
from .tensor import DENSE_CAP, Tensor, as_tensor, eval_multilinear
from .validation import as_matrix, as_vector, check_p, lp_norm


def _slices(dims) -> list[slice]:
    """The consecutive blocks of lengths dims inside range(sum(dims))."""
    dims = [int(n) for n in dims]
    if not dims or min(dims) < 1:
        raise ShapeError(f"block lengths must be positive, got {tuple(dims)}")
    return [slice(b - n, b) for n, b in zip(dims, itertools.accumulate(dims))]


def stack(xs) -> np.ndarray:
    """Concatenate block vectors into one long vector."""
    return np.concatenate([as_vector(x, name="block") for x in xs])


def split(z, dims) -> list[np.ndarray]:
    """The blocks of lengths dims of a stacked vector: stack's inverse."""
    sls = _slices(dims)
    z = as_vector(z, sls[-1].stop, name="stacked vector")
    return [z[sl].copy() for sl in sls]


def pi_transpose(A, pi) -> Tensor:
    """The pi-transpose: result[i_{pi_1}, ..., i_{pi_d}] = A[i_1, ..., i_d]."""
    A = as_tensor(A)
    d = A.order
    pi = tuple(int(j) for j in pi)
    if sorted(pi) != list(range(1, d + 1)):
        raise DomainError(f"{pi} is not a permutation of 1..{d}")
    return Tensor(np.transpose(A.data, axes=[j - 1 for j in pi]))


def symmetrize(A) -> Tensor:
    """sym(A): permutation blocks are transposes of A, everything else zero."""
    A = as_tensor(A)
    d = A.order
    if d < 2:
        raise DomainError("symmetrize needs order >= 2")
    sls = _slices(A.dims)
    N = sls[-1].stop
    if N ** d > DENSE_CAP:
        raise ResourceLimitError(f"sym(A) with {N}^{d} entries exceeds the dense cap")
    out = np.zeros((N,) * d)
    for chi in itertools.permutations(range(d)):
        out[tuple(sls[c] for c in chi)] = np.transpose(A.data, axes=chi)
    return Tensor(out, supersymmetric=True)


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
    blocks = [split(z, A.dims) for z in zs]  # blocks[i][j] = block j of z^i
    total = 0.0
    for pi in itertools.permutations(range(d)):
        total += eval_multilinear(A, [blocks[pi[k]][k] for k in range(d)])
    return total
