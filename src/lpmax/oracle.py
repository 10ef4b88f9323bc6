"""Brute-force and closed-form baselines, independent of the solvers.

Nothing here calls the randomized pipeline: values come from exhaustive
vertex enumeration (p = inf), dense grid scans over cube surfaces radially
mapped onto L_p spheres, or closed forms.  The last multilinear slot is never
gridded -- for fixed partial contraction w the best remaining vector is the
Holder dual (tensor.holder_rows, which the relaxation solver's length updates
share), worth exactly ||w||_q -- which removes one exponential factor.

Every enumerated slot but the last is bound-and-pruned (see _scan_ml).
Offers are ranked by value and then by their position in a scan in grid
order, so the k best are the same whatever order the rows are visited in.
Each block of rows is visited best bound first: a cheap bound for every row,
tightened by a few dual steps for the rows still in the running where a
visit costs more than that, and the block ends at the first bound under the
k-th best offer.  No skipped row could have placed an offer, so the scan
returns what a full scan in grid order returns, bit for bit.

Grids are nested: the axis for `steps` is linspace(-1, 1, steps), so
refining steps -> 2*steps - 1 keeps every old point and the scan maximum is
exactly monotone.  An optional `refine` stage polishes the best grid points
(coordinate ascent for multilinear scans, shrinking local windows for
polynomial scans); it only ever increases the reported lower bound.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, ResourceLimitError, ShapeError
from .symmetry import symmetrize
from .tensor import (SYM_TOL, as_tensor, contract_all, contract_first, eval_multilinear,
                     holder_rows, is_supersymmetric, rounding_allowance, row_norms,
                     slot_bounds)
from .validation import INF, check_p, conjugate_exponent

GRID_BUDGET = 10 ** 8
_SIGN_GATE = 24  # vertex enumeration allowed while sum(dims) <= 24
_CHUNK = 1 << 16
# dual steps that tighten a scan row's bound (tensor.slot_bounds): 16 seeded
# 3x3x3 grid_ml calls (p = 3 and 4, steps 33, refine 6; 2 vCPU, one BLAS
# thread) took 9.6 s in total when visited in grid order under the cheap
# bound alone; visited best first, they took 3.5 s with 2 steps, 3.0-3.2 s
# with 3, 1.6-1.9 s with 4, 1.1-1.5 s with 5 to 10 and 1.6 s with 12
_SCAN_DUAL_STEPS = 5


class OracleMethod(str, enum.Enum):
    VERTEX_ENUM = "vertex_enum"
    GRID = "grid"


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmax: tuple
    method: OracleMethod
    resolution: float


# ---------------------------------------------------------------------------
# exact enumeration at p = inf
# ---------------------------------------------------------------------------

def _sign_chunks(n, pin_first=False):
    """All +-1 vectors of length n in product order, as _CHUNK-row blocks;
    pin_first fixes coordinate 0 to +1."""
    signs = np.array([1.0, -1.0])
    return _mesh_rows([np.ones(1) if pin_first and k == 0 else signs for k in range(n)])


def exact_ml_linf(A) -> OracleResult:
    """Exact multilinear optimum over L_inf balls by sign enumeration.

    Slots 1..d-1 are enumerated over the +-1 vertices (the optimum of a
    multilinear form over a product of boxes is attained at vertices); the
    last slot is resolved in closed form as the l1 norm of the remaining
    contraction.  Flipping every sign in slot 1 negates that contraction and
    leaves its l1 norm unchanged, so slot 1's first coordinate is pinned.
    """
    A = as_tensor(A)
    if A.order < 2:
        raise ShapeError("exact_ml_linf needs a tensor of order >= 2")
    if sum(A.dims) > _SIGN_GATE:
        raise ResourceLimitError(
            f"vertex enumeration gate exceeded: sum(dims)={sum(A.dims)} > {_SIGN_GATE}"
        )
    top = _TopK(1)
    sources = _slot_sources((partial(_sign_chunks, n, pin_first=(i == 0)),
                             2 ** (n - 1 if i == 0 else n))
                            for i, n in enumerate(A.dims[:-1]))
    _scan_ml(A.data, sources, 1.0, top)
    xs = _complete(A.data, top.best[1], 1.0)
    value = eval_multilinear(A, list(xs))
    return OracleResult(value=float(value), argmax=xs,
                        method=OracleMethod.VERTEX_ENUM, resolution=0.0)


# ---------------------------------------------------------------------------
# grids on L_p spheres
# ---------------------------------------------------------------------------

def _mesh_rows(axes, chunk=_CHUNK):
    """Yield the cartesian product of 1-D axes as (rows, len(axes)) blocks."""
    sizes = [a.size for a in axes]
    split, tail = len(axes), 1
    while split > 0 and tail * sizes[split - 1] <= chunk:
        split -= 1
        tail *= sizes[split]
    if tail == 0:  # an empty axis means an empty product
        return
    for head in itertools.product(*(list(a) for a in axes[:split])):
        yield _mesh_block(axes, split, head)


def _mesh_block(axes, split, head):
    """One block: the head coordinates fixed, the tail axes broadcast in
    product order straight into it, so the block is the only array of its
    size that the generator allocates."""
    block = np.empty([a.size for a in axes[split:]] + [len(axes)])
    if head:
        block[..., :split] = head
    for j, a in enumerate(axes[split:]):
        shape = [1] * (len(axes) - split)
        shape[j] = a.size
        block[..., split + j] = a.reshape(shape)
    return block.reshape(-1, len(axes))


def _surface_count(n, steps):
    return steps ** n - max(steps - 2, 0) ** n


def _sphere_chunks(n, steps, p):
    """Blocks of unit-L_p-norm rows covering the radial image of the cube
    surface; each surface point is generated exactly once (indexed by the
    first coordinate attaining magnitude 1)."""
    full = np.linspace(-1.0, 1.0, steps)
    inner = full[1:-1]
    for k in range(n):
        for sgn in (1.0, -1.0):
            axes = [inner] * k + [np.array([sgn])] + [full] * (n - 1 - k)
            for block in _mesh_rows(axes):
                if p != INF:  # rows of the cube surface already have sup-norm 1
                    block = block / row_norms(block, p)[:, None]
                yield block


def _check_grid_args(p, steps):
    p = check_p(p, allow_low=True)
    if int(steps) != steps or steps < 2:
        raise DomainError(f"steps must be an integer >= 2, got {steps}")
    return p, int(steps)


class _TopK:
    """Keeps the k best offers seen so far, ranked by value (descending) and
    then by scan position (ascending).

    An offer is (value, payload, pos), pos a tuple that orders offers as a
    scan in grid order makes them.  Offered in that order, an offer is kept
    only when it is strictly greater than the k-th best, so ties keep the
    first offer, and the rank makes this hold whatever order the offers come
    in: the kept items are the k least by (-value, pos).  ``items`` holds
    them as (value, payload) pairs in that order.  A nan value ranks with
    nothing, as under the strictly-greater test: it is never kept once k
    offers are held, and a held nan keeps every later offer out.
    """

    def __init__(self, k):
        self.k = max(1, int(k))
        self._held = []  # (value, pos, payload)

    def offer(self, value, payload, pos):
        if len(self._held) == self.k:
            low, low_pos, _ = self._held[-1]
            if not (value > low or (value == low and pos < low_pos)):
                return
            self._held.pop()
        self._held.append((value, pos, payload))
        self._held.sort(key=lambda t: (-t[0], t[1]))

    @property
    def items(self):
        return [(value, payload) for value, _, payload in self._held]

    @property
    def best(self):
        value, _, payload = self._held[0]
        return value, payload

    @property
    def floor(self):
        """The value an offer must reach once k items are held; -inf before."""
        return self._held[-1][0] if len(self._held) == self.k else -math.inf


def _dual_vec(w, q):
    """Feasible maximizer of <w, x> over the L_p ball, total on q in [1, 2].

    Zero contractions (zero tensors, zero slices) get a basis vector so the
    oracle argmax stays feasible with value 0.
    """
    w = np.asarray(w, dtype=float).reshape(1, -1)
    return holder_rows(w, q)[0] if w.any() else np.eye(1, w.size)[0]


def _complete(arr, prefix, q):
    """prefix plus the Holder dual of the contraction it leaves: the best
    last slot for those fixed slots."""
    w = arr
    for x in prefix:
        w = contract_first(w, x)
    return tuple(prefix) + (_dual_vec(w, q),)


def _slot_sources(slots):
    """Row sources for _scan_ml: one (blocks, rows) pair per slot, rows the
    number of rows that blocks() yields.

    _scan_ml calls an inner slot's source once per row of the slots before
    it, so an inner slot of at most _CHUNK rows is built once and replayed
    block for block; slot 1 and larger slots stream.  A slot of n
    coordinates has at least 2^n rows, so a replayed slot holds at most
    _CHUNK * 16 doubles (8 MiB)."""
    sources = []
    for i, (blocks, rows) in enumerate(slots):
        if i > 0 and rows <= _CHUNK:
            blocks = (lambda built=tuple(blocks()): built)
        sources.append((blocks, rows))
    return sources


def _best_first(block, arr, q, top, tighten):
    """Indices of the rows of block to visit, best bound first and ties by
    index, up to the first bound strictly under top.floor.

    A row's bound, which caps every offer computed below it, is its cheap
    tensor.slot_bounds bound.  With ``tighten``, once top holds k offers and
    after a visit, the rows still at or above the floor get the least of
    that bound and their slot_bounds bound with _SCAN_DUAL_STEPS dual steps,
    and the rest are visited in that order.  Rows of inf bound keep it: it
    comes from an overflow, which the dual steps do not bound either; so do
    rows whose rounding allowance alone reaches the floor, as no tightening
    can take them under it.  Fewer than _SCAN_DUAL_STEPS rows left to
    tighten are not tightened: the fixed cost of the dual steps, one stacked
    eigenproblem each, then outweighs the visits they can save (on d = 4 and
    5 grids of 8 to 16 rows a slot, it did).  The floor is read
    again before every visit, as the offers of each visit can raise it."""
    allowance = rounding_allowance(arr, block, q)
    bounds = slot_bounds(arr, block, q)
    order = np.argsort(-bounds, kind="stable")
    while order.size and bounds[order[0]] >= top.floor:
        yield int(order[0])
        order = order[1:]
        if tighten and top.floor > -math.inf:
            tighten = False
            floor = top.floor
            live = order[(bounds[order] >= floor) & (bounds[order] < math.inf)
                         & (allowance[order] < floor)]
            if live.size >= _SCAN_DUAL_STEPS:
                bounds[live] = np.minimum(bounds[live], slot_bounds(
                    arr, block[live], q, _SCAN_DUAL_STEPS))
                order = order[bounds[order] >= floor]
                order = order[np.lexsort((order, -bounds[order]))]


def _scan_ml(arr, slots, q, top, prefix=(), pos=()):
    """Enumerate slots left to right, slot i over the row blocks that
    ``slots[i][0]()`` yields, and offer each prefix with the L_q norm of the
    contraction it leaves; the last enumerated slot is vectorized per block.

    An offer's pos is its row's index in each earlier slot's stream, then
    its block's index in the last slot, so pos orders offers as the scan in
    grid order makes them, and top keeps the same items whatever order the
    rows are visited in.  Each block of an earlier slot is visited best
    first by _best_first: a row is skipped once its bound is strictly under
    the k-th best held (which never falls), as no offer below it can then be
    kept.  So the scan keeps what a full scan in grid order keeps.  The dual
    steps tighten nothing at q = 2, and elsewhere they only pay where a
    visit costs more than a row's tightening: where the inner slots hold
    more rows than _SCAN_DUAL_STEPS times the entries of the row's
    contraction S_r (each dual step is an eigenproblem on S_r)."""
    blocks, _ = slots[0]
    if arr.ndim == 2:
        b = 0  # not enumerate, whose result tuple would keep the last block alive
        for block in blocks():
            vals = row_norms(block @ arr, q)
            k = int(np.argmax(vals))
            top.offer(float(vals[k]), prefix + (block[k].copy(),), pos + (b,))
            b += 1
            del block  # free it before a streamed source builds the next one
        return
    tighten = q < 2.0 and (math.prod(rows for _, rows in slots[1:])
                           > _SCAN_DUAL_STEPS * arr[0].size)
    start = 0
    for block in blocks():
        for i in _best_first(block, arr, q, top, tighten):
            row = block[i]
            sub = contract_first(arr, row)
            _scan_ml(sub, slots[1:], q, top, prefix + (row.copy(),), pos + (start + i,))
        start += len(block)


def _ml_ascent(arr, xs, q, sweeps=300, rtol=1e-13):
    """Exact per-slot maximization: fixing all but one slot reduces the
    multilinear problem to a Holder pairing, solved by the dual vector."""
    d = arr.ndim
    xs = [np.array(x, dtype=float) for x in xs]
    val = -math.inf
    for _ in range(sweeps):
        for i in range(d):
            # contract every slot except i, highest axis first so that the
            # remaining axis indices stay valid as the tensor shrinks
            w = arr
            for j in range(d - 1, -1, -1):
                if j == i:
                    continue
                w = contract_first(np.moveaxis(w, j, 0), xs[j])
            xs[i] = _dual_vec(w, q)
        new = float(np.abs(contract_all(arr, xs)))
        if new <= val * (1.0 + rtol) + 1e-300:
            val = max(val, new)
            break
        val = new
    return val, tuple(xs)


def grid_ml(A, p, steps, refine=0) -> OracleResult:
    """Grid-scan lower bound for the multilinear optimum over L_p balls.

    Slots 1..d-1 run over the radial grid; the last slot is the Holder dual
    of the remaining contraction.  refine > 0 polishes that many of the best
    grid candidates by cyclic exact per-slot updates.
    """
    A = as_tensor(A)
    p, steps = _check_grid_args(p, steps)
    if A.order < 2:
        raise ShapeError("grid_ml needs a tensor of order >= 2")
    total = 1
    for n in A.dims[:-1]:
        total *= _surface_count(n, steps)
    if total > GRID_BUDGET:
        raise ResourceLimitError(f"grid budget exceeded: {total} > {GRID_BUDGET}")
    q = conjugate_exponent(p)
    top = _TopK(max(1, refine))
    sources = _slot_sources((partial(_sphere_chunks, n, steps, p), _surface_count(n, steps))
                            for n in A.dims[:-1])
    _scan_ml(A.data, sources, q, top)
    candidates = [top.best]
    if refine > 0:
        candidates += [_ml_ascent(A.data, _complete(A.data, prefix, q), q)
                       for _, prefix in top.items]
    best = max(candidates, key=lambda t: t[0])[1]
    # a scanned prefix still lacks its last slot; a polished point is complete
    xs = _complete(A.data, best, q) if len(best) == A.order - 1 else best
    value = eval_multilinear(A, list(xs))
    if value < 0.0:
        xs = (-xs[0],) + xs[1:]
        value = -value
    return OracleResult(value=float(value), argmax=xs, method=OracleMethod.GRID,
                        resolution=2.0 / (steps - 1))


def oracle_ml(A, p, steps, refine=0) -> OracleResult:
    """Multilinear optimum over L_p balls by the strongest affordable method.

    Exact sign enumeration when p = inf and sum(dims) <= _SIGN_GATE;
    otherwise grid_ml with ``steps`` points per axis and ``refine`` polished
    candidates.
    """
    A = as_tensor(A)
    if p == INF and sum(A.dims) <= _SIGN_GATE:
        return exact_ml_linf(A)
    return grid_ml(A, p, steps, refine=refine)


def _poly_rows(arr, X):
    """f_A(x) = <A, x^{(x) d}> for each row x of X.

    Rows run in sub-blocks of _CHUNK // n^(d-1) rows (at least one).  In each
    sub-block, one BLAS product contracts the first slot of A with every row,
    leaving a (rows, n^(d-1)) array of at most _CHUNK doubles (512 KiB; one
    row's n^(d-1), a slice of A, if that is more); the other d-1 slots are
    then contracted one at a time, first to last, as the sum over
    i = 0..n-1 of slice i times coordinate i.  So the memory beyond the
    result is bounded whatever len(X) is.

    A row's value may round differently than under another evaluation order
    (or inside another sub-block), by a few ulps of the contraction of |A|
    with |x|.  So a caller that keeps the largest value can only pick a
    different row among rows whose values agree to rounding.  Negating a row
    negates every product exactly, so f(-x) = (-1)^d f(x) bit for bit.
    """
    n, d = arr.shape[0], arr.ndim
    flat = arr.reshape(n, -1)
    step = max(1, _CHUNK // n ** (d - 1))
    out = np.empty(len(X))
    for start in range(0, len(X), step):
        x = X[start:start + step]
        Y = x @ flat
        for _ in range(d - 1):
            Y = Y.reshape(len(x), n, -1)
            acc = Y[:, 0] * x[:, :1]
            for i in range(1, n):
                acc += Y[:, i] * x[:, i:i + 1]
            Y = acc
        out[start:start + step] = Y[:, 0]
    return out


def grid_hp(A, p, steps, refine=0) -> OracleResult:
    """Grid-scan lower bound for a super-symmetric polynomial over the L_p ball.

    Scans the radial grid on the sphere; since f is d-homogeneous the ball
    optimum is max(0, sphere optimum), with the zero vector as witness when
    every sphere value is negative.  refine > 0 runs that many shrinking
    local-window rounds around the best point.
    """
    A = as_tensor(A)
    p, steps = _check_grid_args(p, steps)
    if A.order < 2:
        raise ShapeError("grid_hp needs a tensor of order >= 2")
    if not A.supersymmetric and not is_supersymmetric(A, SYM_TOL):
        raise DomainError("grid_hp needs a super-symmetric tensor")
    n = A.dims[0]
    total = _surface_count(n, steps) + int(refine) * 5 ** n
    if total > GRID_BUDGET:
        raise ResourceLimitError(f"grid budget exceeded: {total} > {GRID_BUDGET}")
    arr = A.data
    best_val, best_x = -math.inf, None
    for block in _sphere_chunks(n, steps, p):
        vals = _poly_rows(arr, block)
        k = int(np.argmax(vals))
        if float(vals[k]) > best_val:
            best_val, best_x = float(vals[k]), block[k].copy()
    step = 2.0 / (steps - 1)
    h = step
    for _ in range(int(refine)):
        center = best_x  # every block of a round offsets the same point
        for offsets in _mesh_rows([np.array([-1.0, -0.5, 0.0, 0.5, 1.0])] * n):
            pts = center[None, :] + h * offsets
            scale = row_norms(pts, p)
            keep = scale > 0.0
            pts = pts[keep] / scale[keep][:, None]
            vals = _poly_rows(arr, pts)
            k = int(np.argmax(vals))
            if float(vals[k]) > best_val:
                best_val, best_x = float(vals[k]), pts[k].copy()
        h *= 0.35
    if best_val < 0.0:
        return OracleResult(value=0.0, argmax=(np.zeros(n),),
                            method=OracleMethod.GRID, resolution=step)
    value = contract_all(arr, [best_x] * A.order)
    return OracleResult(value=float(value), argmax=(best_x,),
                        method=OracleMethod.GRID, resolution=step)


# ---------------------------------------------------------------------------
# closed-form auxiliary bound and the symmetrization equivalence
# ---------------------------------------------------------------------------

def fn_check(n, d, p, steps):
    """Grid-max of the block-rebalancing auxiliary function vs its closed form.

    f(x) = sum_i x_i^{1/p} * prod_{j != i} (d - x_j)^{1/p} on [0, d]^n is
    maximized at the balanced point x = (d/n, .., d/n), giving
    d^{n/p} * n^{1 - 1/p} * (1 - 1/n)^{(n-1)/p}.  Returns (grid_max, formula);
    the contract is grid_max <= formula + tol(steps).
    """
    if int(n) != n or int(d) != d or not 2 <= n <= d:
        raise DomainError(f"need integers 2 <= n <= d, got n={n}, d={d}")
    p, steps = _check_grid_args(p, steps)
    n, d = int(n), int(d)
    ipow = 0.0 if p == INF else 1.0 / p
    axis = np.linspace(0.0, float(d), steps)
    grid_max = -math.inf
    for X in _mesh_rows([axis] * n):
        G = (float(d) - X) ** ipow
        vals = np.zeros(X.shape[0])
        for i in range(n):
            others = np.ones(X.shape[0])
            for j in range(n):
                if j != i:
                    others = others * G[:, j]
            vals += X[:, i] ** ipow * others
        grid_max = max(grid_max, float(vals.max()))
    formula = float(d) ** (n * ipow) * float(n) ** (1.0 - ipow) \
        * (1.0 - 1.0 / n) ** ((n - 1) * ipow)
    return float(grid_max), float(formula)


def sym_equivalence_check(A, p, steps) -> bool:
    """Numerically verify d! * opt_ML(A) == d^{d/p} * opt_ML(sym(A)).

    The left side optimizes the multilinear form of A over unit L_p balls; the
    right side does the same for the symmetrized embedding over balls of
    radius d^{1/p}, which by d-homogeneity is the d^{d/p} factor.  Both sides
    are evaluated with the independent oracles (exact enumeration when p = inf
    and the size gate allows, refined grid scan otherwise).
    """
    A = as_tensor(A)
    p, steps = _check_grid_args(p, steps)
    S = symmetrize(A)
    d = A.order

    ipow = 0.0 if p == INF else 1.0 / p
    lhs = math.factorial(d) * oracle_ml(A, p, steps, refine=4).value
    rhs = float(d) ** (d * ipow) * oracle_ml(S, p, steps, refine=4).value
    scale = max(1.0, abs(lhs), abs(rhs))
    tol = max(1e-6, 0.5 / (steps - 1))
    return bool(abs(lhs - rhs) <= tol * scale)
