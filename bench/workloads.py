"""Seeded corpora for the lpmax benchmark, with reference values.

This is the only code that knows the workloads.  ``build_corpus`` turns a
workload name and a seed into tensor files on disk plus the operations that
run on them; ``lpmax`` itself only ever receives those files.  Every reference
value is computed here with plain numpy and never by calling ``lpmax``:

* multilinear problems at p = inf with at most ``ENUM_GATE`` coordinates in
  total get the exact optimum by sign enumeration;
* every other problem gets the best of ``ASCENT_STARTS`` seeded alternating
  Hölder-dual ascent starts.

Polynomial problems always use ascent, with each start polished to a local
maximum (see ``poly_ascent``): a cubic form can peak inside the cube, so
vertex enumeration does not give its optimum.  Their decoupled multilinear
optimum is still enumerated at p = inf, because it bounds the polynomial
optimum from above.

Each workload is a fixed cyclic schedule of instance classes (command, shape,
exponent).  The seed draws the entries, never the schedule, so a run of any
seed executes the same mix of shapes and exponents in the same order.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INF = math.inf
ENUM_GATE = 24
ASCENT_STARTS = 16
ASCENT_SWEEPS = 300
POLY_PATIENCE = 8
SPHERE_POLISH_STEPS = 500
CUBE_POLISH_SWEEPS = 50

WHY = {
    "bilinear": "lpmax pqnorm on 8..32 matrices: one large relaxation per operation, "
                "solve_vecp's N x N eigh/Dykstra work dominates and the recursion is bypassed",
    "multilinear": "lpmax solve-ml and solve-hp on d=3 tensors: about 100-200 tiny relaxations "
                   "per operation, with the recursion and polarization layers active",
    "verify": "lpmax oracle and symmetrize: no solver layer runs, so the CLI, tensor I/O and "
              "the oracle scans carry the time",
}

# A schedule is a cycle of slots.  Each slot lists (command, dims, p, kind)
# alternatives of similar cost; schedule round r runs alternative r mod len.
# Metrics weight the slots equally (see run.py), so where a run's time
# window cuts the cycle does not change the mix it reports on.

# pqnorm on m x n matrices.  p = 7/2 is the only exponent that reaches the
# generic Newton branch of the relaxation's projection; p = 3 and 4 have
# closed forms.  Planted matrices are rank 2 plus noise.
BILINEAR = (
    (("pqnorm", (8, 12), "inf", "gauss"), ("pqnorm", (12, 8), "inf", "planted"),
     ("pqnorm", (12, 12), "inf", "planted")),
    (("pqnorm", (16, 8), "4", "gauss"), ("pqnorm", (8, 16), "4", "planted")),
    (("pqnorm", (16, 16), "inf", "gauss"), ("pqnorm", (16, 16), "inf", "planted")),
    (("pqnorm", (20, 20), "4", "gauss"), ("pqnorm", (24, 16), "4", "planted")),
    (("pqnorm", (12, 20), "3", "gauss"), ("pqnorm", (20, 12), "3", "planted")),
    (("pqnorm", (32, 16), "inf", "planted"), ("pqnorm", (32, 24), "inf", "gauss")),
    (("pqnorm", (8, 32), "3", "planted"), ("pqnorm", (16, 24), "3", "gauss")),
    (("pqnorm", (10, 14), "7/2", "planted"), ("pqnorm", (14, 10), "7/2", "gauss")),
    (("pqnorm", (28, 20), "7/2", "gauss"), ("pqnorm", (20, 28), "7/2", "planted")),
)

# d = 3 tensors.  p = 3 and generic p are left out: they cost 25-60 s per
# operation at the CLI defaults, longer than a whole run.  A run completes
# only eight to sixteen of these operations, so every class has a slot of its
# own: with alternatives, which of them a run reached moved its median by up
# to a quarter.  Instances of one class differ in time by 7-23 % from seed
# to seed, the p = 4 classes among the least.
MULTILINEAR = (
    (("solve-ml", (4, 4, 4), "inf", "gauss"),),
    (("solve-hp", (3, 3, 3), "inf", "gauss"),),
    (("solve-ml", (4, 5, 3), "4", "gauss"),),
    (("solve-hp", (4, 4, 4), "inf", "gauss"),),
    (("solve-ml", (3, 4, 5), "inf", "gauss"),),
    (("solve-hp", (3, 3, 3), "4", "gauss"),),
    (("solve-ml", (5, 3, 3), "inf", "gauss"),),
    (("solve-ml", (5, 3, 4), "inf", "gauss"),),
)

# Exact enumeration (p = inf), grid scans (p = 3, 4), polynomial grid scans
# and symmetrization.  Six of the seventeen slots take milliseconds, five
# take 35-60 ms (three d = 3 enumerations over 2048 sign patterns and two
# 4 x 4 grid scans) and six take 0.15 s or more, so the slot-weighted median
# sits in the middle of the 35-60 ms band, among the enumerations, whose
# time repeats to within 1 %.  Millisecond operations, bound by interpreter
# overhead, swung by up to 40 % with the machine's speed; a median among
# them spread by a third over ten runs, and one at the low edge of the band
# spread by a quarter.
VERIFY = (
    (("oracle-ml", (12, 12), "inf", "gauss"),),
    (("oracle-ml", (4, 4), "3", "gauss"),),
    (("symmetrize", (2, 3, 4), None, "gauss"),),
    (("oracle-ml", (6, 6, 6), "inf", "gauss"),),
    (("oracle-hp", (4, 4, 4), "4", "gauss"),),
    (("oracle-ml", (2, 3, 3), "3", "gauss"),),
    (("oracle-ml", (8, 10), "inf", "gauss"),),
    (("oracle-ml", (6, 6, 5), "inf", "gauss"),),
    (("oracle-ml", (4, 4), "4", "gauss"),),
    (("oracle-ml", (6, 6, 4), "inf", "gauss"),),
    (("oracle-hp", (3, 3, 3), "inf", "gauss"),),
    (("oracle-ml", (2, 3, 3), "4", "gauss"),),
    (("oracle-ml", (3, 3, 3), "3", "gauss"), ("oracle-ml", (3, 3, 3), "4", "gauss")),
    (("oracle-hp", (4, 4, 4), "inf", "gauss"),),
    (("symmetrize", (4, 5, 6), None, "gauss"),),
    (("oracle-hp", (3, 3, 3), "3", "gauss"),),
    (("oracle-hp", (4, 4, 4), "3", "gauss"),),
)

SCHEDULES = {"bilinear": BILINEAR, "multilinear": MULTILINEAR, "verify": VERIFY}
# Schedule rounds per corpus; a run that gets through them starts over.
ROUNDS = {"bilinear": 6, "multilinear": 2, "verify": 3}
# op_s_tail is read at a fixed level of the slot-weighted mix: the highest
# with at least ten operations above it in a 35 s run at the speed probe's
# reference speed, and never below the median.  A level taken from each
# run's own operation count would move with the machine's speed.
# multilinear completes only about ten operations a run, so no level has ten
# above it there; its tail is read at p90, between its two p = 4 slots, the
# slowest of its mix.
TAIL_Q = {"bilinear": 0.75, "multilinear": 0.9, "verify": 0.8}

WARMUP = {
    "bilinear": ("pqnorm", (6, 6), "7/2", "gauss"),
    "multilinear": ("solve-ml", (4, 5), "4", "gauss"),
    "verify": ("oracle-ml", (4, 4), "inf", "gauss"),
}

WORKLOADS = ("bilinear", "multilinear", "verify")
_WORKLOAD_ID = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a CLI invocation on a generated tensor file."""

    label: str
    slot: int            # position in the workload's schedule cycle
    kind: str            # pqnorm | solve-ml | solve-hp | oracle-ml | oracle-hp | symmetrize
    argv: tuple          # arguments for lpmax.cli.main
    tensor: np.ndarray
    p: float | None
    reference: float | None   # best known optimum, None for symmetrize
    exact: float | None       # exact optimum (or, for polynomials, the exact
                              # multilinear optimum that bounds it), if enumerable
    path: str
    out: str | None = None    # stem of symmetrize output files
    check_seed: int = 0       # seeds the checker's random evaluation point

    def invocation(self, run_index: int) -> tuple[tuple, str | None]:
        """(argv, output file) for one run of this operation.  Each run of a
        ``symmetrize`` writes its own file, so every run's output is checked."""
        if self.out is None:
            return self.argv, None
        out = f"{self.out}-{run_index}.json"
        return self.argv + ("--out", out), out


@dataclass(frozen=True)
class Corpus:
    workload: str
    why: str
    ops: tuple
    warmup: Op
    digest: str   # sha256 over every written file, in schedule order


def parse_p(text: str) -> float:
    return INF if text == "inf" else float(Fraction(text))


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2 ** 63 - 1)] + [int(k) for k in path])


def _planted_matrix(rng, m, n):
    """Rank-2 signal plus Gaussian noise at a third of the signal scale."""
    u = rng.standard_normal((m, 2))
    v = rng.standard_normal((n, 2))
    signal = u @ np.diag([3.0, 2.0]) @ v.T / (m * n) ** 0.25
    return signal + rng.standard_normal((m, n)) / 3.0


def _supersymmetric(rng, n, d):
    """Random super-symmetric tensor whose permuted entries are bit-identical."""
    g = rng.standard_normal((n,) * d)
    avg = sum(np.transpose(g, ax) for ax in itertools.permutations(range(d)))
    avg = avg / math.factorial(d)
    canon = np.sort(np.indices((n,) * d).reshape(d, -1), axis=0)
    return avg[tuple(canon)].reshape((n,) * d)


def tensor_bytes(arr: np.ndarray) -> bytes:
    """The shared lpmax file format: 1-based COO rows in lexicographic order."""
    coo = [[int(i) + 1 for i in idx] + [float(arr[idx])]
           for idx in np.ndindex(*arr.shape) if arr[idx] != 0.0]
    return (json.dumps({"dims": list(arr.shape), "coo": coo}) + "\n").encode()


def read_tensor(path) -> np.ndarray:
    """Parse a COO tensor file, the format lpmax writes, without lpmax."""
    with open(path) as fh:
        doc = json.load(fh)
    arr = np.zeros(tuple(int(n) for n in doc["dims"]))
    for row in doc["coo"]:
        arr[tuple(int(i) - 1 for i in row[:-1])] += float(row[-1])
    return arr


# ---------------------------------------------------------------------------
# reference values (numpy only)
# ---------------------------------------------------------------------------

def lp_norm(x, p) -> float:
    a = np.abs(np.asarray(x, dtype=float))
    if p == INF:
        return float(a.max(initial=0.0))
    return float(np.sum(a ** p) ** (1.0 / p))


def dual_unit(w, p) -> np.ndarray:
    """A maximizer of <w, x> over the unit L_p ball (Hölder's equality case)."""
    w = np.asarray(w, dtype=float)
    if p == INF:
        return np.where(w >= 0.0, 1.0, -1.0)
    if not w.any():
        e = np.zeros_like(w)
        e[0] = 1.0
        return e
    q = p / (p - 1.0)
    a = np.abs(w)
    nq = float(np.sum(a ** q)) ** (1.0 / q)
    return np.sign(w) * (a / nq) ** (q - 1.0)


def form(arr, xs) -> float:
    """F_A(x^1, ..., x^d), contracting the trailing index first."""
    out = np.asarray(arr, dtype=float)
    for x in reversed(xs):
        x = np.asarray(x, dtype=float)
        out = out.reshape(-1, x.size) @ x
    return float(out[0])


def _all_but(arr, xs, i):
    """The vector <A, x^1 (x) .. (x) x^d> with slot i left free."""
    out = arr
    for j in range(arr.ndim - 1, i, -1):
        out = out.reshape(-1, arr.shape[j]) @ xs[j]
    for j in range(i):
        out = xs[j] @ out.reshape(arr.shape[j], -1)
    return out.reshape(arr.shape[i])


def _sign_rows(n, pin_first):
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    return rows[rows[:, 0] > 0] if pin_first else rows


def exact_ml_linf(arr) -> float:
    """Exact max of F_A over L_inf balls: enumerate the sign vertices of all
    slots but the last, whose best answer is the l1 norm of the contraction.
    Negating slot 1 leaves that norm unchanged, so its first sign is pinned."""
    arr = np.asarray(arr, dtype=float)
    if sum(arr.shape) > ENUM_GATE:
        raise ValueError(f"enumeration gate: sum(dims)={sum(arr.shape)} > {ENUM_GATE}")
    if arr.ndim == 2 and arr.shape[0] > arr.shape[1]:
        arr = arr.T
    w = arr
    for k in range(arr.ndim - 1):
        rows = _sign_rows(arr.shape[k], pin_first=(k == 0))
        w = np.moveaxis(np.tensordot(w, rows, axes=(k, 1)), -1, k)
    return float(np.abs(w).sum(axis=-1).max())


def ml_ascent(arr, p, rng) -> float:
    """Best value of seeded alternating Hölder-dual ascent on F_A.

    Each sweep replaces one slot at a time by the exact maximizer with the
    others fixed, so a start's value never decreases.
    """
    arr = np.asarray(arr, dtype=float)
    best = -INF
    for _ in range(ASCENT_STARTS):
        xs = [dual_unit(rng.standard_normal(n), p) for n in arr.shape]
        val = form(arr, xs)
        for _ in range(ASCENT_SWEEPS):
            for i in range(arr.ndim):
                xs[i] = dual_unit(_all_but(arr, xs, i), p)
            new = form(arr, xs)
            if new <= val + 1e-13 * abs(new):
                val = max(val, new)
                break
            val = new
        best = max(best, abs(val))
    return best


def poly_ascent(arr, p, rng) -> float:
    """Best value of seeded Hölder-dual fixed-point ascent on f_A(x) = F_A(x,..,x).

    The step x <- argmax <grad f(x), y> need not increase f, so every iterate
    is scored, the best one kept, and a start ends once it repeats a point or
    goes ``POLY_PATIENCE`` steps without a new best.  Both the random start
    and the last iterate are then polished to a local maximum: by gradient
    ascent on the sphere for finite p, and by exact coordinate ascent on the
    cube (p = inf), where the dual step alone only visits vertices while f
    can peak inside.  The ball optimum of an even-degree form is at least
    f(0) = 0.
    """
    arr = np.asarray(arr, dtype=float)
    d, n = arr.ndim, arr.shape[0]
    best = 0.0 if d % 2 == 0 else -INF
    for _ in range(ASCENT_STARTS):
        g = rng.standard_normal(n)
        best = max(best, _polish(arr, np.tanh(g) if p == INF else g / lp_norm(g, p), p))
        x = dual_unit(g, p)
        start_best, stale = -INF, 0
        for _ in range(ASCENT_SWEEPS):
            val = form(arr, [x] * d)
            if val > start_best + 1e-13 * abs(val):
                start_best, stale = val, 0
            else:
                stale += 1
                if stale >= POLY_PATIENCE:
                    break
            nxt = dual_unit(_all_but(arr, [x] * d, 0), p)
            if np.allclose(nxt, x, rtol=0.0, atol=1e-15):
                break
            x = nxt
        best = max(best, start_best, _polish(arr, x, p))
    return best


def _polish(arr, x, p) -> float:
    return _coordinate_polish(arr, x) if p == INF else _sphere_polish(arr, x, p)


def _sphere_polish(arr, x, p) -> float:
    """Gradient ascent of h(x) = f_A(x) / ||x||_p^d, which equals f_A on the
    unit L_p sphere, renormalizing after each step.  A step is halved until h
    increases, so the value never decreases."""
    d = arr.ndim
    val = form(arr, [x] * d)
    step = 1.0
    for _ in range(SPHERE_POLISH_STEPS):
        grad = d * _all_but(arr, [x] * d, 0) - d * val * np.sign(x) * np.abs(x) ** (p - 1.0)
        gn = float(np.linalg.norm(grad))
        if gn <= 1e-12 * max(abs(val), 1.0):
            break
        while step > 1e-12:
            y = x + (step / gn) * grad
            y = y / lp_norm(y, p)
            new = form(arr, [y] * d)
            if new > val:
                x, val, step = y, new, 2.0 * step
                break
            step *= 0.5
        else:
            break
    return val


def _coordinate_polish(arr, x) -> float:
    """Exact coordinate ascent for f_A on the cube, from the point x.

    Along one coordinate f is a degree-d polynomial; it is fitted exactly
    from d + 1 samples and maximized over [-1, 1] at the endpoints and the
    real roots of its derivative.
    """
    d = arr.ndim
    x = x.copy()
    nodes = np.linspace(-1.0, 1.0, d + 1)
    val = form(arr, [x] * d)
    for _ in range(CUBE_POLISH_SWEEPS):
        start = val
        for i in range(x.size):
            samples = []
            for t in nodes:
                x[i] = t
                samples.append(form(arr, [x] * d))
            coef = np.polyfit(nodes, samples, d)
            crit = [r.real for r in np.roots(np.polyder(coef))
                    if abs(r.imag) < 1e-12 and -1.0 <= r.real <= 1.0]
            cands = np.array([-1.0, 1.0] + crit)
            x[i] = cands[int(np.argmax(np.polyval(coef, cands)))]
            val = form(arr, [x] * d)
        if val <= start + 1e-13 * abs(val):
            break
    return val


# ---------------------------------------------------------------------------
# corpus assembly
# ---------------------------------------------------------------------------

def _make_op(workdir, name, slot, cmd, dims, ptext, kind, rng) -> tuple[Op, bytes]:
    if cmd in ("solve-hp", "oracle-hp"):
        arr = _supersymmetric(rng, dims[0], len(dims))
    elif kind == "planted":
        arr = _planted_matrix(rng, *dims)
    else:
        arr = rng.standard_normal(dims)
    path = os.path.join(workdir, name + ".json")
    payload = tensor_bytes(arr)
    with open(path, "wb") as fh:
        fh.write(payload)
    shape = "x".join(str(n) for n in dims)
    check_seed = int(rng.integers(1 << 31))
    if cmd == "symmetrize":
        out = os.path.join(workdir, name + ".sym")
        op = Op(label=f"symmetrize {shape}", slot=slot, kind=cmd,
                argv=("symmetrize", path), tensor=arr, p=None,
                reference=None, exact=None, path=path, out=out, check_seed=check_seed)
        return op, payload
    p = parse_p(ptext)
    exact = exact_ml_linf(arr) if p == INF and sum(dims) <= ENUM_GATE else None
    if cmd in ("solve-hp", "oracle-hp"):
        reference = poly_ascent(arr, p, rng)
    else:
        reference = exact if exact is not None else ml_ascent(arr, p, rng)
    if cmd.startswith("oracle"):
        argv = ("oracle", path, "--mode", cmd.split("-")[1], "--p", ptext, "--format", "json")
    else:
        argv = (cmd, path, "--p", ptext, "--format", "json")
    op = Op(label=f"{cmd} {shape} p={ptext}" + (" planted" if kind == "planted" else ""),
            slot=slot, kind=cmd, argv=argv, tensor=arr, p=p, reference=reference, exact=exact,
            path=path, check_seed=check_seed)
    return op, payload


def build_corpus(workload: str, seed: int, workdir: str) -> Corpus:
    """Write the workload's tensor files for ``seed`` and return its operations.

    The same (workload, seed) writes byte-identical files; ``digest`` hashes
    them so callers can compare corpora cheaply.
    """
    if workload not in SCHEDULES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    wid = _WORKLOAD_ID[workload]
    digest = hashlib.sha256()
    ops = []
    for r in range(ROUNDS[workload]):
        for k, slot in enumerate(SCHEDULES[workload]):
            op, payload = _make_op(workdir, f"r{r}-{k:02d}", k, *slot[r % len(slot)],
                                   _rng(seed, wid, r, k))
            digest.update(payload)
            ops.append(op)
    warm, _ = _make_op(workdir, "warmup", -1, *WARMUP[workload], _rng(seed, wid, 1 << 20))
    return Corpus(workload=workload, why=WHY[workload], ops=tuple(ops), warmup=warm,
                  digest=digest.hexdigest())
