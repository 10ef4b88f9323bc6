"""Seeded random vector generators for the randomized solvers.

Two families are used: Rademacher sign vectors for the p = inf branch, and
"p-Gaussian" vectors with density p * exp(-|t|^p) / (2 * Gamma(1/p)) for
finite p, realized exactly as eps * G^(1/p) with eps a Rademacher sign and
G ~ Gamma(1/p, 1).  The constants below calibrate how many slot candidates a
recursion level draws.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .validation import INF, check_p, lp_norm

MASK64 = (1 << 64) - 1
STREAM_TRIALS = 0x51  # path element of every rounding-trial stream
STREAM_CANDIDATE = 0x52  # path element of every slot-candidate stream

# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's
# 128-bit LCG multiplier: draw_candidates reproduces both bit for bit
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# constants of the randomized sampling analysis, read by sample_count
DELTA0, C0, C1, C2 = 1.0 / 48.0, 1.0 / 72.0, 1.0 / 144.0, 1.0 / 40.0


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for the stream named by (seed, path).

    Streams for distinct paths are statistically independent, and a stream
    does not depend on how many sibling paths exist — this is what makes
    best-of-M values monotone in M under a fixed seed.
    """
    entropy = [int(seed) & MASK64] + [int(k) & MASK64 for k in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample_rademacher(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sign vector in {-1, +1}^n."""
    if n < 1:
        raise DomainError("need n >= 1")
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def sample_pgauss(n: int, p, rng: np.random.Generator):
    """(xi, xi_normalized): i.i.d. p-Gaussian coordinates and their L_p-unit rescaling."""
    if n < 1:
        raise DomainError("need n >= 1")
    pf = check_p(p)
    if pf == INF:
        raise DomainError("p-Gaussian sampling needs finite p; use sample_rademacher")
    eps = sample_rademacher(n, rng)
    g = rng.gamma(1.0 / pf, 1.0, size=n)
    xi = eps * g ** (1.0 / pf)
    nrm = lp_norm(xi, pf)
    xi_normalized = xi / nrm if nrm > 0 else xi.copy()
    return xi, xi_normalized


def _hashmix(value, h: int, mult: int = _MULT_A):
    """SeedSequence's hash of value (an int or a uint32 array) under hash
    constant h; returns the hashed value and the next constant."""
    nxt = h * mult & _M32
    value = (value ^ h) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _seed_words(entropy: list) -> list:
    """The 8 uint32 words SeedSequence(entropy).generate_state(4, uint64) is
    made of, low word first; an entropy word may be a uint32 array, which
    runs one sequence per element."""
    pool, h = [], _INIT_A
    for k in range(4):
        word, h = _hashmix(entropy[k] if k < len(entropy) else 0, h)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[4:]:
        for dst in range(4):
            word, h = _hashmix(extra, h)
            pool[dst] = _mix(pool[dst], word)
    out, h = [], _INIT_B
    for k in range(8):
        word, h = _hashmix(pool[k % 4], h, _MULT_B)
        out.append(word)
    return out


def draw_candidates(seed: int, path: tuple, count: int, n: int, p) -> np.ndarray:
    """(count, n) array whose row i is, bit for bit, the candidate drawn from
    derive_rng(seed, *path, i): sample_rademacher(n, ...) at p = inf and
    sample_pgauss(n, p, ...)[1] at finite p.

    The count seed sequences differ only in their last entropy word, so they
    run as one over uint32 arrays; each PCG64 is then seeded and stepped in
    Python ints.  A sign is the top bit of the next 32-bit half of a PCG64
    output, low half first: numpy's bounded draw for a range of 2.  At finite
    p one Generator, set to each candidate's state after its signs, draws its
    Gamma(1/p, 1) row, and each row's L_p root is a scalar pow, as in lp_norm.
    This reproduces numpy's SeedSequence, PCG64 and bounded-integer algorithms,
    which tests/test_sampler.py checks against derive_rng.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if not 0 <= count <= 1 << 32:  # the index must stay one uint32 entropy word
        raise DomainError("need 0 <= count <= 2^32")
    pf = check_p(p)
    entropy = []
    for k in (seed, *path):
        v = int(k) & MASK64
        entropy += [v & _M32, v >> 32] if v >> 32 else [v]
    words = [w.tolist() for w in _seed_words(entropy + [np.arange(count, dtype=np.uint32)])]
    half = (n + 1) // 2
    outs, states = [], []
    for w in zip(*words):
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = ((w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 | 1) & _M128
        state = ((inc + initstate) * _PCG_MULT + inc) & _M128
        for _ in range(half):
            state = (state * _PCG_MULT + inc) & _M128
            v, r = (state >> 64 ^ state) & MASK64, state >> 122
            outs.append((v >> r | v << (64 - r)) & MASK64)
        states.append((state, inc, outs[-1] >> 32))
    out = np.array(outs, dtype=np.uint64).reshape(count, half)
    bits = np.stack([out >> 31, out >> 63], axis=2).reshape(count, 2 * half)[:, :n] & 1
    eps = bits.astype(np.float64) * 2.0 - 1.0
    if pf == INF:
        return eps
    bitgen = np.random.PCG64(0)  # local, and every row sets its own state
    gen = np.random.Generator(bitgen)
    g = np.empty((count, n))
    for row, (state, inc, upper) in zip(g, states):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": n % 2, "uinteger": upper}
        row[:] = gen.gamma(1.0 / pf, 1.0, size=n)
    xi = eps * g ** (1.0 / pf)
    roots = [t ** (1.0 / pf) for t in np.sum(np.abs(xi) ** pf, axis=1).tolist()]
    return xi / np.array([r if r > 0 else 1.0 for r in roots])[:, None]


def sample_count(n: int, p, max_samples: int | None = None) -> int:
    """Number of slot candidates to draw for a dimension-n slot.

    ceil(2 (ln 2) * n^delta0 / c0) when p = inf, ceil(2 (ln 2) * n^c2 / c1)
    for finite p.  Capped at ``max_samples`` (at least 1) when given; the
    guarantee then holds with reduced probability.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    if max_samples is not None and max_samples < 1:
        raise DomainError(f"max_samples must be at least 1, got {max_samples}")
    pf = check_p(p)
    factor = 2.0 * math.log(2.0)
    if pf == INF:
        m = factor * n ** DELTA0 / C0
    else:
        m = factor * n ** C2 / C1
    count = math.ceil(m)
    return count if max_samples is None else min(count, int(max_samples))
