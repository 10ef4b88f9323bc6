import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from lpmax.errors import DomainError
from lpmax.sampler import (
    C0,
    C1,
    C2,
    DELTA0,
    MASK64,
    derive_rng,
    draw_candidates,
    sample_count,
    sample_pgauss,
    sample_rademacher,
)
from lpmax.validation import INF, lp_norm


def test_derive_rng_deterministic_and_stream_separated():
    a = derive_rng(7, 1, 2).standard_normal(5)
    b = derive_rng(7, 1, 2).standard_normal(5)
    c = derive_rng(7, 1, 3).standard_normal(5)
    d = derive_rng(8, 1, 2).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_rng_masks_to_64_bits():
    a = derive_rng(1 << 70).standard_normal(3)
    b = derive_rng((1 << 70) & MASK64).standard_normal(3)
    assert np.array_equal(a, b)


def test_sample_rademacher_signs():
    v = sample_rademacher(64, derive_rng(0, 0x51))
    assert v.shape == (64,)
    assert set(np.unique(v)) <= {-1.0, 1.0}
    with pytest.raises(DomainError):
        sample_rademacher(0, derive_rng(0))


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_sample_pgauss_normalization(p):
    xi, unit = sample_pgauss(12, p, derive_rng(3, 0x52))
    assert xi.shape == unit.shape == (12,)
    assert abs(lp_norm(unit, p) - 1.0) <= 1e-12
    assert np.allclose(unit * lp_norm(xi, p), xi)


def test_sample_pgauss_rejects_inf():
    with pytest.raises(DomainError):
        sample_pgauss(4, INF, derive_rng(0))


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_pgauss_pth_moment(p):
    # E|xi|^p = 1/p for the target density
    n = 10**5
    xi, _ = sample_pgauss(n, p, derive_rng(42, int(p * 4)))
    powered = np.abs(xi) ** p
    se = float(np.std(powered)) / math.sqrt(n)
    assert abs(float(np.mean(powered)) - 1.0 / p) <= 3.0 * se


def test_pgauss_sign_symmetry():
    n = 10**5
    xi, _ = sample_pgauss(n, 3.0, derive_rng(11, 0x52))
    se = float(np.std(xi)) / math.sqrt(n)
    assert abs(float(np.mean(xi))) <= 3.0 * se


_BATCH_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**64 + 2**33 + 9)  # last: masked
_BATCH_PATHS = ((), (0x52,), (3, 0x52), (2**40 + 7, 1, 0x52), (2, 2**32), (5, 0, 2**64 + 1))
_BATCH_CASES = [(seed, _BATCH_PATHS[(2 * k + j) % 6], n, (1, 2, 103, 207)[(k + j) % 4])
                for k, (seed, n) in enumerate(itertools.product(_BATCH_SEEDS, (1, 2, 3, 4, 5, 8, 13)))
                for j in range(2)]


@pytest.mark.parametrize("p", [2.5, 3, Fraction(7, 2), 4, 7, INF], ids=str)
def test_batch_rows_equal_their_streams(p):
    # row i of the batch is the candidate of the stream (seed, *path, i), byte for
    # byte; a numpy that changes SeedSequence, PCG64 or its bounded-integer or
    # gamma draws fails here, not in a certificate pin far downstream
    for seed, path, n, count in _BATCH_CASES:
        X = draw_candidates(seed, path, count, n, p)
        assert X.shape == (count, n)
        for i, row in enumerate(X):
            rng = derive_rng(seed, *path, i)
            want = sample_rademacher(n, rng) if p == INF else sample_pgauss(n, p, rng)[1]
            assert row.tobytes() == want.tobytes(), (seed, path, n, count, i)


def test_batch_domain():
    assert draw_candidates(1, (), 0, 3, INF).shape == (0, 3)
    with pytest.raises(DomainError):
        draw_candidates(1, (), 2**32 + 1, 3, INF)  # the index word would widen
    with pytest.raises(DomainError):
        draw_candidates(1, (), 4, 0, 4.0)
    with pytest.raises(DomainError):
        draw_candidates(1, (), 4, 3, 2.0)


def test_sample_count_frozen_values():
    # ceil(2 ln2 * 144 * 16^{1/40}) and friends, computed from the constants
    assert sample_count(16, 4.0, max_samples=None) == 214
    assert sample_count(4, INF, max_samples=None) == 103
    assert sample_count(8, INF, max_samples=None) == 105


def test_sample_count_matches_formula():
    for n in (1, 3, 16, 100):
        want = math.ceil(2.0 * math.log(2.0) * n**C2 / C1)
        assert sample_count(n, 3.0, max_samples=None) == want
        want = math.ceil(2.0 * math.log(2.0) * n**DELTA0 / C0)
        assert sample_count(n, INF, max_samples=None) == want


def test_sample_count_monotone_in_n():
    for p in (3.0, INF):
        counts = [sample_count(n, p, max_samples=None) for n in range(1, 40)]
        assert counts == sorted(counts)


def test_sample_count_cap():
    assert sample_count(16, 4.0, max_samples=100) == 100
    assert sample_count(16, 4.0, max_samples=10**6) == 214
    assert sample_count(16, 4.0, max_samples=1) == 1
    with pytest.raises(DomainError):
        sample_count(0, 4.0)


@pytest.mark.parametrize("cap", [0, -3])
def test_sample_count_rejects_a_cap_below_one(cap):
    # as --max-samples does: a cap below one would silently run one candidate
    with pytest.raises(DomainError):
        sample_count(16, 4.0, max_samples=cap)


def test_success_probability_floor_linf():
    # weak form of the sampling lemma: a Rademacher draw aligns with a fixed
    # direction w at least c0 / n^{delta0} of the time at the stated margin
    n = 50
    w = np.zeros(n)
    w[0] = 1.0
    rng = derive_rng(123, 0x51)
    draws = rng.integers(0, 2, size=(10**5, n)).astype(np.float64) * 2.0 - 1.0
    margin = math.sqrt(DELTA0 * math.log(n) / n) * lp_norm(w, 1.0)
    frac = float(np.mean(draws @ w >= margin))
    floor = C0 / n**DELTA0
    se = math.sqrt(frac * (1.0 - frac) / 10**5)
    assert frac + 3.0 * se >= floor
