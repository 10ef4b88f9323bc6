import itertools
import math

import numpy as np
import pytest

from lpmax import hpopt
from lpmax.config import SolverConfig
from lpmax.errors import (DegenerateInputError, DomainError, LpmaxError,
                          ResourceLimitError, ShapeError)
from lpmax.hpopt import HpCertificate, HpInstance, polarize_even, polarize_odd, solve_hp
from lpmax.tensor import (SYM_TOL, Tensor, contract_all, eval_multilinear, eval_poly,
                          is_supersymmetric)
from lpmax.validation import INF, lp_norm

from supersym import random_supersym


def small_cfg(seed=0, **kw):
    kw.setdefault("trials", 24)
    kw.setdefault("max_samples", 6)
    return SolverConfig(seed=seed, **kw)


def test_instance_validation(rng):
    with pytest.raises(DomainError):
        HpInstance(rng.standard_normal((3, 3, 3)), INF)
    with pytest.raises(DegenerateInputError):
        HpInstance(np.zeros((2, 2)), INF)
    with pytest.raises(ShapeError):
        HpInstance(np.ones(2), INF)
    inst = HpInstance(random_supersym(rng, 2, 3), INF)
    assert inst.tensor.supersymmetric  # revalidated and flagged


def test_instance_symmetrizes_within_tolerance(rng):
    # accepted asymmetry below SYM_TOL must not trip the strict Tensor check
    S = random_supersym(rng, 3, 3)
    S[0, 1, 2] += 1e-10
    assert 1e-10 < SYM_TOL and not is_supersymmetric(S)
    inst = HpInstance(S, INF)
    assert inst.tensor.supersymmetric and is_supersymmetric(inst.tensor.data)
    assert np.allclose(inst.tensor.data, S, atol=1e-10)
    # data that already passes the strict check is kept bit for bit
    T = random_supersym(rng, 3, 3)
    assert np.array_equal(HpInstance(T, INF).tensor.data, T)


def test_polarization_identity(rng):
    # the full signed average over all 2^d patterns recovers d! * F_A exactly
    for d in (3, 4, 5):
        A = random_supersym(rng, 2, d)
        xs = [rng.standard_normal(2) for _ in range(d)]
        total = 0.0
        import itertools

        for beta in itertools.product((1.0, -1.0), repeat=d):
            y = sum(b * x for b, x in zip(beta, xs))
            total += float(np.prod(beta)) * eval_poly(A, y)
        avg = total / 2**d
        want = math.factorial(d) * eval_multilinear(A, xs)
        assert abs(avg - want) <= 1e-10 * (1.0 + abs(want))


def _full_polarize_odd(arr, xs, p):
    # every one of the 2^d sign patterns, with polarize_odd's fallback
    d = arr.ndim
    best_y, best_val = None, -math.inf
    for beta in itertools.product((1.0, -1.0), repeat=d):
        y = float(np.prod(beta)) * sum(b * x for b, x in zip(beta, xs))
        val = contract_all(arr, [y] * d)
        if val > best_val:
            best_y, best_val = y, val
    nrm = lp_norm(best_y, p)
    if nrm == 0.0:
        best_x, best_val = None, -math.inf
        for x in xs:
            n = lp_norm(x, p)
            if n == 0.0:
                continue
            v = contract_all(arr, [x / n] * d)
            if abs(v) > best_val:
                best_x, best_val = np.sign(v) * x / n if v != 0 else x / n, abs(v)
        if best_x is None:
            return np.zeros(arr.shape[0]), 0.0
        return best_x, contract_all(arr, [best_x] * d)
    return best_y / nrm, contract_all(arr, [best_y / nrm] * d)


def _full_polarize_even(arr, xs, p):
    # every one of the 2^d sign patterns with prod beta = 1, then the xs themselves
    d = arr.ndim
    best_x, best_val = None, -math.inf
    for beta in itertools.product((1.0, -1.0), repeat=d):
        if np.prod(beta) != 1.0:
            continue
        x = sum(b * xj for b, xj in zip(beta, xs)) / d
        val = contract_all(arr, [x] * d)
        if val > best_val:
            best_x, best_val = x, val
    for x in xs:
        val = contract_all(arr, [x] * d)
        if val > best_val:
            best_x, best_val = x, val
    nrm = lp_norm(best_x, p)
    if best_val <= 0.0 or nrm == 0.0:
        return np.zeros(arr.shape[0]), 0.0
    return best_x / nrm, contract_all(arr, [best_x / nrm] * d)


@pytest.mark.parametrize("p", [3.0, INF])
def test_polarization_enumerates_half_the_sign_patterns(p):
    # -beta gives the same point (odd d) or its negation, of the same value (even d),
    # and comes later in product order, so half the patterns keep every bit
    rng = np.random.default_rng(5151)
    for d in range(2, 7):
        polarize, full = (polarize_odd, _full_polarize_odd) if d % 2 else \
            (polarize_even, _full_polarize_even)
        for n in range(1, 6):
            A = random_supersym(rng, n, d)
            draws = [rng.standard_normal(n) for _ in range(d)]
            for xs in (draws, [draws[0]] * d, [np.zeros(n)] + draws[1:], [np.zeros(n)] * d,
                       [rng.integers(-1, 2, size=n).astype(float) for _ in range(d)]):
                xs = [x / max(lp_norm(x, p), 1.0) for x in xs]
                for arr in (A, -A):
                    got, want = polarize(arr, xs, p), full(arr, xs, p)
                    assert got[0].tobytes() == want[0].tobytes(), (d, n)
                    assert got[1] == want[1] or (np.isnan(got[1]) and np.isnan(want[1]))


def test_polarize_odd_floor_and_feasibility(rng):
    d = 3
    A = random_supersym(rng, 3, d)
    xs = [rng.standard_normal(3) for _ in range(d)]
    xs = [x / lp_norm(x, INF) for x in xs]
    x_hat, value = polarize_odd(A, xs, INF)
    assert lp_norm(x_hat, INF) <= 1.0 + 1e-12
    # best sign pattern beats the average, which is the polarization identity
    want = math.factorial(d) * d ** (-d) * eval_multilinear(A, xs)
    assert value >= want - 1e-10
    assert value == pytest.approx(eval_poly(A, x_hat), rel=1e-10)


def test_polarize_odd_rejects_even_degree(rng):
    A = random_supersym(rng, 2, 4)
    with pytest.raises(DomainError):
        polarize_odd(A, [np.ones(2)] * 4, INF)


def test_polarize_odd_degenerate_inputs():
    A = np.zeros((2, 2, 2))
    A[0, 0, 0] = 1.0
    A = Tensor(A, supersymmetric=True)
    # cancelling xs still produce a unit-norm certificate via sign enumeration
    xs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 0.0])]
    x_hat, value = polarize_odd(A, xs, INF)
    assert value == pytest.approx(1.0)
    assert lp_norm(x_hat, INF) <= 1.0 + 1e-12
    # f = Re(z^3) is negative at three points that sum to zero: the first
    # combination collapses and wins, and the fallback takes the best -x^j / ||x^j||
    A = np.zeros((2, 2, 2))
    A[0, 0, 0] = 1.0
    A[0, 1, 1] = A[1, 0, 1] = A[1, 1, 0] = -1.0
    s = math.sqrt(0.75)
    xs = [np.array([0.5, s]), np.array([-1.0, 0.0]), np.array([0.5, -s])]
    x_hat, value = polarize_odd(A, xs, 3.0)
    assert np.array_equal(x_hat, -xs[0] / lp_norm(xs[0], 3.0))
    assert value == eval_poly(A, x_hat) > 1.0
    # all-zero xs are the only true collapse; the certificate is the origin
    x_hat, value = polarize_odd(A, [np.zeros(2)] * 3, INF)
    assert value == 0.0
    assert np.array_equal(x_hat, np.zeros(2))


def test_polarize_even_never_negative(rng):
    d = 4
    A = random_supersym(rng, 2, d)
    xs = [rng.standard_normal(2) for _ in range(d)]
    xs = [x / lp_norm(x, 3.0) for x in xs]
    x_hat, value = polarize_even(A, xs, 3.0)
    assert value >= 0.0
    assert lp_norm(x_hat, 3.0) <= 1.0 + 1e-12
    if value > 0.0:
        assert lp_norm(x_hat, 3.0) == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(eval_poly(A, x_hat), rel=1e-10)


def test_polarize_even_negative_form_returns_origin():
    # f(x) = -(x1^2 + x2^2)^... : a negative-definite quartic has optimum 0
    v = np.array([1.0, 0.5])
    A = -np.einsum("i,j,k,l->ijkl", v, v, v, v)
    x_hat, value = polarize_even(A, [v / lp_norm(v, INF)] * 4, INF)
    assert value == 0.0
    assert np.array_equal(x_hat, np.zeros(2))


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e-100, 1e100, 1e200, 1e300])
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_polarizers_are_scale_invariant(p, scale):
    # the certificate is normalized onto the sphere, so scaling the decoupled
    # vectors must not change it, even where their power sums or the values
    # f_A at their combinations under- or overflow
    rng = np.random.default_rng(1717)
    for polarize, d in ((polarize_odd, 3), (polarize_even, 2), (polarize_even, 4),
                        (polarize_odd, 5)):
        B = rng.standard_normal((3, 3))
        if d % 2:
            A = random_supersym(rng, 3, d)
        elif d == 2:
            A = B @ B.T
        else:  # sum_r (B[:, r] . x)^4 is positive, so the origin cannot win
            A = np.einsum("ir,jr,kr,lr->ijkl", B, B, B, B)
        xs = [rng.standard_normal(3) for _ in range(d)]
        xs = [x / lp_norm(x, p) for x in xs]
        x_hat, value = polarize(A, xs, p)
        assert value > 0.0
        got, got_value = polarize(A, [scale * x for x in xs], p)
        assert np.allclose(got, x_hat, rtol=1e-12, atol=0.0)
        assert got_value == pytest.approx(value, rel=1e-12)


def test_polarize_degree_gate(rng):
    d = 21
    with pytest.raises(ResourceLimitError):
        polarize_odd(np.zeros((1,) * d) + 1.0, [np.ones(1)] * d, INF)


@pytest.mark.parametrize("p", [3.0, INF])
def test_solve_hp_odd_recovery(rng, p):
    d = 3
    A = random_supersym(rng, 3, d)
    cert = solve_hp(HpInstance(A, p, small_cfg(seed=1)))
    assert isinstance(cert, HpCertificate)
    assert cert.parity == "odd"
    floor = math.factorial(d) * d ** (-d) * cert.ml_value - 1e-9
    assert cert.value >= floor
    assert lp_norm(cert.x_hat, p) <= 1.0 + 1e-9
    assert cert.value == pytest.approx(eval_poly(A, cert.x_hat), rel=1e-9)


def test_solve_hp_even(rng):
    A = random_supersym(rng, 2, 4)
    cert = solve_hp(HpInstance(A, INF, small_cfg(seed=2)))
    assert cert.parity == "even"
    assert cert.value >= 0.0
    assert lp_norm(cert.x_hat, INF) <= 1.0 + 1e-9


def test_solve_hp_deterministic(rng):
    A = random_supersym(rng, 2, 3)
    a = solve_hp(HpInstance(A, INF, small_cfg(seed=9)))
    b = solve_hp(HpInstance(A, INF, small_cfg(seed=9)))
    assert a.value == b.value
    assert np.array_equal(a.x_hat, b.x_hat)
    assert a.seed == b.seed


def test_solve_hp_known_optimum():
    # f(x) = 3 x1^2 x2 over the sup-ball: optimum 3 at (1, 1) (or (-1, 1))
    A = np.zeros((2, 2, 2))
    A[0, 0, 1] = A[0, 1, 0] = A[1, 0, 0] = 1.0
    cert = solve_hp(HpInstance(A, INF, SolverConfig(seed=0, trials=50, max_samples=8)))
    assert cert.value <= 3.0 + 1e-9
    assert cert.value >= 3.0 * math.factorial(3) * 3 ** (-3) - 1e-9


def test_solve_hp_floor_violation_raises_package_error(rng, monkeypatch):
    # the odd-degree floor is enforced by a check that survives python -O
    monkeypatch.setattr(hpopt, "polarize_odd", lambda A, xs, p: (xs[0], -1.0))
    with pytest.raises(LpmaxError, match="recovery bound"):
        solve_hp(HpInstance(random_supersym(rng, 2, 3), INF, small_cfg()))
