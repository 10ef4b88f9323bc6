from fractions import Fraction

import numpy as np
import pytest

from lpmax.errors import DomainError, ShapeError
from lpmax.validation import (
    INF,
    as_matrix,
    as_vector,
    check_p,
    conjugate_exponent,
    lp_norm,
    parse_exponent,
)


def test_check_p_accepts_open_interval():
    assert check_p(2.5) == 2.5
    assert check_p(INF) == INF
    assert check_p("inf") == INF
    assert check_p("5/2") == 2.5


@pytest.mark.parametrize("p", [2.0, 1.5, 1.0, 0.0, -3.0])
def test_check_p_rejects_low(p):
    with pytest.raises(DomainError):
        check_p(p)


def test_check_p_allow_low_admits_two():
    assert check_p(2.0, allow_low=True) == 2.0
    with pytest.raises(DomainError):
        check_p(1.99, allow_low=True)


def test_check_p_rejects_nan():
    with pytest.raises(DomainError):
        check_p(float("nan"))


def test_parse_exponent():
    assert parse_exponent("inf") == INF
    assert parse_exponent("Infinity") == INF
    assert parse_exponent("3") == Fraction(3)
    assert parse_exponent("7/2") == Fraction(7, 2)
    assert parse_exponent("2.5") == Fraction(5, 2)
    with pytest.raises(ValueError):
        parse_exponent("seven")
    with pytest.raises(ValueError):
        parse_exponent("1/0")


def test_conjugate_exponent_exact():
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(Fraction(3)) == 1.5
    # rational arithmetic inside, so the float out is correctly rounded
    assert conjugate_exponent(Fraction(4)) == float(Fraction(4, 3))
    assert conjugate_exponent("3") == 1.5
    with pytest.raises(DomainError):
        conjugate_exponent(1.0)


def test_holder_pairing_identity():
    # 1/p + 1/q = 1 holds exactly for rationals
    for p in (Fraction(5, 2), Fraction(3), Fraction(4), Fraction(7, 3)):
        q = Fraction(conjugate_exponent(p)).limit_denominator(10**6)
        assert Fraction(1, 1) == 1 / p + 1 / q


def test_lp_norm_special_cases():
    x = [3.0, -4.0]
    assert lp_norm(x, 1.0) == 7.0
    assert lp_norm(x, 2.0) == 5.0
    assert lp_norm(x, INF) == 4.0
    assert lp_norm([], INF) == 0.0
    assert np.isclose(lp_norm(x, 3.0), (27 + 64) ** (1 / 3))


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 7.0])
def test_lp_norm_is_scale_safe(p):
    # lp_norm is row_norms of one row: a power sum that under- or overflows is taken
    # over x / max|x| instead; every sum inside [smallest normal, inf) keeps its plain bits
    x = np.random.default_rng(71).standard_normal(5)
    plain = lp_norm(x, p)
    assert plain == float((np.sum(np.abs(x) ** p, keepdims=True) ** (1.0 / p))[0])
    for scale in (1e-100, 1e-200, 1e100, 1e200):
        assert lp_norm(scale * x, p) == pytest.approx(scale * plain, rel=1e-12)
    assert lp_norm(np.zeros(3), p) == 0.0
    assert lp_norm([5e-324, 0.0], p) == 5e-324


def test_as_vector_and_matrix_guards():
    assert as_vector([1, 2, 3]).shape == (3,)
    with pytest.raises(ShapeError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        as_vector([1.0, 2.0], n=3)
    with pytest.raises(DomainError):
        as_vector([1.0, np.nan])
    assert as_matrix(np.eye(2)).shape == (2, 2)
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(3))
