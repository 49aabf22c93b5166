from fractions import Fraction

import pytest

from spliths.exact import ComplexRational, QuadraticValue, sqrt_fraction


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(50, 2)) == 5
    with pytest.raises(ValueError):
        sqrt_fraction(Fraction(-1))


def test_complex_rational_field_ops():
    z = ComplexRational(Fraction(1, 2), 3)
    w = ComplexRational(-2, Fraction(1, 3))
    assert (z + w) - w == z
    assert z * w == w * z
    assert (z * w) / w == z
    assert z.conj().conj() == z
    assert (z * z.conj()).im == 0
    assert z.abs_sq() == Fraction(1, 4) + 9
    assert z.times_i() == ComplexRational(-3, Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        z / ComplexRational(0)


def test_quadratic_value_collapses_perfect_squares():
    v = QuadraticValue(1, 2, 9)  # 1 + 2*3
    assert v.is_rational() and v.rational() == 7
    w = QuadraticValue(1, 1, 2)
    assert not w.is_rational()
    assert (w * w) == QuadraticValue(3, 2, 2)  # (1+s2)^2 = 3 + 2 s2
    assert w + w == QuadraticValue(2, 2, 2)
    assert (w - w) == QuadraticValue(0)


def test_quadratic_value_signs():
    assert QuadraticValue(1, 1, 2).sign() == 1
    assert QuadraticValue(-1, 1, 2).sign() == 1   # sqrt(2) > 1
    assert QuadraticValue(-2, 1, 2).sign() == -1
    assert QuadraticValue(0, -1, 3).sign() == -1
    assert QuadraticValue(0).sign() == 0
    # conjugate-root product: (a + sqrt(d))(a - sqrt(d)) = a^2 - d
    v = QuadraticValue(5, 1, 7) * QuadraticValue(5, -1, 7)
    assert v == QuadraticValue(18)


def test_quadratic_value_rejects_mixed_discriminants():
    with pytest.raises(ValueError):
        QuadraticValue(0, 1, 2) + QuadraticValue(0, 1, 3)


def test_quadratic_value_discriminant_is_squarefree():
    assert QuadraticValue(0, 1, 8) == QuadraticValue(0, 2, 2)
    assert hash(QuadraticValue(0, 1, 8)) == hash(QuadraticValue(0, 2, 2))
    v = QuadraticValue(1, 1, 12)
    assert (v.a, v.b, v.disc) == (1, 2, 3)
    # sqrt(1/2) = sqrt(2)/2 and sqrt(9/20) = 3 sqrt(5)/10
    assert QuadraticValue(0, 1, Fraction(1, 2)) == QuadraticValue(
        0, Fraction(1, 2), 2)
    w = QuadraticValue(0, 1, Fraction(9, 20))
    assert (w.b, w.disc) == (Fraction(3, 10), 5)
    # reduced forms share a discriminant, so they combine
    assert QuadraticValue(0, 1, 8) + QuadraticValue(0, 1, 2) == QuadraticValue(
        0, 3, 2)
    # square factors past trial division (a large prime squared) and a
    # squarefree product of two large primes
    big = 1000003
    u = QuadraticValue(0, 1, 2 * big * big)
    assert (u.b, u.disc) == (big, 2)
    assert QuadraticValue(0, 1, big * 1000033).disc == big * 1000033
    assert QuadraticValue(0, 1, 8) != QuadraticValue(0, 1, 2)
    assert QuadraticValue(0, 1, 2) != QuadraticValue(0, 1, 3)


def test_complex_rational_real_hashes_like_fraction():
    assert ComplexRational(3) == 3
    assert hash(ComplexRational(3)) == hash(Fraction(3)) == hash(3)
    half = ComplexRational(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2)}) == 1
    assert len({ComplexRational(3, 1), ComplexRational(3)}) == 2


def test_quadratic_value_rational_hashes_like_fraction():
    assert QuadraticValue(3) == Fraction(3) == 3
    assert hash(QuadraticValue(3)) == hash(Fraction(3)) == hash(3)
    half = QuadraticValue(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2)}) == 1
    # a perfect-square discriminant collapses before hashing
    assert hash(QuadraticValue(1, 2, 9)) == hash(Fraction(7))
    w = QuadraticValue(1, 1, 2)
    assert hash(w - w) == hash(0) and (w - w).disc == 0
