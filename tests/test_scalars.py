"""Exact scalar arithmetic: rationals extended by a square root, pi
multiples, and the half-integer Gamma helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import falling_gamma_ratio
from qrel.scalars import (PiScalar, QuadExt, as_half_integer, binom_parts,
                          factorial, gamma_half, gamma_half_parts, gen_binom,
                          is_square, squarefree_split)

rationals = st.builds(Fraction, st.integers(min_value=-50, max_value=50),
                      st.integers(min_value=1, max_value=12))
# the half-integers and integers in [-41/2, 41/2]
half_integers = st.builds(Fraction, st.integers(-41, 41), st.just(2))


def frac(n, d=1):
    return Fraction(n, d)


class TestSquarefree:
    def test_split(self):
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(8) == (2, 2)
        assert squarefree_split(12) == (2, 3)
        assert squarefree_split(49) == (7, 1)
        assert squarefree_split(360) == (6, 10)

    def test_split_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squarefree_split(0)

    def test_is_square(self):
        assert [n for n in range(20) if is_square(n)] == [0, 1, 4, 9, 16]
        assert not is_square(-4)

    @given(st.integers(min_value=1, max_value=10000))
    def test_split_roundtrip(self, n):
        f, d = squarefree_split(n)
        assert f * f * d == n
        for p in (2, 3, 5, 7):
            assert d % (p * p) != 0


class TestQuadExt:
    def test_sqrt_of(self):
        assert QuadExt.sqrt_of(2) == QuadExt(0, 1, 2)
        assert QuadExt.sqrt_of(8) == QuadExt(0, 2, 2)
        assert QuadExt.sqrt_of(9) == QuadExt(3, 0, 1)
        assert QuadExt.sqrt_of(2) * QuadExt.sqrt_of(2) == 2

    def test_mixed_arithmetic(self):
        x = QuadExt(1, 2, 5)          # 1 + 2*sqrt(5)
        assert x + 1 == QuadExt(2, 2, 5)
        assert 3 * x == QuadExt(3, 6, 5)
        assert x * x == QuadExt(21, 4, 5)
        assert x - x == 0

    def test_inverse_and_norm(self):
        x = QuadExt(3, 1, 2)
        assert x * x.inverse() == 1
        assert x.norm() == 9 - 2

    def test_pell_unit_norm_one(self):
        eps = QuadExt(3, 2, 2)        # 3 + 2*sqrt(2)
        assert eps.norm() == 1
        assert eps.inverse() == QuadExt(3, -2, 2)

    def test_mismatched_radicands_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            QuadExt(0, 1, 2) + QuadExt(0, 1, 3)

    @given(rationals, rationals, rationals, rationals)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c, d):
        x, y = QuadExt(a, b, 3), QuadExt(c, d, 3)
        assert x * y == y * x
        assert (x + y) * (x - y) == x * x - y * y
        assert x * (y + 1) == x * y + x

    @given(rationals, rationals)
    @settings(max_examples=60)
    def test_norm_multiplicative_and_inverse(self, a, b):
        x = QuadExt(a, b, 7)
        y = QuadExt(2, 1, 7)
        assert (x * y).norm() == x.norm() * y.norm()
        if x != 0:
            assert x * x.inverse() == 1


@pytest.mark.parametrize("x", [QuadExt(7, -5, 2), PiScalar(1, 1)],
                         ids=["QuadExt", "PiScalar"])
@pytest.mark.parametrize("use", [hash, float, lambda x: x < 1,
                                 lambda x: 1 - x, lambda x: 1 / x],
                         ids=["hash", "float", "order", "rsub", "rtruediv"])
def test_no_hash_float_order_or_reflected_division(x, use):
    # none of these is defined, so a use fails loudly
    with pytest.raises(TypeError):
        use(x)


class TestPiScalar:
    def test_construction_and_equality(self):
        assert PiScalar(2, 0) == 2
        assert PiScalar(0, 5) == PiScalar(0, 0)
        assert PiScalar(frac(1, 2), 1) != PiScalar(frac(1, 2), 2)

    def test_multiplication_adds_exponents(self):
        x = PiScalar(2, 1) * PiScalar(3, 1)
        assert x == PiScalar(6, 2)

    def test_addition_same_power(self):
        assert PiScalar(1, 2) + PiScalar(2, 2) == PiScalar(3, 2)

    def test_addition_power_mismatch_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            PiScalar(1, 1) + PiScalar(1, 2)


class TestGammaHelpers:
    def test_half_integer_validation(self):
        assert as_half_integer(frac(3, 2)) == frac(3, 2)
        assert as_half_integer(2) == 2
        with pytest.raises(ValueError):
            as_half_integer(frac(1, 3))

    def test_gen_binom(self):
        assert gen_binom(5, 2) == 10
        assert gen_binom(frac(1, 2), 2) == frac(-1, 8)
        assert gen_binom(frac(-1, 2), 1) == frac(-1, 2)
        assert gen_binom(3, 0) == 1

    def test_pochhammer(self):
        # the rising factorial (a)_n = Gamma(a+n)/Gamma(a)
        assert falling_gamma_ratio(3 + 3, 3) == 3 * 4 * 5
        assert falling_gamma_ratio(frac(1, 2) + 2, 2) == frac(3, 4)
        assert falling_gamma_ratio(7, 0) == 1

    def test_factorial(self):
        assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]

    def test_gamma_half(self):
        assert gamma_half(1) == PiScalar(1, 0)
        assert gamma_half(4) == PiScalar(6, 0)
        assert gamma_half(frac(1, 2)) == PiScalar(1, 1)
        assert gamma_half(frac(3, 2)) == PiScalar(frac(1, 2), 1)
        assert gamma_half(frac(7, 2)) == PiScalar(frac(15, 8), 1)
        # below 1/2 by Gamma(x) = Gamma(x+1)/x
        assert gamma_half(frac(-1, 2)) == PiScalar(-2, 1)
        assert gamma_half(frac(-3, 2)) == PiScalar(frac(4, 3), 1)
        for pole in (0, -1, -4):
            with pytest.raises(ValueError, match="pole"):
                gamma_half(pole)

    def test_falling_gamma_ratio(self):
        # Gamma(x)/Gamma(x - mu) = (x-1)(x-2)...(x-mu)
        assert falling_gamma_ratio(5, 2) == 4 * 3
        assert falling_gamma_ratio(frac(1, 2), 2) == frac(-1, 2) * frac(-3, 2)
        assert falling_gamma_ratio(7, 0) == 1
        # valid across integer poles of the numerator/denominator pair
        assert falling_gamma_ratio(0, 2) == (-1) * (-2)


class TestIntegerKernels:
    """The integer-product kernels against the Fraction loops they
    replaced (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(half_integers, rationals), st.integers(0, 16))
    def test_gen_binom_matches_oracle(self, x, m):
        assert gen_binom(x, m) == oracles.gen_binom(x, m)

    @settings(max_examples=200, deadline=None)
    @given(half_integers.filter(lambda h: h.denominator == 2 or h > 0))
    def test_gamma_half_matches_oracle(self, h):
        got, want = gamma_half(h), oracles.gamma_half(h)
        assert (got.r, got.e) == (want.r, want.e)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-41, 41).filter(lambda m: m % 2 or m > 0))
    def test_gamma_half_parts_matches_oracle(self, m):
        num, den, e = gamma_half_parts(m)
        want = oracles.gamma_half(frac(m, 2))
        assert (frac(num, den), e) == (want.r, want.e)

    def test_binom_parts_unreduced(self):
        # C(1/2, 2) = (1/2)(-1/2)/2 as (1 * -1, 2^2 2!)
        assert binom_parts(1, 2, 2) == (-1, 8)
        assert binom_parts(6, 3, 0) == (1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            binom_parts(1, 2, -1)

    def test_m_zero(self):
        for x in (frac(-41, 2), frac(0), frac(7, 3), frac(41, 2)):
            assert gen_binom(x, 0) == 1 == oracles.gen_binom(x, 0)
            assert falling_gamma_ratio(x, 0) == 1

    def test_results_are_fractions(self):
        assert type(gen_binom(5, 2)) is Fraction
        assert type(gamma_half(frac(-7, 2)).r) is Fraction

    @pytest.mark.parametrize("fn", [gen_binom, oracles.gen_binom,
                                    falling_gamma_ratio])
    def test_negative_index_rejected(self, fn):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(frac(1, 2), -1)

    @pytest.mark.parametrize("pole", [0, -1, -20, frac(-4)])
    def test_gamma_poles_rejected(self, pole):
        for fn in (gamma_half, oracles.gamma_half):
            with pytest.raises(ValueError, match="Gamma pole at"):
                fn(pole)

    def test_gamma_non_half_integer_rejected(self):
        with pytest.raises(ValueError, match="not a half-integer"):
            gamma_half(frac(1, 3))
