"""The concrete q-expansions: theta series, Eisenstein series, eta
products, the class number generating series, and the weight-2 newform
of level 49 as a CM theta series."""

from fractions import Fraction
from math import gcd

import pytest

import oracles
from qrel import cli, forms
from qrel.arith import kronecker_character
from qrel.classnum import hurwitz


class TestTheta:
    def test_classical(self):
        th = forms.theta_classical(30)
        assert th.coeff(0) == 1
        for n in range(1, 31):
            assert th.coeff(n) == (2 if round(n ** 0.5) ** 2 == n else 0)

    def test_half_weight_twisted(self):
        chi = kronecker_character(5)
        th = forms.theta_half(1, chi, 50)
        # sum chi(n) q^{n^2} over n in Z: coefficient 2*chi(m) at m^2
        assert th.coeff(0) == 0
        assert th.coeff(1) == 2 and th.coeff(4) == -2
        assert th.coeff(9) == -2 and th.coeff(16) == 2 and th.coeff(25) == 0

    def test_three_half_weight(self):
        chi = kronecker_character(-4)
        th = forms.theta_three_half(1, chi, 50)
        # sum n chi(n) q^{n^2}: odd chi makes the two signs add
        assert th.coeff(1) == 2 and th.coeff(9) == -6 and th.coeff(25) == 10
        assert th.coeff(4) == 0

    def test_congruence_theta(self):
        th = forms.theta_congruence(5, 0, 120)
        assert th.coeff(0) == 1 and th.coeff(25) == 2 and th.coeff(100) == 2
        assert th.coeff(1) == 0
        th1 = forms.theta_congruence(5, 1, 120)
        # single residue class 1 mod 5, summed over n in Z: n in {..,-4,1,6,..}
        assert th1.coeff(0) == 0
        assert th1.coeff(1) == 1 and th1.coeff(16) == 1 and th1.coeff(36) == 1
        assert th1.coeff(4) == 0

    def test_scaled_exponent(self):
        th = forms.theta_half(3, kronecker_character(1), 50)
        assert th.coeff(3) == 2 and th.coeff(12) == 2 and th.coeff(1) == 0


class TestSeries:
    def test_hurwitz_series(self):
        H = forms.hurwitz_series(60)
        assert H.coeff(0) == Fraction(-1, 12)
        for n in (3, 4, 23, 47, 60):
            assert H.coeff(n) == hurwitz(n)

    def test_eisenstein_g2(self):
        g2 = forms.eisenstein_g2(10)
        assert g2.coeff(0) == Fraction(-1, 24)
        assert [g2.coeff(n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]

    def test_delta12(self):
        tau = forms.delta12(10)
        assert [tau.coeff(n) for n in range(1, 7)] == \
            [1, -24, 252, -1472, 4830, -6048]

    def test_eta2_pow12(self):
        f = forms.eta2_pow12(12)
        assert f.coeff(1) == 1 and f.coeff(3) == -12
        assert f.coeff(5) == 54 and f.coeff(7) == -88 and f.coeff(9) == -99
        assert all(f.coeff(n) == 0 for n in range(0, 12, 2))


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


class TestHeckeMultiplicativity:
    """Delta and eta(2 tau)^12 are Hecke eigenforms, so their coefficients
    are multiplicative with a(p^2) = a(p)^2 - p^(k-1).  Checked on the full
    series the benchmark builds; nothing here uses the dict product."""

    def test_delta12(self):
        T = 3000
        tau = forms.delta12(T)
        for m in range(2, T // 2 + 1):
            for n in range(2, T // m + 1):
                if gcd(m, n) == 1:
                    assert tau.coeff(m * n) == tau.coeff(m) * tau.coeff(n), (m, n)
        for p in _primes(54):
            assert tau.coeff(p * p) == tau.coeff(p) ** 2 - p ** 11, p

    def test_eta2_pow12(self):
        T = 8000
        f = forms.eta2_pow12(T)
        assert f.coeff(1) == 1
        assert all(f.coeff(n) == 0 for n in range(0, T + 1, 2))
        for m in range(3, T // 3 + 1, 2):
            for n in range(3, T // m + 1, 2):
                if gcd(m, n) == 1:
                    assert f.coeff(m * n) == f.coeff(m) * f.coeff(n), (m, n)
        for p in _primes(89)[1:]:
            assert f.coeff(p * p) == f.coeff(p) ** 2 - p ** 5, p


class TestG7:
    def test_support_policy(self):
        # indices supported on primes >= 5 and != 7
        sup = forms.g7_support(30)
        assert sup == [1, 5, 11, 13, 17, 19, 23, 25, 29]
        # the per-prime definition it replaces
        for T in (1, 2, 41, 42, 43, 3000):
            assert forms.g7_support(T) == \
                [n for n in range(1, T + 1) if all(n % p for p in (2, 3, 7))]

    def test_values(self):
        g = forms.g7(130)
        assert g.coeff(1) == 1 and g.coeff(5) == 0
        assert g.coeff(11) == 4 and g.coeff(23) == 8
        assert g.coeff(25) == -5 and g.coeff(121) == 5
        assert g.coeff(55) == 0

    def test_undefined_index_raises(self):
        g = forms.g7(130)
        with pytest.raises(KeyError):
            g.coeff(2)
        with pytest.raises(KeyError):
            g.coeff(7)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="at least 1"):
            forms.g7(0)

    @pytest.mark.parametrize("T", [1, 2, 130, 3000])
    def test_matches_point_counts(self, T):
        # the CM theta series against point counts plus the Hecke recursion
        got, want = forms.g7(T), oracles.g7_point_counts(T)
        assert (got.coeffs, got.defined, got.trunc) == \
            (want.coeffs, want.defined, want.trunc)

    def test_theta_product_is_even(self):
        # g7 halves theta_{3/2}(chi_7) theta|V(7) with no remainder
        T = 3000
        product = (forms.theta_three_half(1, kronecker_character(7), T)
                   * forms.theta_classical(-(-T // 7)).v_op(7).truncate(T))
        assert product.coeffs and all(c % 2 == 0 for c in product.coeffs.values())


class TestCatalog:
    """The forms builders behind the series ids, through the one resolver."""

    def test_ids(self):
        assert cli.build_series("H", 10).coeff(3) == Fraction(1, 3)
        assert cli.build_series("theta", 10).coeff(4) == 2
        assert cli.build_series("G2", 10).coeff(1) == 1
        assert cli.build_series("Delta", 10).coeff(2) == -24
        assert cli.build_series("eta2_12", 10).coeff(3) == -12
        assert cli.build_series("theta_half:1:5", 10).coeff(1) == 2
        assert cli.build_series("theta32:1:-4", 10).coeff(9) == -6
        assert cli.build_series("theta_pa:5:0", 30).coeff(25) == 2
        assert cli.build_series("g7", 30).coeff(11) == 4

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            cli.build_series("nosuch", 10)
