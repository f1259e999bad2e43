"""Number-theoretic kernels: divisor sums, Hurwitz class numbers and
their cache, Dirichlet characters; and the point counts of the curve
49a1 against its newform qrel.forms.g7."""

import os
import tracemalloc
from array import array
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (class_number_decomposition, ec_ap, hecke_extend,
                     hurwitz_oracle, reduced_forms)
from qrel import forms
from qrel.arith import (divisor_sieve, divisors, jacobi_symbol,
                        kronecker_character, lambda_k, pair_sieve,
                        residue_class_sieve, sigma_k, _primes_upto)
from qrel.classnum import HurwitzCache, hurwitz, hurwitz_cache


def lambda_k_pa(n: int, k: int, p: int, a: int) -> int:
    """Oracle for residue_class_sieve, by trial division: the sum of d^k
    over the divisors d <= sqrt(n) with d = -a (mod p), plus those
    d < sqrt(n) with d = a (mod p).  Note the asymmetry: the first sum
    allows d = sqrt(n), the second does not."""
    total = 0
    for d in divisors(n):
        if d * d > n:
            break
        if d % p == (-a) % p:
            total += d ** k
        if d * d < n and d % p == a % p:
            total += d ** k
    return total


class TestDivisorSums:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]

    def test_sigma(self):
        assert sigma_k(6, 1) == 12
        assert sigma_k(4, 3) == 1 + 8 + 64

    def test_lambda_k(self):
        # lambda_k(n) = (1/2) sum_{d|n} min(d, n/d)^k
        assert lambda_k(1, 1) == Fraction(1, 2)
        assert lambda_k(6, 1) == Fraction(1 + 2 + 2 + 1, 2)
        assert lambda_k(4, 1) == Fraction(1 + 2 + 1, 2)
        assert lambda_k(9, 3) == Fraction(1 + 27 + 1, 2)

    def test_lambda_k_pa(self):
        # divisors d <= sqrt(n) with d = -a (p), plus d < sqrt(n) with d = a (p)
        assert lambda_k_pa(6, 1, 5, 1) == 1          # d=1 < sqrt 6 with d = 1 (5)
        assert lambda_k_pa(6, 1, 5, 4) == 1          # d=1 <= sqrt 6 with d = -4 (5)
        assert lambda_k_pa(4, 1, 5, 2) == 0          # no divisor fits either class
        assert lambda_k_pa(12, 1, 5, 2) == 3 + 2     # d=3 = -2 (5); d=2 = 2 (5)
        assert lambda_k_pa(1, 1, 1, 0) == 2 * lambda_k(1, 1)

    def test_lambda_p1_a0_doubles(self):
        for n in (1, 4, 6, 12, 36):
            assert lambda_k_pa(n, 1, 1, 0) == 2 * lambda_k(n, 1)

    def test_residue_class_sieve_matches_oracle(self):
        for p in (1, 3, 5, 7, 11):
            for a in range(p):
                for k in (1, 3, 5):
                    lam = residue_class_sieve(3000, k, p, a)
                    assert len(lam) == 3001 and lam[0] == 0
                    for n in range(1, 3001):
                        assert lam[n] == lambda_k_pa(n, k, p, a), (p, a, k, n)

    def test_residue_class_sieve_edges(self):
        assert residue_class_sieve(0, 1, 5, 1) == [0]
        assert residue_class_sieve(1, 1, 1, 0) == [0, 1]   # d = 1 = sqrt(1), once
        assert residue_class_sieve(1, 1, 5, 4) == [0, 1]   # 1 = -4 (5) allows d = sqrt(1)
        assert residue_class_sieve(1, 1, 5, 1) == [0, 0]   # 1 = +1 (5) needs d < sqrt(1)
        # at n = d^2, d counts only in the class -a; for a = 0 both classes
        # are one, so d < sqrt(n) counts twice
        lam, mirror = residue_class_sieve(60, 3, 7, 3), residue_class_sieve(60, 3, 7, 4)
        assert (lam[16], lam[9], lam[12], lam[20]) == (4 ** 3, 0, 3 ** 3, 4 ** 3)
        assert (mirror[16], mirror[9]) == (0, 3 ** 3)
        zero = residue_class_sieve(60, 3, 7, 0)
        assert (zero[49], zero[56]) == (7 ** 3, 2 * 7 ** 3)

    @settings(max_examples=200, deadline=None)
    @given(max_n=st.integers(0, 3000), k=st.integers(0, 5),
           p=st.sampled_from((1, 3, 5, 7, 11)), a=st.integers(0, 10))
    def test_residue_class_sieve_matches_former_loop(self, max_n, k, p, a):
        assert (residue_class_sieve(max_n, k, p, a % p)
                == oracles.residue_class_sieve(max_n, k, p, a % p))

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 4), unit=st.sampled_from((1, 2, 3)),
           lo=st.integers(0, 150), span=st.integers(-2, 300),
           table=st.lists(st.integers(-3, 3), min_size=144, max_size=144))
    def test_pair_sieve_matches_pairs(self, k, unit, lo, span, table):
        # the weight of (d, f) is d times table[d mod 12][f mod period],
        # zero where unit does not divide d f: periodic in f, as unit | period
        period = k * unit

        def weight(d, f):
            return d * table[12 * (d % 12) + f % period] if d * f % unit == 0 else 0

        def classes():      # every class of every d, a few past the last
            for d in range(1, isqrt(unit * max(hi, 0)) + 3):
                least = max(d + 1, -(-unit * lo // d))
                for f in range(least, least + period):
                    yield d, f, weight(d, f)

        hi = lo + span
        got = pair_sieve(hi, classes(), period, lo, unit)
        want = [sum(weight(d, unit * r // d) for d in range(1, unit * r)
                    if unit * r % d == 0 and d * d < unit * r)
                for r in range(lo, hi + 1)]
        assert got == want

    @pytest.mark.parametrize("p, a", [(0, 0), (2, 1), (9, 1), (5, 5), (5, -1)])
    def test_residue_class_sieve_rejects_bad_class(self, p, a):
        with pytest.raises(ValueError):
            residue_class_sieve(10, 1, p, a)

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 11])
    def test_sieve_matches_trial_division(self, k):
        # sigma_1 from divisor_sieve, and 2*lambda_k as the residue class
        # sum at p = 1: every d <= sqrt(n), the ones below it twice
        sigma, lam = divisor_sieve(5000), residue_class_sieve(5000, k, 1, 0)
        assert sigma[0] == lam[0] == 0
        for n in range(1, 5001):
            assert sigma[n] == sigma_k(n, 1), n
            assert Fraction(lam[n], 2) == lambda_k(n, k), n


class TestHurwitz:
    KNOWN = {0: Fraction(-1, 12), 1: 0, 2: 0, 3: Fraction(1, 3),
             4: Fraction(1, 2), 7: 1, 8: 1, 11: 1, 12: Fraction(4, 3),
             15: 2, 16: Fraction(3, 2), 23: 3, 27: Fraction(4, 3), 63: 5}

    def test_known_values(self):
        for n, v in self.KNOWN.items():
            assert hurwitz(n) == v, n

    def test_vanishing_congruence_classes(self):
        for n in range(1, 100):
            if n % 4 in (1, 2):
                assert hurwitz(n) == 0

    def test_negative_argument_is_zero(self):
        assert hurwitz(-3) == 0

    def test_reduced_forms(self):
        # discriminant -23: the three classes (1,1,6), (2,+-1,3)
        assert sorted(reduced_forms(23)) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
        assert reduced_forms(3) == [(1, 1, 1)]

    def test_oracle_matches_bulk_fill(self):
        table = hurwitz_cache().scaled_table(4000)
        for n in list(range(0, 3001)) + [4000]:
            assert Fraction(table[n], 12) == hurwitz_oracle(n), n
            assert hurwitz(n) == hurwitz_oracle(n), n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=20000))
    def test_oracle_matches_bulk_fill_large(self, n):
        table = hurwitz_cache().scaled_table(20000)
        assert Fraction(table[n], 12) == hurwitz_oracle(n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=3000))
    def test_primitive_decomposition(self, n):
        # H(n) = sum over f^2 | n of the weighted primitive class numbers
        # of discriminant -n/f^2: an oracle independent of the fill.
        assert class_number_decomposition(n) == hurwitz(n)

    def test_table_units(self):
        # 12*H: -1 at 0, 4 for (1,1,1), 6 for (1,0,1), 12 per plain form
        table = hurwitz_cache().scaled_table(23)
        assert [table[n] for n in (0, 1, 3, 4, 7, 23)] == [-1, 0, 4, 6, 12, 36]

    def test_table_is_a_4_byte_array(self):
        hurwitz_cache().ensure(9000)
        table = hurwitz_cache()._table
        assert isinstance(table, array) and table.itemsize == 4
        assert HurwitzCache()._table == array("i", [-1])

    def test_fill_matches_sweep(self):
        # every max_n to 1000: each class ends at every place relative to
        # the starts 4a(a + 1) of the periodic tiles, a <= 15, and below
        # n = 3 the class n = 3 (mod 4) is empty
        cache = HurwitzCache()
        for max_n in range(1001):
            cache._bulk_fill(max_n)
            assert cache._table == oracles.hurwitz_sweep(max_n), max_n

    @pytest.mark.parametrize("max_n", [16000, 200000])
    def test_fill_matches_sweep_large(self, max_n):
        cache = HurwitzCache()
        cache._bulk_fill(max_n)
        assert cache._table == oracles.hurwitz_sweep(max_n)

    def test_growth_matches_one_fill(self):
        grown = HurwitzCache()
        for n in (23, 512, 1024, 9000):
            grown.scaled_table(n)
        direct = HurwitzCache()
        direct.ensure(9000)
        assert grown._max == direct._max == 9000
        assert grown._table == direct._table == oracles.hurwitz_sweep(9000)

    @staticmethod
    def slot_bound(max_n: int) -> int:
        # at most one form per (a, +-b), a <= A, and 24 per a
        top = isqrt(max_n // 3)
        return 12 * top * (top + 1)

    def test_entries_within_slot_bound(self):
        table = hurwitz_cache().scaled_table(2000)
        peak = -1
        for n in range(2001):
            peak = max(peak, table[n])
            assert peak <= self.slot_bound(n), n
        cache = HurwitzCache()
        cache.ensure(200000)
        assert max(cache._table) <= self.slot_bound(200000)

    def test_unrepresentable_range_raises_before_filling(self):
        # the first max_n whose bound needs 32 bits, and far past it
        top = next(a for a in range(13000, 14000) if self.slot_bound(3 * a * a) >> 31)
        for max_n in (3 * top * top, 10 ** 12):
            cache = HurwitzCache()
            with pytest.raises(OverflowError):
                cache.ensure(max_n)
            assert cache._max == 0 and cache._table == array("i", [-1])
        assert self.slot_bound(3 * top * top - 1) < 2 ** 31

    def test_fill_traced_peak(self):
        # no per-n list: a fill to 2*10^5 peaked at 1.99 MiB traced, the
        # former sweep's list at 5.27 MiB
        cache = HurwitzCache()
        tracemalloc.start()
        try:
            cache.ensure(200000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    def test_scaled_table_grows_geometrically(self):
        # A caller walking up n refills O(log n) times, not at every step.
        cache = HurwitzCache()
        assert len(cache.scaled_table(600)) == 601
        assert len(cache.scaled_table(700)) == 1201
        assert len(cache.scaled_table(1300)) == 2401

    def test_cache_roundtrip(self, tmp_path):
        # every line of the written CSV reads back as the class number
        cache = HurwitzCache()
        cache.ensure(50)
        path = cache.save(str(tmp_path / "hurwitz.csv"))
        lines = open(path).read().splitlines()
        assert lines[0] == "0,-1,12" and "23,3,1" in lines
        rows = [tuple(map(int, line.split(","))) for line in lines]
        assert [n for n, _, _ in rows] == [n for n in range(51)
                                           if n == 0 or n % 4 in (0, 3)]
        assert all(Fraction(num, den) == hurwitz_oracle(n)
                   for n, num, den in rows)

    def test_save_replaces_atomically(self, tmp_path):
        cache = HurwitzCache()
        cache.ensure(30)
        target = str(tmp_path / "hurwitz.csv")
        cache.save(target)
        cache.ensure(60)
        path = cache.save(target)
        assert os.listdir(tmp_path) == ["hurwitz.csv"]
        assert open(path).read().splitlines()[-1] == "60,4,1"

    def test_build_idempotent(self, tmp_path):
        # the file written for max_n does not depend on how far the table
        # was filled before
        cache = HurwitzCache()
        target = str(tmp_path / "hurwitz.csv")
        cache.ensure(40)
        first = open(cache.save(target, 40)).read()
        cache.ensure(8000)
        second = open(cache.save(target, 40)).read()
        assert first == second

    def test_save_fills_to_max_n(self, tmp_path):
        # a fresh cache writes the whole range asked for, not only row 0
        filled = HurwitzCache()
        filled.ensure(600)
        want = open(filled.save(str(tmp_path / "filled.csv"), 50)).read()
        fresh = open(HurwitzCache().save(str(tmp_path / "fresh.csv"), 50)).read()
        assert fresh == want and len(want.splitlines()) == 25

    def test_env_cache_dir_respected(self):
        assert hurwitz_cache()._path().startswith(os.environ["QREL_CACHE_DIR"])


class TestCharacters:
    def test_jacobi(self):
        assert jacobi_symbol(2, 15) == 1
        assert jacobi_symbol(7, 15) == -1
        assert jacobi_symbol(15, 15) == 0
        # multiplicativity in the top argument
        for n in (9, 15, 21):
            for a in range(1, 20):
                for b in range(1, 20):
                    assert jacobi_symbol(a * b, n) == \
                        jacobi_symbol(a, n) * jacobi_symbol(b, n)

    def test_legendre(self):
        # at a prime modulus the Jacobi symbol is the Legendre symbol:
        # 1 on the nonzero squares, -1 on the non-residues
        assert sorted(a for a in range(1, 7) if jacobi_symbol(a, 7) == 1) == [1, 2, 4]
        for p in (5, 7, 11, 13, 101):
            squares = {x * x % p for x in range(1, p)}
            assert all(jacobi_symbol(a, p) == (1 if a in squares else -1)
                       for a in range(1, p))

    def test_kronecker_character_5(self):
        chi = kronecker_character(5)
        assert chi.modulus == 5 and chi.is_even
        assert [chi(n) for n in range(5)] == [0, 1, -1, -1, 1]

    def test_kronecker_character_minus4(self):
        chi = kronecker_character(-4)
        assert chi.modulus == 4 and chi.is_odd
        assert [chi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]

    def test_trivial_character(self):
        chi = kronecker_character(1)
        assert chi.modulus == 1 and chi.is_even
        assert all(chi(n) == 1 for n in range(-3, 10))

    def test_character_product(self):
        # chi(mn) = chi(m) chi(n): every character here is completely
        # multiplicative
        for d in (-4, 5, 7):
            chi = kronecker_character(d)
            assert all(chi(m * n) == chi(m) * chi(n)
                       for m in range(-15, 16) for n in range(-15, 16))

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_periodicity(self, n):
        chi = kronecker_character(7)
        assert chi(n) == chi(n % 7)


class TestEllipticCurve:
    """y^2 = x^3 - 2835 x - 71442 (49a1): conductor 49, CM by Q(sqrt(-7)).
    Its newform qrel.forms.g7 is the curve's CM theta series; the point
    counts and the Hecke recursion are the oracle (tests/oracles.py)."""
    A4, A6 = oracles.G7_A4, oracles.G7_A6

    def test_point_counts(self):
        g = forms.g7(30)
        got = {p: g.coeff(p) for p in (5, 11, 13, 23, 29)}
        assert got == {5: 0, 11: 4, 13: 0, 23: 8, 29: 2}
        assert got == {p: ec_ap(self.A4, self.A6, p) for p in got}

    def test_cm_vanishing(self):
        # supersingular/inert primes (non-residues mod 7) give a_p = 0
        g = forms.g7(50)
        for p in (5, 13, 17, 19, 41, 47):
            assert jacobi_symbol(p, 7) == -1
            assert g.coeff(p) == 0

    def test_matches_jacobi_oracle(self):
        g = forms.g7(2000)
        for p in _primes_upto(2000):
            if p >= 5 and p != 7:
                assert g.coeff(p) == ec_ap(self.A4, self.A6, p), p

    @pytest.mark.parametrize("p", [-7, 0, 1, 2, 3, 4, 9, 25, 1001])
    def test_rejects_small_or_composite_p(self, p):
        with pytest.raises(ValueError, match="need a prime p >= 5"):
            ec_ap(self.A4, self.A6, p)

    def test_rejects_bad_reduction(self):
        with pytest.raises(ValueError, match="bad reduction at 7"):
            ec_ap(self.A4, self.A6, 7)
        with pytest.raises(ValueError, match="bad reduction at 5"):
            ec_ap(0, 5, 5)

    def test_hasse_bound(self):
        g = forms.g7(53)
        for p in (5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            assert g.coeff(p) ** 2 <= 4 * p

    def test_hecke_extend(self):
        ap = {11: 4, 5: 0, 23: 8, 29: 2, 13: 0}
        a = hecke_extend(ap, T=130).coeff
        assert a(1) == 1
        assert a(25) == 0 ** 2 - 5          # a_{p^2} = a_p^2 - p
        assert a(121) == 4 ** 2 - 11
        assert a(55) == a(5) * a(11)        # multiplicativity
        assert a(115) == a(5) * a(23)
        assert a(2) == a(14) == 0           # outside the span of ap's primes
