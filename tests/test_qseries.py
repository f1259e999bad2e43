"""Sparse exact q-series: ring operations, the U/V/sieve/twist operators,
serialization, and eta products."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import series_from_csv_lines, symmetric_sum
from qrel import cli, forms, qseries
from qrel.arith import kronecker_character
from qrel.classnum import hurwitz_cache
from qrel.qseries import (MAX_TRUNC, QSeries, ScalarKindError, _dict_mul,
                          _kronecker_mul)
from qrel.scalars import QuadExt
from qrel.slots import _Slots, theta_moments

small_series = st.builds(
    lambda d: QSeries({n: c for n, c in d.items() if c}, 40),
    st.dictionaries(st.integers(min_value=0, max_value=40),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                    max_size=8),
)


def q_poly(*pairs, trunc=40):
    return QSeries(dict(pairs), trunc)


class TestRingOps:
    def test_add_mul(self):
        f = q_poly((0, 1), (1, 2))
        g = q_poly((1, 3))
        assert (f + g).coeff(1) == 5
        assert (f * g).coeff(1) == 3
        assert (f * g).coeff(2) == 6

    def test_pow(self):
        f = q_poly((0, 1), (1, 1))
        assert (f ** 3).coeff(2) == 3
        assert f ** 0 == QSeries.one(40)

    def test_coeff_beyond_truncation_raises(self):
        with pytest.raises(IndexError):
            q_poly((0, 1), trunc=10).coeff(11)

    def test_truncation_above_max_raises(self):
        # the truncation is not lowered to MAX_TRUNC behind the caller's back
        assert QSeries.zero(MAX_TRUNC).trunc == MAX_TRUNC
        with pytest.raises(ValueError, match="truncation order"):
            QSeries({0: 1}, MAX_TRUNC + 1)

    def test_equality_on_common_range(self):
        assert q_poly((3, 5), trunc=10) == q_poly((3, 5), trunc=20)
        assert q_poly((3, 5), trunc=10) != q_poly((3, 6), trunc=20)

    @given(small_series, small_series, small_series)
    @settings(max_examples=40)
    def test_ring_axioms(self, f, g, h):
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f * (g * h) == (f * g) * h

    def test_scalar_kind_mixing(self):
        # rational coefficients embed in any quadratic extension, so the
        # mix is allowed; two different extensions are not
        f = q_poly((1, Fraction(1)))
        g = QSeries({1: QuadExt(0, 1, 2)}, 40)
        assert (f + g).coeff(1) == QuadExt(1, 1, 2)
        h = QSeries({1: QuadExt(0, 1, 3)}, 40)
        with pytest.raises(ScalarKindError):
            g + h
        with pytest.raises(ScalarKindError):
            g * h
        # disjoint supports do not mix either
        with pytest.raises(ScalarKindError):
            g + QSeries({2: QuadExt(0, 1, 3)}, 40)

    def test_rational_sums_do_not_scan(self, monkeypatch):
        # a series derived from a rational one, and a sum or product of two
        # rational series, is known to be rational without a scan
        f, g = q_poly((0, 1), (3, Fraction(1, 2))), q_poly((1, 2), (5, -3))
        assert f.scalar_kind() == g.scalar_kind() == "rational"
        scans = []
        monkeypatch.setattr(qseries, "_scan_kind",
                            lambda coeffs: scans.append(coeffs) or "rational")
        parts = [f + g, f - g, f * g, f.scale(Fraction(2, 3)), f.sieve(3, 0),
                 f.u_op(3), f.v_op(2), f.truncate(4), f.d_operator(), -f]
        total = QSeries.zero(40)
        total._kind = "rational"
        for part in parts:
            total = total + part
        assert scans == [] and total.scalar_kind() == "rational"

    def test_kind_of_a_part_of_an_irrational_series(self):
        # what is left of a QuadExt series may be rational, and then mixes
        # with another radicand as before
        g = QSeries({1: QuadExt(0, 1, 2), 2: 5}, 40)
        assert g.scalar_kind() == "quadext(2)"
        part = g.sieve(2, 0)
        assert part.scalar_kind() == "rational"
        h = QSeries({1: QuadExt(0, 1, 3)}, 40)
        assert (part + h).coeff(2) == 5
        assert g.scale(QuadExt(0, 1, 2)).scalar_kind() == "quadext(2)"


# Rational coefficients for the product kernels: ints up to the slot-width
# edge at 2**200 and fractions whose denominators differ from term to term.
rational = st.one_of(
    st.integers(-9, 9),
    st.integers(-(1 << 200), 1 << 200),
    st.sampled_from([(1 << 200) - 1, -(1 << 200), (1 << 63), -(1 << 63) + 1]),
    st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 60)),
)
rational_map = st.dictionaries(st.integers(0, 60), rational, max_size=25)


def nonzero(coeffs: dict) -> dict:
    return {n: c for n, c in coeffs.items() if c}


class TestProductKernels:
    """The Kronecker kernel against the dict loop, which stays the kernel
    for every non-rational kind and is the oracle here."""

    @given(rational_map, rational_map, st.integers(0, 70))
    @settings(max_examples=300, deadline=None)
    def test_kronecker_matches_dict_loop(self, a, b, t):
        assert _kronecker_mul(a, b, t) == nonzero(_dict_mul(a, b, t))

    @given(rational_map, rational_map, st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_product_matches_dict_loop(self, a, b, ta, tb):
        # unequal truncations; QSeries drops the terms above each one
        f, g = QSeries(a, ta), QSeries(b, tb)
        t = min(ta, tb)
        assert f * g == QSeries(_dict_mul(f.coeffs, g.coeffs, t), t)
        assert (f * g).trunc == t

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 200])
    def test_slot_width_edge(self, k):
        # dense operands whose product coefficients sit at the bound
        # min(nnz)*max|a|*max|b|, for each sign pattern
        t = 40
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a = {n: sa * (1 << k) for n in range(t + 1)}
            b = {n: sb * ((1 << k) - 1) * (-1) ** n for n in range(t + 1)}
            b2 = {n: sb * (1 << k) for n in range(t + 1)}
            for x in (b, b2):
                assert _kronecker_mul(a, x, t) == nonzero(_dict_mul(a, x, t))

    def test_empty_zero_and_one_term(self):
        dense = {n: Fraction(n + 1, 7) - 3 for n in range(31)}
        for t in (0, 1, 30):
            assert _kronecker_mul({}, dense, t) == {}
            assert _kronecker_mul(dense, {}, t) == {}
            assert _kronecker_mul({5: 3}, dense, t) == \
                nonzero(_dict_mul({5: 3}, dense, t))
            assert _kronecker_mul({0: Fraction(-2, 3)}, dense, t) == \
                nonzero(_dict_mul({0: Fraction(-2, 3)}, dense, t))
        assert QSeries.zero(30) * QSeries(dense, 30) == QSeries.zero(30)
        assert _kronecker_mul({0: 4}, {0: -5}, 0) == {0: -20}
        assert _kronecker_mul({3: 4}, {0: 5}, 2) == {}

    def test_sparse_theta_operands(self):
        T = 400
        H = forms.hurwitz_series(T)
        for chi in (1, 5, -4):
            th = (forms.theta_half(1, kronecker_character(chi), T) if chi > 0
                  else forms.theta_three_half(1, kronecker_character(chi), T))
            for f, g in ((th, th), (th, H), (H, th.v_op(3))):
                t = min(f.trunc, g.trunc)
                assert _kronecker_mul(f.coeffs, g.coeffs, t) == \
                    nonzero(_dict_mul(f.coeffs, g.coeffs, t))
                assert f * g == QSeries(_dict_mul(f.coeffs, g.coeffs, t), t)

    @given(rational_map, st.integers(0, 70))
    @settings(max_examples=200, deadline=None)
    def test_square_matches_dict_loop(self, a, t):
        # one map as both operands: packed once and squared
        assert _kronecker_mul(a, a, t) == nonzero(_dict_mul(a, a, t))

    def test_square_empty_and_t0(self):
        assert _kronecker_mul({}, {}, 5) == {}
        a = {0: Fraction(-2, 3), 1: 5, 4: Fraction(1, 7)}
        assert _kronecker_mul(a, a, 0) == {0: Fraction(4, 9)}
        assert _kronecker_mul(a, a, 8) == nonzero(_dict_mul(a, a, 8))

    @given(rational_map, st.integers(0, 9), st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_pow_matches_repeated_dict_products(self, a, m, t):
        f = QSeries(a, t)
        want = {0: 1}
        for _ in range(m):
            want = nonzero(_dict_mul(want, f.coeffs, t))
        assert f ** m == QSeries(want, t)

    def test_quadext_products_unchanged(self):
        r2 = QuadExt(0, 1, 2)
        f = QSeries({0: 1, 1: r2}, 10)
        assert f * f == QSeries({0: 1, 1: 2 * r2, 2: 2}, 10)
        assert (f * f).scalar_kind() == "quadext(2)"
        # a rational factor meets the QuadExt one on the dict loop
        g = QSeries({0: Fraction(1, 2), 3: -1}, 10)
        assert f * g == QSeries({0: Fraction(1, 2), 1: r2 / 2, 3: -1, 4: -r2}, 10)
        assert g * f == f * g


def moments_oracle(table, index, k_max, step, double_s):
    """theta_moments by the per-index sum, with the weight S^(2k) for
    S = 2s when double_s else S = s, scaled back by 4^k."""
    out = []
    for k in range(k_max + 1):
        def weight(s):
            return int(s % step == 0) * ((2 * s if double_s else s) ** (2 * k))
        sums = [symmetric_sum(table, m, weight) for m in index]
        out.append([a // 4 ** k for a in sums] if double_s else sums)
    return out


INDEX_KINDS = ["odd", "four", "all", "single", "four_from_4", "three_mod_4",
               "two_mod_6", "two_mod_3"]


def index_set(kind: str, M: int) -> range:
    # the offset progressions are the index sets the checks use: 4n, and
    # odd m split by residue, plus steps that do not divide 4
    return {"odd": range(1, M + 1, 2), "four": range(0, M + 1, 4),
            "all": range(M + 1), "single": range(M, M + 1),
            "four_from_4": range(4, M + 1, 4), "three_mod_4": range(3, M + 1, 4),
            "two_mod_6": range(2, M + 1, 6), "two_mod_3": range(5, M + 1, 3)}[kind]


# 12 H-like tables: -1 at index 0, signed entries up to the slot-width edge
# near 2^64
table_entries = st.one_of(
    st.integers(-30, 30),
    st.integers(-(1 << 64), 1 << 64),
    st.sampled_from([(1 << 64) - 1, 1 << 64, -(1 << 64), (1 << 63) + 1]))


class TestThetaMoments:
    """theta_moments against the per-index sum it replaces."""

    @given(st.lists(table_entries, max_size=130), st.integers(0, 5),
           st.sampled_from(INDEX_KINDS),
           st.sampled_from([1, 1, 2, 5, 7]), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_symmetric_sum(self, entries, k_max, kind, step,
                                   double_s, data):
        table = [-1] + entries
        M = data.draw(st.integers(0, len(table) - 1))
        index = index_set(kind, M)
        assert theta_moments(table, index, k_max, step) == \
            moments_oracle(table, index, k_max, step, double_s)

    @pytest.mark.parametrize("M", [0, 1, 2, 3, 4, 49, 50, 100, 121])
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_small_and_square_ranges(self, M, kind):
        table = [-1] + [(-1) ** n * (n % 13) for n in range(1, 130)]
        index = index_set(kind, M)
        for k_max in (0, 1, 5):
            assert theta_moments(table, index, k_max) == \
                moments_oracle(table, index, k_max, 1, False)

    @pytest.mark.parametrize("edge", [(1 << 64) - 1, 1 << 64, -(1 << 64)])
    def test_slot_width_edge(self, edge):
        # constant tables: A_k(M) sits at the bound max|table| *
        # (1 + 2 sum s^(2k)) when k = k_max and M is a square
        for M in (0, 1, 16, 49):
            table = [edge] * (M + 1)
            for k_max in range(6):
                got = theta_moments(table, range(M + 1), k_max)
                assert got == moments_oracle(table, range(M + 1), k_max, 1, False)

    @pytest.mark.parametrize("zero", [(), (0,), (1,), (2,), (3,), (1, 2),
                                      (0, 3), (0, 1, 2), (0, 1, 2, 3)])
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_residue_classes_of_zeros(self, zero, kind):
        # the classes m = r (mod 4), r in zero, are all zero (a plus-space
        # table zeroes 1 and 2); every other entry is nonzero
        table = [0 if n % 4 in zero else (-1) ** n * (n % 11 + 1)
                 for n in range(150)]
        for M in (0, 5, 98, 149):
            index = index_set(kind, M)
            for k_max, step in ((0, 1), (3, 1), (2, 2), (1, 3), (0, 5)):
                assert theta_moments(table, index, k_max, step) == \
                    moments_oracle(table, index, k_max, step, False)

    def test_plus_space_table(self):
        # the live 12 H table at the index sets of the checks
        table = hurwitz_cache().scaled_table(2000)
        for index, k_max, step in ((range(1, 2001, 2), 1, 1),
                                   (range(4, 2001, 4), 5, 1),
                                   (range(0, 2001, 4), 0, 5),
                                   (range(0, 2001, 4), 0, 7)):
            assert theta_moments(table, index, k_max, step) == \
                moments_oracle(table, index, k_max, step, False)

    def test_reads_only_up_to_the_last_index(self):
        table = [-1, 3, 0, 4, 6, 0, 0, 12]
        assert theta_moments(table + [10 ** 30] * 5, range(1, 8, 2), 2) == \
            theta_moments(table, range(1, 8, 2), 2)
        with pytest.raises(ValueError, match="table ends at 7"):
            theta_moments(table, range(0, 9, 4), 0)
        assert theta_moments(table, range(0), 2) == [[], [], []]


class TestSlots:
    """The slot codec: every width from 1 byte (the 64-bit word path) to 9
    and more (one slot at a time), at the edge of its bound."""

    @pytest.mark.parametrize("width", list(range(1, 11)) + [17])
    def test_round_trip_at_the_bound(self, width):
        bound = (1 << 8 * width - 1) - 1           # half - 1
        slots = _Slots(bound)
        assert slots.width == width
        assert _Slots(bound + 1).width == width + 1
        values = [bound, -bound, 0, 1, -1, bound - 1, -bound + 1] * 5
        packed = slots.pack_dense(values)
        assert packed == sum(c << 8 * width * n for n, c in enumerate(values))
        n = len(values)
        for index in (range(n), range(3, n), range(1, n, 4), range(7, 30, 3),
                      range(n - 1, n), range(0, 1), range(5, 5)):
            assert slots.unpack(packed, index) == [values[i] for i in index]
        # slots above the last index do not leak into it
        assert slots.unpack(packed + (-bound << 8 * width * n), range(n)) == values

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, width, data):
        bound = (1 << 8 * width - 1) - 1
        values = data.draw(st.lists(st.integers(-bound, bound), min_size=1,
                                    max_size=40))
        n = len(values)
        start = data.draw(st.integers(0, n))
        step = data.draw(st.integers(1, 5))
        index = range(start, n, step)
        slots = _Slots(bound)
        assert slots.unpack(slots.pack_dense(values), index) == \
            [values[i] for i in index]


class TestOperators:
    def test_d_operator(self):
        f = q_poly((0, 7), (3, 2))
        assert f.d_operator() == q_poly((3, 6))

    def test_u_then_v(self):
        f = q_poly((2, 1), (8, 3), trunc=40)
        assert f.u_op(4) == QSeries({2: 3}, 10)
        assert f.u_op(4).v_op(4) == QSeries({8: 3}, 40)

    @given(small_series)
    @settings(max_examples=40)
    def test_v_then_u_is_identity(self, f):
        assert f.v_op(4).u_op(4) == f

    @given(small_series)
    @settings(max_examples=40)
    def test_sieve_partition(self, f):
        total = QSeries.zero(40)
        for r in range(5):
            total = total + f.sieve(5, r)
        assert total == f

    def test_twist(self):
        f = q_poly((1, 1), (2, 1), (3, 1))
        tw = f.twist(lambda n: n % 2)
        assert tw == q_poly((1, 1), (3, 1))

    def test_truncate(self):
        f = q_poly((1, 1), (30, 2))
        g = f.truncate(10)
        assert g.trunc == 10
        with pytest.raises(IndexError):
            g.coeff(30)

    def test_scalar_on_the_right_only_and_unhashable(self):
        f = q_poly((1, 1), (3, 2))
        assert f * 3 == q_poly((1, 3), (3, 6))
        with pytest.raises(TypeError):
            3 * f
        with pytest.raises(TypeError):
            hash(f)


def csv_lines(f: QSeries) -> list[str]:
    """The lines the CLI's series writer prints for f in CSV format."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_series("f", f, f.trunc, "csv")
    return out.getvalue().splitlines()


class TestSerialization:
    def test_rational_roundtrip(self):
        f = q_poly((0, Fraction(-1, 12)), (3, Fraction(1, 3)), (23, 3))
        lines = csv_lines(f)
        assert "0,-1,12" in lines and "23,3,1" in lines
        assert series_from_csv_lines(lines, 40) == f

    def test_quadext_roundtrip(self):
        f = QSeries({1: QuadExt(0, 1, 2), 4: QuadExt(Fraction(1, 2), 3, 2)}, 10)
        assert series_from_csv_lines(csv_lines(f), 10) == f

    @given(small_series)
    @settings(max_examples=40)
    def test_roundtrip_property(self, f):
        assert series_from_csv_lines(csv_lines(f), 40) == f


class TestEtaProduct:
    """delta12 = q J^8 and eta2_pow12 = q J(q^2)^4, with Jacobi's J, against
    the Euler-function powers of oracles.eta_product."""

    def test_discriminant_form(self):
        # eta(tau)^24 = q prod (1-q^n)^24: the famous coefficients
        delta = forms.delta12(12)
        assert [delta.coeff(n) for n in range(1, 8)] == \
            [1, -24, 252, -1472, 4830, -6048, -16744]

    def test_eta2_pow12(self):
        f = forms.eta2_pow12(12)
        assert f.coeff(1) == 1 and f.coeff(3) == -12 and f.coeff(5) == 54

    def test_euler_identity(self):
        # prod (1-q^n) has pentagonal-number support with +-1 coefficients
        f = oracles._euler_function(1, 60)
        assert [n for n in range(60) if f.coeff(n)] == \
            [0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51, 57]
        assert all(c in (-1, 1) for c in f.coeffs.values())

    def test_jacobi_cube_first_terms(self):
        # q J(q^d) with J = prod (1 - q^n)^3 = 1 - 3q + 5q^3 - 7q^6 + ...
        assert forms._q_jacobi_power(1, 1, 22).coeffs == \
            {1: 1, 2: -3, 4: 5, 7: -7, 11: 9, 16: -11, 22: 13}
        assert forms._q_jacobi_power(1, 2, 21).coeffs == \
            {1: 1, 3: -3, 7: 5, 13: -7, 21: 9}
        assert forms._q_jacobi_power(1, 3, 0).coeffs == {}
        assert forms._q_jacobi_power(8, 1, 1).coeffs == {1: 1}
        # Jacobi's identity: the helper's J (q J at m = 1, shifted down)
        # is the cube of the pentagonal Euler function
        for T in (0, 1, 2, 7, 40, 299, 3001):
            qj = forms._q_jacobi_power(1, 1, T + 1)
            assert QSeries({n - 1: c for n, c in qj.coeffs.items()}, T) \
                == oracles._euler_function(1, T) ** 3, T

    @pytest.mark.parametrize("T", [*range(61), 100, 299, 400, 3001, 8000])
    def test_matches_euler_power_oracle(self, T):
        for build, factors in ((forms.delta12, [(1, 24)]),
                               (forms.eta2_pow12, [(2, 12)])):
            got = build(T)
            assert got.coeffs == oracles.eta_product(factors, T).coeffs, factors
            assert got.trunc == T
            assert all(type(c) is int for c in got.coeffs.values())

    def test_csv_lines_of_int_coefficients(self):
        f = forms.delta12(30)
        assert all(isinstance(c, int) for c in f.coeffs.values())
        assert csv_lines(f) == [f"{n},{c},1" for n, c in sorted(f.coeffs.items())]

    def test_truncation_errors_unchanged(self):
        for build in (forms.delta12, forms.eta2_pow12):
            for T in (-1, MAX_TRUNC + 1):
                with pytest.raises(ValueError, match="truncation order must be in"):
                    build(T)
