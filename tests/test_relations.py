"""The named relation checks: reduced-range runs, structural invariants
tying them together, and the report plumbing."""

import json
import os
from fractions import Fraction
from math import comb, factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qrel import brackets, holproj
from qrel import congruence as C
from qrel import identities as I
from qrel import relations as R
from qrel.arith import hurwitz, hurwitz_cache, lambda_k, sigma_k
from qrel.qseries import QSeries
from qrel.scalars import PiScalar, QuadExt, format_scalar

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_failures(name: str) -> list[tuple[int, Fraction, Fraction]]:
    """A failure list stored as [id, "p/q", "p/q"] rows in tests/golden."""
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
        return [(n, Fraction(lhs), Fraction(rhs)) for n, lhs, rhs in json.load(f)]


def binomial_even_lhs(nu: int, j: int) -> Fraction:
    """Oracle: the left side of the even binomial identity, as a sum of
    Fractions built from factorials."""
    return sum(Fraction((-1) ** mu) / Fraction(2 * (mu - j) + 1, 2)
               * Fraction(factorial(4 * nu - 2 * mu - 1),
                          factorial(2 * (nu - mu))
                          * factorial(2 * nu - mu - 1) * factorial(mu))
               for mu in range(nu + 1))


def binomial_odd_lhs(nu: int, j: int) -> Fraction:
    """Oracle: the left side of the odd binomial identity, as a sum of
    Fractions built from factorials."""
    return sum(Fraction((-1) ** mu, 2 * (j - mu) + 1)
               * Fraction(factorial(4 * nu - 2 * mu + 1),
                          factorial(2 * (nu - mu) + 1)
                          * factorial(2 * nu - mu) * factorial(mu))
               for mu in range(nu + 1))


def perturb_binom_parts(monkeypatch, at: tuple[int, int, int]):
    """Raise C(p/q, m) by one at (p, q, m) = at in identities.binom_parts,
    and return the same change as a Fraction binomial for the oracles."""
    binom_parts = I.binom_parts

    def perturbed(p, q, m):
        num, den = binom_parts(p, q, m)
        return (num + den, den) if (p, q, m) == at else (num, den)

    def binom(x, m):
        x = Fraction(x)
        return Fraction(*perturbed(x.numerator, x.denominator, m))

    monkeypatch.setattr(I, "binom_parts", perturbed)
    return binom


class TestReports:
    def test_record_and_status(self):
        rep = R.RelationReport("demo", 1, 10, "all n")
        assert rep.status == "partial"           # nothing checked yet
        rep.record(1, Fraction(1), Fraction(1))
        assert rep.status == "pass" and rep.ok
        rep.record(2, Fraction(1), Fraction(2))
        assert rep.status == "fail" and not rep.ok

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    max_size=30), st.integers(1, 48))
    @settings(max_examples=100, deadline=None)
    def test_record_lists_matches_record_scaled(self, pairs, scale):
        ns = range(5, 5 + 2 * len(pairs), 2)
        lhs, rhs = [l for l, _ in pairs], [r for _, r in pairs]
        got = R.RelationReport("demo", 1, 10, "all n", checked=2)
        got.record_lists(ns, lhs, rhs, scale)
        want = R.RelationReport("demo", 1, 10, "all n", checked=2)
        for n, l, r in zip(ns, lhs, rhs):
            oracles.record_scaled(want, n, l, r, scale)
        assert (got.failures, got.checked) == (want.failures, want.checked)

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                              st.integers(-2, 2)), max_size=20),
           st.integers(1, 48))
    @settings(max_examples=100, deadline=None)
    def test_record_best_records_the_fewest_misses(self, triples, scale):
        ns = range(1, 1 + len(triples))
        a, b, rhs = ([t[i] for t in triples] for i in range(3))
        got = R.RelationReport("demo", 1, 10, "all n", checked=1)
        key = got.record_best(ns, {"a": a, "b": b}, rhs, scale)
        misses = {k: sum(u != v for u, v in zip(lhs, rhs))
                  for k, lhs in (("a", a), ("b", b))}
        assert key == ("a" if misses["a"] <= misses["b"] else "b")
        want = R.RelationReport("demo", 1, 10, "all n", checked=1)
        want.record_lists(ns, a if key == "a" else b, rhs, scale)
        assert (got.failures, got.checked) == (want.failures, want.checked)

    def test_record_best_tie_takes_the_first_key(self):
        for order in ((4, 1), (1, 4)):
            rep = R.RelationReport("demo", 1, 10, "all n")
            variants = {r: {4: [1, 0, 3], 1: [1, 2, 0]}[r] for r in order}
            assert rep.record_best(range(3), variants, [1, 2, 3], 6) == order[0]
            assert rep.checked == 3 and len(rep.failures) == 1

    def test_record_lists_lengths_must_agree(self):
        rep = R.RelationReport("demo", 1, 10, "all n")
        with pytest.raises(ValueError, match="same length"):
            rep.record_lists(range(1, 4), [1, 2, 3], [1, 2], 1)
        with pytest.raises(ValueError, match="same length"):
            rep.record_lists([1, 2], [1, 2, 3], [1, 2, 3], 1)
        assert rep.checked == 0 and rep.failures == []

    def test_defaults(self):
        rep = R.RelationReport("demo", 1, 10, "all n")
        assert (rep.relation, rep.lo, rep.hi, rep.policy) == ("demo", 1, 10, "all n")
        assert (rep.failures, rep.elapsed_ms, rep.notes, rep.checked) == ([], 0, "", 0)
        other = R.RelationReport("demo", 1, 10, "all n")
        other.record(1, 0, 1)
        assert rep.failures == [] and rep.ok     # no shared failures list

    def test_fields_given(self):
        rep = R.RelationReport("demo", 0, 0, "p", [(1, 0, 1)], 7, "x", 3)
        assert (rep.failures, rep.elapsed_ms, rep.notes, rep.checked) == (
            [(1, 0, 1)], 7, "x", 3)
        rep = R.RelationReport(relation="demo", lo=2, hi=2, policy="p", checked=1)
        assert rep.status == "pass"

    def test_empty_range_rejected(self):
        # a range that ends below its first index checks nothing, so it is
        # an error rather than a vacuous pass
        with pytest.raises(ValueError, match="at least 2, got 1"):
            R.RelationReport("demo", 2, 1, "all n")
        with pytest.raises(ValueError, match="hap_table"):
            R.check_hap_table(1)

    def test_json_schema(self):
        rep = R.check_eichler(99)
        doc = json.loads(rep.to_json())
        assert set(doc) >= {"relation", "range", "policy", "status",
                            "failures", "elapsed_ms"}
        assert doc["relation"] == "eichler"
        assert doc["range"] == [1, 99]
        assert doc["status"] == "pass"
        assert doc["failures"] == []
        assert isinstance(doc["elapsed_ms"], int)

    def test_failure_serialization(self):
        rep = R.RelationReport("demo", 1, 5, "all n")
        rep.record(3, Fraction(1, 3), Fraction(2, 3))
        rep.record_lists([4, 5], [4, 6], [8, 6], 12)
        doc = rep.to_dict()
        assert doc["failures"] == [{"n": 3, "lhs": "1/3", "rhs": "2/3"},
                                   {"n": 4, "lhs": "1/3", "rhs": "2/3"}]
        assert rep.checked == 3

    def test_format_scalar(self):
        assert format_scalar(Fraction(-1, 12)) == "-1/12"
        assert format_scalar(3) == "3/1"
        assert format_scalar(QuadExt(Fraction(1, 2), 2, 5)) == "1/2+2/1*sqrt(5)"
        assert format_scalar(QuadExt(0, -3, 2)) == "0/1-3/1*sqrt(2)"


class TestRegistry:
    def test_ids_stable(self):
        ids = R.relation_ids()
        assert ids[0] == "eichler"
        assert set(ids) >= {"eichler", "cohen", "kronecker_hurwitz",
                            "hap_table", "cor_i", "cor_ii", "prop72",
                            "identities"}

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            R.run_check("nosuch")

    def test_default_range_is_the_signature_default(self):
        assert R.run_check("eichler").hi == 2000
        assert R.run_check("hap_table").hi == 200
        assert R.run_check("trace4_nu2").hi == 301

    @pytest.mark.parametrize("max_n", [0, -5])
    def test_nonpositive_range_rejected(self, max_n):
        with pytest.raises(ValueError):
            R.run_check("eichler", max_n)
        with pytest.raises(ValueError):
            R.verify_all(max_n)

    def test_verify_all_order_deterministic(self):
        a = [r.relation for r in R.verify_all(30)]
        b = [r.relation for r in R.verify_all(30)]
        assert a == b == R.relation_ids()

    @pytest.mark.parametrize("rid", R.relation_ids())
    def test_every_id_runs(self, rid):
        rep = R.run_check(rid, None if rid in R._FIXED_RANGE else 30)
        assert rep.relation == rid and rep.ok and rep.checked > 0

    @pytest.mark.parametrize("name, module", [
        ("check_cor_i", C), ("check_cor_ii", C), ("check_prop72", C),
        ("check_identities", I)])
    def test_family_names_forwarded(self, name, module):
        assert getattr(R, name) is getattr(module, name)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            R.no_such_name


class TestClassicalRelations:
    def test_eichler(self):
        assert R.check_eichler(501).ok

    def test_eichler_smallest_cases(self):
        # n=1: 2H(0) + lambda_1(1) = -1/6 + 1/2 = 1/3
        assert hurwitz(0) * 2 + lambda_k(1, 1) == Fraction(sigma_k(1, 1), 3)

    def test_cohen(self):
        assert R.check_cohen(501).ok

    def test_kronecker_variant_named(self):
        rep = R.check_kronecker_hurwitz(400)
        assert rep.ok
        assert "+2*lambda_1" in rep.notes


class TestTraceFormulas:
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
    def test_level1(self, nu):
        assert R.check_trace_level1(nu, 120).ok

    @pytest.mark.parametrize("nu", [1, 2])
    def test_level4(self, nu):
        assert R.check_trace_level4(nu, 121).ok

    def test_unsupported_nu(self):
        with pytest.raises(ValueError):
            R.check_trace_level1(6)
        with pytest.raises(ValueError):
            R.check_trace_level4(3)

    def test_g_coeff_inverts_quadratic(self):
        # sum_j c_j X^j * (1 - S X + n X^2) = 1, where c_{2nu} = g_coeff
        for s, n in [(1, 2), (3, 7), (-2, 5), (0, 3)]:
            for double_s in (False, True):
                S = 2 * s if double_s else s
                c = [1, S]
                for _ in range(10):
                    c.append(S * c[-1] - n * c[-2])
                for j in range(2, 12):
                    assert c[j] - S * c[j - 1] + n * c[j - 2] == 0
                for nu in range(6):
                    assert c[2 * nu] == oracles.g_coeff(s, n, nu, double_s=double_s)

    def test_g_poly_matches_g_coeff(self):
        # g_nu(s, n) = sum_j c_j n^j s^(2nu-2j) against the recurrence
        for nu in range(6):
            for double_s in (False, True):
                c = R.g_poly(nu, double_s)
                for s in range(-7, 8):
                    for n in range(25):
                        assert sum(cj * n ** j * s ** (2 * nu - 2 * j)
                                   for j, cj in enumerate(c)) == \
                            oracles.g_coeff(s, n, nu, double_s=double_s)

    def test_level4_degree_zero_is_eichler(self):
        # at nu=0 the level-4 trace sum reduces to the first class number
        # relation: -3 sum H(n-s^2) - 3 lambda_1(n) = -sigma_1(n), odd n
        for n in range(1, 301, 2):
            tot = sum(hurwitz(n - s * s) for s in range(-isqrt(n), isqrt(n) + 1))
            assert -3 * tot - 3 * lambda_k(n, 1) == -sigma_k(n, 1)


class TestMomentPath:
    """The class number sums from theta moments against the per-index
    oracle, at the sizes of the scaled benchmark workloads."""

    @pytest.mark.parametrize("nu, double_s, ns, ms", [
        (0, False, range(1, 8001, 2), range(1, 8001, 2)),        # eichler
        (1, True, range(1, 8001, 2), range(1, 8001, 2)),         # cohen
        (0, False, range(1, 4001), range(4, 16001, 4)),          # kronecker
        (2, True, range(1, 3002, 2), range(1, 3002, 2)),         # trace4_nu2
        (5, False, range(1, 301), range(4, 1201, 4)),            # trace1_nu5
    ])
    def test_sums_match_oracle(self, nu, double_s, ns, ms):
        assert R._g_sums(nu, double_s, ns, ms) == \
            oracles.g_sums(nu, double_s, ns, ms)

    @pytest.mark.parametrize("nu", range(6))
    @pytest.mark.parametrize("double_s", [False, True])
    @pytest.mark.parametrize("ns, ms", [
        (range(1, 602, 2), range(1, 602, 2)),      # odd n, m = n
        (range(1, 151), range(4, 601, 4)),          # all n, m = 4n
    ])
    def test_horner_matches_per_n_formula(self, nu, double_s, ns, ms):
        got = R._g_sums(nu, double_s, ns, ms)
        assert got == oracles.g_sums_per_n(nu, double_s, ns, ms)
        assert got == oracles.g_sums(nu, double_s, ns, ms)

    @pytest.mark.parametrize("p, T", [(5, 3000), (7, 500)])
    def test_theta_base_matches_oracle(self, p, T):
        # the theta base alone: scale 12, no D-series
        base = oracles.theta_base(p, T)
        assert C._theta_d_side(p, T, 12, 0, []) == \
            [12 * base.coeff(n) for n in range(T + 1)]

    def test_perturbed_table_fails_like_oracle(self, monkeypatch):
        # H(23) raised by 1/12 in the live table: every check on the moment
        # path must fail with the oracle path's failures and notes, so no
        # packed copy of the table outlives a call
        def run(cor_i=R.check_cor_i):
            reps = [R.check_eichler(100), R.check_cohen(100),
                    R.check_kronecker_hurwitz(50), R.check_trace_level1(1, 50),
                    R.check_trace_level4(1, 99), cor_i(60)]
            return [(r.failures, r.notes, r.checked) for r in reps]

        cache = hurwitz_cache()
        cache.ensure(8000)
        run()
        original = cache._table[23]
        try:
            cache._table[23] = original + 1
            got = run()
            with monkeypatch.context() as m:
                m.setattr(R, "_g_sums", oracles.g_sums)
                want = run(oracles.check_cor_i)
        finally:
            cache._table[23] = original
        assert got == want
        assert all(failures for failures, _, _ in got)
        assert got[2][1] == "neither sign variant holds uniformly"

    def test_perturbed_table_matches_golden(self):
        # H(23) raised by 1/12 in the live table: the reports of all ten
        # class number checks, recorded from the per-check bodies that the
        # shared _class_number_check replaced, elapsed_ms left out.  The
        # sizes include the cusp-form right sides (trace1_nu5, trace4_nu2),
        # the kronecker_hurwitz note for two failing sign variants and even
        # range ends for the odd-n checks.
        with open(os.path.join(GOLDEN, "classnum_perturbed.json"),
                  encoding="utf-8") as f:
            golden = json.load(f)
        cache = hurwitz_cache()
        cache.ensure(8000)
        original = cache._table[23]
        got = {}
        try:
            cache._table[23] = original + 1
            for key in golden:
                rid, max_n = key.rsplit("_", 1)
                rep = R.run_check(rid, int(max_n))
                d = rep.to_dict()
                del d["elapsed_ms"]
                got[key] = {**d, "checked": rep.checked}
        finally:
            cache._table[23] = original
        assert [key.rsplit("_", 1)[0] for key in golden] == R.relation_ids()[:10]
        assert got == golden


class TestHapTable:
    def test_table(self):
        assert R.check_hap_table(200).ok

    def test_spot_values(self):
        assert oracles.hap(0, 5, 11) == Fraction(11 + 1, 2) == 6
        assert oracles.hap(1, 5, 11) == Fraction(11 + 1, 3) == 4
        assert oracles.hap(2, 5, 11) == Fraction(5 * 11 - 7, 12) == 4

    def test_residue_partition(self):
        for n in list(range(1, 200)) + [500, 777, 1000]:
            total = sum((oracles.hap(a, 5, n) for a in range(5)), Fraction(0))
            direct = sum(hurwitz(4 * n - s * s)
                         for s in range(-isqrt(4 * n), isqrt(4 * n) + 1))
            assert total == direct

    def test_failures_hold_the_per_index_sums(self):
        # H(43) raised by 1/12 in the live table: each failure's left side
        # is the oracle's sum over the same table
        cache = hurwitz_cache()
        cache.ensure(8000)
        original = cache._table[43]
        try:
            cache._table[43] = original + 1
            rep = R.check_hap_table(200)
            sums = [oracles.hap(n % 10, 5, n // 10) for n, _, _ in rep.failures]
        finally:
            cache._table[43] = original
        assert rep.failures and [lhs for _, lhs, _ in rep.failures] == sums

    def test_perturbed_table_matches_golden(self):
        # 12 H raised by 1 at one index of the live table (or at none), at
        # five range ends: the reports of the per-index check that the list
        # form replaced, recorded from it, elapsed_ms left out
        with open(os.path.join(GOLDEN, "hap_table_perturbed.json"),
                  encoding="utf-8") as f:
            golden = json.load(f)
        cache = hurwitz_cache()
        cache.ensure(8000)
        got = {}
        for pos, by_max in golden.items():
            idx, bump = (0, 0) if pos == "none" else (int(pos), 1)
            got[pos] = {}
            cache._table[idx] += bump
            try:
                for max_prime in by_max:
                    rep = R.check_hap_table(int(max_prime))
                    d = rep.to_dict()
                    del d["elapsed_ms"]
                    got[pos][max_prime] = {**d, "checked": rep.checked}
            finally:
                cache._table[idx] -= bump
        assert got == golden


class TestQuasiModular:
    def test_cor_i(self):
        rep = R.check_cor_i(300)
        assert rep.ok
        assert rep.notes == "sieve residue on D_1^(5,2): 1"

    def test_cor_ii(self):
        assert R.check_cor_ii(200).ok

    @pytest.mark.parametrize("check, T", [
        ("check_cor_i", 0), ("check_cor_i", 1), ("check_cor_i", 7),
        ("check_cor_i", 300), ("check_cor_i", 3000),
        ("check_cor_ii", 1), ("check_cor_ii", 200), ("check_cor_ii", 2000)])
    def test_matches_fraction_oracle(self, check, T):
        # the integer lists against the Fraction series they replace
        got, want = getattr(R, check)(T), getattr(oracles, check)(T)
        assert (got.failures, got.notes, got.checked, got.status) == \
            (want.failures, want.notes, want.checked, want.status)

    def test_cor_i_sides_match_fraction_oracle(self):
        T = 1000
        variants, rhs = oracles.cor_i_sides(T)
        common = C._theta_d_side(5, T, 48, 5, [(1, 4)])
        d52 = C.residue_class_sieve(T, 1, 5, 2)
        for r, lhs in variants.items():
            assert [v + 96 * d52[n] * (n % 5 == r) for n, v in enumerate(common)] \
                == [48 * lhs.coeff(n) for n in range(T + 1)]

    def test_perturbed_reports_match_golden(self, monkeypatch):
        # Reports under six perturbations, recorded from the Fraction-series
        # cor_i and cor_ii of commit 48eb039: 12 H(23) or 12 H(20) raised by
        # 1, and D_1^{(p,a)} changed through the sieve that the checks read:
        # raised by 1 at some n, or, so that the sieve residue 4 misses
        # fewer indices than 1, raised by 1000 on the class 1 mod 5 and
        # cleared on the class 4
        with open(os.path.join(GOLDEN, "cor_perturbed.json"),
                  encoding="utf-8") as f:
            golden = json.load(f)
        sieve = C.residue_class_sieve

        def raise_at(ns):
            def edit(out):
                for n in ns:
                    if n < len(out):
                        out[n] += 1
            return edit

        def favour_4(out):
            out[1::5] = [v + 1000 for v in out[1::5]]
            out[4::5] = [0] * len(out[4::5])

        def edited(pa, edit):
            def perturbed(max_n, k, p, a):
                out = sieve(max_n, k, p, a)
                if (p, a) == pa:
                    edit(out)
                return out
            return perturbed

        def report(rep):
            d = rep.to_dict()
            del d["elapsed_ms"]
            return {**d, "checked": rep.checked}

        got = {}
        cache = hurwitz_cache()
        cache.ensure(8000)
        for name, disc, check, T in [("cor_i_H23", 23, R.check_cor_i, 300),
                                     ("cor_ii_H20", 20, R.check_cor_ii, 500)]:
            original = cache._table[disc]
            try:
                cache._table[disc] = original + 1
                got[name] = report(check(T))
            finally:
                cache._table[disc] = original
        for name, pa, edit, check, T in [
                ("cor_i_D52_at_11", (5, 2), raise_at([11]), R.check_cor_i, 300),
                ("cor_ii_D72_at_17", (7, 2), raise_at([17]), R.check_cor_ii, 500),
                ("cor_i_D52_class1", (5, 2), raise_at(range(1, 301, 5)),
                 R.check_cor_i, 300),
                ("cor_i_D52_favours_4", (5, 2), favour_4, R.check_cor_i, 300)]:
            with monkeypatch.context() as m:
                m.setattr(C, "residue_class_sieve", edited(pa, edit))
                got[name] = report(check(T))
        assert got == golden

    def test_prop72(self):
        rep = R.check_prop72(150)
        # one index per n, residue a mod p and nu in (0, 1), p in (5, 7)
        assert rep.ok and rep.checked == 2 * (5 + 7) * 150

    def test_perturbed_lambda_pa_fails(self, monkeypatch):
        # Lambda^{(p,a)}_nu raised by q^{4n} at n = 36, 121, 180 for every
        # p, a, nu: the expected list, rhs values included, was recorded
        # from the trial-division D^{(p,a)}_k of commit d443076
        lambda_pa = holproj.lambda_pa

        def perturbed(p, a, nu, T):
            bump = {4 * n: 1 for n in (36, 121, 180) if 4 * n <= T}
            return lambda_pa(p, a, nu, T) + QSeries(bump, T)

        monkeypatch.setattr(holproj, "lambda_pa", perturbed)
        rep = R.check_prop72(200)
        assert rep.failures == golden_failures("prop72_perturbed_lambda_pa.json")

    def test_class_set_checked_for_both_residues(self, monkeypatch):
        # Lambda^{(5,a)} raised by q^28 for the class set {2, 3} alone must
        # fail at n = 7 for a = 2 and for a = 3, at each nu, and nowhere else
        lambda_pa = holproj.lambda_pa

        def perturbed(p, a, nu, T):
            bump = QSeries({28: 1} if (p, min(a, p - a)) == (5, 2) else {}, T)
            return lambda_pa(p, a, nu, T) + bump

        monkeypatch.setattr(holproj, "lambda_pa", perturbed)
        rep = R.check_prop72(20)
        assert rep.checked == 2 * (5 + 7) * 20
        assert [n for n, _, _ in rep.failures] == [7] * 4

    def test_w_term_values(self):
        # n=30, p=5, a=1: divisors alpha<sqrt(30) with alpha=0 (5) and
        # 30/alpha = +-1 (5): alpha=5 -> 6 = 1 (5): contributes 2*5
        w = C.w_term(5, 1, 1, 40)
        assert len(w) == 41
        assert w[30] == 10
        assert w[7] == 0

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from((1, 3, 5, 7, 11)), a=st.integers(0, 10),
           e=st.sampled_from((1, 3, 5)), T=st.integers(0, 2000))
    def test_w_term_matches_former_loop(self, p, a, e, T):
        w = C.w_term(p, a % p, e, T)
        assert len(w) == T + 1
        assert {n: v for n, v in enumerate(w) if v} == oracles.w_term(p, a % p, e, T)

    def test_sides_compared_as_ints(self, monkeypatch):
        # both sides reach record_lists as lists of ints over the scale 1
        seen = set()
        record_lists = R.RelationReport.record_lists

        def spy(self, ns, lhs, rhs, scale):
            seen.update((type(l), type(r), scale) for l, r in zip(lhs, rhs))
            record_lists(self, ns, lhs, rhs, scale)

        monkeypatch.setattr(R.RelationReport, "record_lists", spy)
        assert R.check_prop72(60).ok
        assert seen == {(int, int, 1)}


class TestIdentities:
    def test_suite(self):
        rep = R.check_identities()
        assert rep.ok
        assert "kappa_closed_form" in rep.notes

    def test_perturbed_p_poly_fails(self, monkeypatch):
        # Y^4 of P_{6,b} off by one: both rewrites fail for each of the
        # five b (ids 60..64), and so do both closed sums at nu = 2, whose
        # P has a = 2nu + 2 = 6 (ids 300002, 400002).  The integer kernel
        # computes P as (list, D), so the one is D on its list.
        p_poly_ints = brackets.p_poly_ints

        def perturbed(a, p, q=1):
            P, D = p_poly_ints(a, p, q)
            if a == 6:
                P[0] += D
            return P, D

        monkeypatch.setattr(brackets, "p_poly_ints", perturbed)
        rep = R.check_identities()
        assert rep.failures == [(i, Fraction(0), Fraction(1)) for i in
                                (60, 61, 62, 63, 64, 300002, 400002)]

    def test_multinomial_plus_one_fails(self, monkeypatch):
        # C(83, 42) is the first factor of the even identity's multinomial
        # at (nu, mu) = (21, 0), whose second factor is C(41, 0) = 1, and no
        # other comb call of the suite takes (83, 42).  Raising it by one
        # fails every j of nu = 21 (ids 102100..102121); the expected list
        # was recorded from the factorial form of commit d443076 with that
        # multinomial raised by one.
        def perturbed(n, k):
            return comb(n, k) + ((n, k) == (83, 42))

        monkeypatch.setattr(I, "comb", perturbed)
        rep = R.check_identities()
        assert rep.failures == golden_failures("identities_multinomial_plus1.json")

    def test_odd_multinomial_plus_one_fails_like_oracle(self, monkeypatch):
        # C(81, 41) is the first factor of the odd identity's multinomial
        # at (nu, mu) = (20, 0), and no other comb call of the suite takes
        # (81, 41).  Raised by one, the integer sums over L_20 must fail
        # exactly where the one-Fraction-per-term oracle fails: every j of
        # nu = 20, with the same values.
        def perturbed(n, k):
            return comb(n, k) + ((n, k) == (81, 41))

        monkeypatch.setattr(I, "comb", perturbed)
        got = I._binomial_sums(40)[1]
        assert got == oracles.binomial_odd(40, binom=perturbed)
        assert [idx for idx, _, _ in got] == [2000 + j for j in range(21)]
        rep = R.check_identities()
        assert rep.failures == [(200000 + idx, l, r) for idx, l, r in got]

    def test_integer_binomial_sums_match_fraction_oracle(self, monkeypatch):
        # Each factorial n! of the right sides times the n-th prime: every
        # right side gains a product of two primes over a product of two
        # others, so each (nu, j) fails and hands out its integer-form lhs
        primes = [q for q in range(2, 500)
                  if all(q % d for d in range(2, isqrt(q) + 1))]
        monkeypatch.setattr(I, "factorial", lambda n: factorial(n) * primes[n])
        even, odd = I._binomial_sums(40)
        for bad, oracle, nus in ((even, binomial_even_lhs, range(1, 41)),
                                 (odd, binomial_odd_lhs, range(41))):
            got = {idx: lhs for idx, lhs, _ in bad}
            assert got == {100 * nu + j: oracle(nu, j)
                           for nu in nus for j in range(nu + 1)}

    def test_closed_sums_match_fraction_oracle(self):
        assert I._closed_sum_even(8) == oracles.closed_sum_even(8) == []
        assert I._closed_sum_odd(8) == oracles.closed_sum_odd(8) == []

    def test_closed_sums_fail_like_oracle_under_perturbed_binomial(
            self, monkeypatch):
        # C(17/2, 1) raised by one: among nu <= 8 it is a factor of c_mu only
        # at nu = 8, mu = 7 (even sum) and mu = 1 (odd sum); the integer
        # forms, which read C(p/q, m) from binom_parts as an unreduced
        # pair, must fail exactly where the Fraction oracles fail
        binom = perturb_binom_parts(monkeypatch, (17, 2, 1))
        for identity, oracle in ((I._closed_sum_even, oracles.closed_sum_even),
                                 (I._closed_sum_odd, oracles.closed_sum_odd)):
            got = identity(8)
            assert got == oracle(8, binom=binom, poly=brackets.p_poly)
            assert [nu for nu, _, _ in got] == [8]

    def test_p_poly_rewrites_fail_like_oracle_under_perturbed_binomial(
            self, monkeypatch):
        # C(9/2, 3) raised by one: it is the factor C(j+b-2, j) of the
        # second rewrite at b = 7/2, j = 3 for every a >= 5 (ids 10a + 4),
        # where the first rewrite still holds, and C(a+b-3, 3) in both
        # rewrites where a + b - 3 = 9/2 (ids 53, 72, 81, 90); the integer
        # forms must fail where the Fraction oracle fails
        binom = perturb_binom_parts(monkeypatch, (9, 2, 3))
        got = I._p_poly_rewrites(12)
        assert got == oracles.p_poly_rewrites(12, binom=binom,
                                               poly=brackets.p_poly)
        assert [i for i, _, _ in got] == [53, 54, 64, 72, 74, 81, 84, 90, 94,
                                          104, 114, 124]

    def test_kappa_checked_at_nu_max(self, monkeypatch):
        # Gamma(81/2) enters kappa(3/2, 1/2, nu) only at nu = 20, mu = 0:
        # raised by sqrt(pi)/7 there, the suite fails at nu = 20 alone, with
        # the value of the Fraction-loop kappa under the same change
        gamma_half_parts, gamma_half = brackets.gamma_half_parts, oracles.gamma_half

        def parts(m):
            g, den, e = gamma_half_parts(m)
            return (7 * g + den, 7 * den, e) if m == 81 else (g, den, e)

        def gamma(h):
            bump = PiScalar(Fraction(1, 7), 1) if h == Fraction(81, 2) else 0
            return gamma_half(h) + bump

        monkeypatch.setattr(brackets, "gamma_half_parts", parts)
        monkeypatch.setattr(oracles, "gamma_half", gamma)
        want = oracles.kappa(brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 20))
        assert I._kappa_closed_form(20) == [
            (20, want.r, Fraction(2 * comb(40, 20), 4 ** 20))]

    def test_perturbed_gamma_half_fails(self, monkeypatch):
        # Gamma(7/2) raised by sqrt(pi)/7 moves kappa(3/2, 1/2, nu) at
        # nu = 2 and 3 only; the expected list, values included, was
        # recorded from the Fraction-loop kernels of commit 3b191ef.  kappa
        # reads Gamma(m/2) from the integer kernel as (num, den, e), so the
        # patch raises num/den by 1/7 at m = 7.
        gamma_half_parts = brackets.gamma_half_parts

        def perturbed(m):
            g, den, e = gamma_half_parts(m)
            return (7 * g + den, 7 * den, e) if m == 7 else (g, den, e)

        monkeypatch.setattr(brackets, "gamma_half_parts", perturbed)
        rep = R.check_identities()
        assert rep.failures == golden_failures(
            "identities_gamma_half_perturbed.json")

    def test_binomial_even_spot(self):
        assert I._binomial_sums(2)[0] == []

    def test_binomial_odd_spot(self):
        assert I._binomial_sums(2)[1] == []
