"""Rankin-Cohen brackets, the holomorphic-projection correction terms,
and the indefinite theta series with their Pell-orbit evaluation."""

import signal
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qrel import brackets, forms, holproj as hp, pell
from qrel.arith import DirichletCharacter, kronecker_character, residue_class_sieve
from qrel.qseries import MAX_TRUNC, QSeries
from qrel.scalars import PiScalar, QuadExt, gen_binom, is_square, squarefree_split

TRIV = kronecker_character(1)
CHI5 = kronecker_character(5)
CHI4 = kronecker_character(-4)


class TestBracketSpec:
    def test_fields(self):
        spec = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 2)
        assert spec.total_weight == 2 + 4

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            brackets.BracketSpec(Fraction(1, 3), Fraction(1, 2), 0)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            brackets.BracketSpec(Fraction(1, 2), Fraction(1, 2), -1)

    def test_weights_normalized_to_fractions(self):
        spec = brackets.BracketSpec(2, "1/2", 0)
        assert (spec.k, spec.l, spec.nu) == (Fraction(2), Fraction(1, 2), 0)
        assert type(spec.k) is Fraction

    def test_value_equality_and_hash(self):
        spec = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 2)
        same = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 2)
        assert spec == same and hash(spec) == hash(same)
        assert len({spec, same}) == 1
        assert spec != brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 1)
        assert spec != brackets.BracketSpec(Fraction(1, 2), Fraction(3, 2), 2)
        assert spec != (Fraction(3, 2), Fraction(1, 2), 2)

    def test_repr(self):
        assert (repr(brackets.BracketSpec(Fraction(3, 2), 1, 2))
                == "BracketSpec(k=Fraction(3, 2), l=Fraction(1, 1), nu=2)")

    def test_immutable(self):
        spec = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 2)
        with pytest.raises(AttributeError):
            spec.nu = -1
        with pytest.raises(AttributeError):
            del spec.k
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert spec == brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 2)


class TestRankinCohen:
    def test_degree_zero_is_product(self):
        f = forms.eisenstein_g2(20)
        g = forms.theta_classical(20)
        spec = brackets.BracketSpec(2, Fraction(1, 2), 0)
        assert brackets.rankin_cohen(f, g, spec) == f * g

    def test_antisymmetry_equal_weights(self):
        f = QSeries({1: Fraction(1), 3: Fraction(2)}, 20)
        g = QSeries({2: Fraction(5), 4: Fraction(1)}, 20)
        spec = brackets.BracketSpec(Fraction(1, 2), Fraction(1, 2), 1)
        assert brackets.rankin_cohen(f, g, spec) == -brackets.rankin_cohen(g, f, spec)

    def test_class_number_times_theta(self):
        H = forms.hurwitz_series(20)
        th = forms.theta_classical(20)
        spec = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 0)
        br = brackets.rankin_cohen(H, th, spec)
        # coefficient of q^4: sum_s H(4 - s^2)
        assert br.coeff(4) == sum(hp_h for hp_h in
                                  (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3),
                                   Fraction(-1, 12), Fraction(-1, 12)))
        assert br.coeff(4) == 1


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


class TestPPoly:
    def test_base_cases(self):
        # entry i is the coefficient of X^i Y^(a-2-i)
        assert brackets.p_poly(2, Fraction(7, 2)) == [1]
        assert brackets.p_poly(3, Fraction(5)) == [1, 5]

    def test_degree(self):
        assert len(brackets.p_poly(8, Fraction(1, 2))) == 7

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 14),
           st.integers(-13, 13).filter(lambda h: h not in (2, 4)),
           rationals, rationals)
    def test_matches_definition(self, a, h, x, y):
        # b = h/2 runs over integers and half-integers outside {1, 2};
        # the definition sum_j C(j+b-2, j) x^j (x+y)^(a-2-j), evaluated
        # directly, with C(j+b-2, j) as its falling product over j!
        b = Fraction(h, 2)
        want = Fraction(0)
        for j in range(a - 1):
            c = Fraction(1)
            for i in range(j):
                c *= (j + b - 2 - i) / Fraction(i + 1)
            want += c * x ** j * (x + y) ** (a - 2 - j)
        assert brackets.poly_eval(brackets.p_poly(a, b), x, y) == want

    def test_rejects_small_a(self):
        with pytest.raises(ValueError):
            brackets.p_poly(1, Fraction(1, 2))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 18),
           st.one_of(st.builds(Fraction, st.integers(-41, 41), st.just(2)),
                     rationals))
    def test_matches_fraction_oracle(self, a, b):
        # b in (1/2)Z within [-41/2, 41/2], or any small rational; a - 2 <= 16
        P = brackets.p_poly(a, b)
        assert P == oracles.p_poly(a, b)
        assert all(type(c) is Fraction for c in P)

    def test_a_two_and_fresh_lists(self):
        for b in (Fraction(-41, 2), Fraction(0), Fraction(1, 2), Fraction(3)):
            assert brackets.p_poly(2, b) == [1] == oracles.p_poly(2, b)
        P = brackets.p_poly(6, Fraction(1, 2))
        P[0] += 1
        assert brackets.p_poly(6, Fraction(1, 2)) == oracles.p_poly(6, Fraction(1, 2))

    @pytest.mark.parametrize("a", [1, 0, -3])
    def test_small_a_rejected_like_oracle(self, a):
        for fn in (brackets.p_poly, oracles.p_poly):
            with pytest.raises(ValueError, match="at least 2"):
                fn(a, Fraction(1, 2))
        with pytest.raises(ValueError, match="at least 2"):
            brackets.p_poly_ints(a, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 18), st.integers(-41, 41), st.integers(1, 6))
    def test_integer_kernel_matches_fraction_oracle(self, a, p, q):
        # p/q need not be reduced: the kernel's list over D = q^(a-2) (a-2)!
        P, D = brackets.p_poly_ints(a, p, q)
        assert D == q ** (a - 2) * factorial(a - 2)
        assert all(type(v) is int for v in P)
        assert [Fraction(v, D) for v in P] == oracles.p_poly(a, Fraction(p, q))


class TestKappa:
    def test_base_value(self):
        spec = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 0)
        assert brackets.kappa(spec) == PiScalar(2, 1)     # 2*sqrt(pi)

    def test_flipped_weights(self):
        spec = brackets.BracketSpec(Fraction(1, 2), Fraction(3, 2), 1)
        assert brackets.kappa(spec) == PiScalar(Fraction(-3, 2), 1)

    def test_rejects_weight_one(self):
        with pytest.raises(ValueError):
            brackets.kappa(brackets.BracketSpec(1, 1, 0))

    @settings(max_examples=600, deadline=None)
    @given(st.integers(-24, 24), st.integers(-24, 24), st.integers(0, 12))
    def test_matches_fraction_oracle(self, hk, hl, nu):
        # k = hk/2 and l = hl/2 over half-integers and integers: integer
        # k >= 2 has Gamma(2-k)/Gamma(2-k-mu) across cancelling poles, and
        # integer l <= 0 reaches Gamma poles that only zero terms may skip.
        # Both must give the same value or the same ValueError.
        spec = brackets.BracketSpec(Fraction(hk, 2), Fraction(hl, 2), nu)
        outcomes = []
        for fn in (brackets.kappa, oracles.kappa):
            try:
                got = fn(spec)
                outcomes.append((got.r, got.e))
            except ValueError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("k, l, nu, match", [
        (1, 1, 0, "undefined at k = 1"),
        (1, 3, 2, "undefined at k = 1"),
        (Fraction(3, 2), 0, 1, "must be an integer"),
        (Fraction(1, 2), Fraction(-1, 2), 0, "must be an integer"),
        (4, -2, 0, "Gamma pole at -2"),
        (5, -6, 2, "Gamma pole at"),
    ])
    def test_errors_like_oracle(self, k, l, nu, match):
        spec = brackets.BracketSpec(k, l, nu)
        for fn in (brackets.kappa, oracles.kappa):
            with pytest.raises(ValueError, match=match):
                fn(spec)

    def test_cancelling_poles(self):
        # k = 3: Gamma(-1)/Gamma(-1-mu) = (-2)(-3)...(-1-mu) is finite
        for l, nu in ((1, 0), (1, 2), (3, 4), (-1, 3)):
            spec = brackets.BracketSpec(3, l, nu)
            got, want = brackets.kappa(spec), oracles.kappa(spec)
            assert got.r and (got.r, got.e) == (want.r, want.e)


class TestCorrectionB:
    def test_zero_shadow(self):
        spec = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), 0)
        theta = {j * j: 2 for j in range(1, 20)}
        for r in (1, 3, 8):
            gamma, alg = brackets.correction_b(r, {}, theta, spec)
            assert alg == 0

    def test_matches_projection_constant(self):
        # b(r) = 4^{1-nu} C(2nu,nu) sqrt(pi) * (double sum); the kappa term
        # supplies the boundary part at square r with the same constant
        theta = {j * j: 2 for j in range(1, 40)}
        for nu in (0, 1):
            spec = brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), nu)
            const = PiScalar(Fraction(4) ** (1 - nu)
                             * gen_binom(2 * nu, nu), 1)
            for r in range(1, 30):
                gamma, alg = brackets.correction_b(r, theta, theta, spec)
                if isinstance(alg, QuadExt):
                    assert alg.b == 0
                    alg = alg.a
                dbl = 2 * hp.indefinite_double_sum(1, 1, TRIV, TRIV, nu, r)
                assert gamma * alg == const * dbl
            kap = brackets.kappa(spec)
            for j in (1, 2, 3):
                assert kap * (2 * Fraction(j) ** (2 * nu + 1)) == \
                    const * Fraction(j) ** (2 * nu + 1)


class TestPellOrbit:
    def test_unit_and_reps(self):
        orb = pell.pell_orbit(1, 2, 1)
        assert orb.unit == QuadExt(3, 2, 2)
        assert orb.unit.norm() == 1
        assert orb.fundamental_solutions == [(3, 2)]
        orb = pell.pell_orbit(1, 3, 1)
        assert orb.unit == QuadExt(2, 1, 3)
        assert orb.fundamental_solutions == [(2, 1)]

    def test_two_orbits(self):
        orb = pell.pell_orbit(2, 3, 5)
        assert orb.fundamental_solutions == [(2, 1), (4, 3)]

    def test_reps_satisfy_equation(self):
        for (s, t, r) in [(1, 2, 7), (2, 3, 5), (1, 3, 13), (3, 5, 7)]:
            orb = pell.pell_orbit(s, t, r)
            for m0, n0 in orb.fundamental_solutions:
                assert s * m0 * m0 - t * n0 * n0 == r

    def test_rejects_square_product(self):
        with pytest.raises(ValueError):
            pell.pell_orbit(1, 4, 3)

    def test_orbit_covers_brute_force(self):
        # every solution with m <= 300 appears exactly once in the orbit fan
        for (s, t, r) in [(1, 2, 1), (1, 3, 1), (2, 3, 5)]:
            orb = pell.pell_orbit(s, t, r)
            want = [(m, n) for m in range(1, 301)
                    for n in range(1, isqrt((s * m * m) // t) + 1)
                    if s * m * m - t * n * n == r]
            got = []
            x, y = orb.unit_xy
            for m0, n0 in orb.fundamental_solutions:
                u, n = s * m0, n0
                while u // s <= 300:
                    got.append((u // s, n))
                    u, n = pell._advance(u, n, x, y, s * t)
            assert sorted(got) == want

    def test_nagell_scan_matches_linear_scan(self):
        # the scan to Nagell's bound against the full linear scan it replaced
        cases = 0
        for s, st in _small_unit_cases():
            for r in range(1, 41):
                orb = pell.pell_orbit(s, st // s, r)
                assert orb.fundamental_solutions == _linear_scan(s, st // s, r), \
                    (s, st, r)
                cases += 1
        assert cases > 10000

    def test_batch_sweep_matches_per_r_sweeps(self):
        # the one sweep over r <= 40 against the sweep of each r, the
        # former per-r Nagell scan and the linear scan, on the cases above
        cases = 0
        for s, st in _small_unit_cases():
            x, y = pell.pell_fundamental(st)
            batch = sorted(pell._window_hits(s, st, x, y, 1, 40))
            per_r = [hit for r in range(1, 41)
                     for hit in pell._window_hits(s, st, x, y, r, r)]
            assert batch == sorted(per_r) == _nagell_hits(s, st, 40), (s, st)
            starts = dict(pell._starts(s, st, x, y, 1, 40))
            for r in range(1, 41):
                fundamental = _linear_scan(s, st // s, r)
                assert starts.get(r, set()) == {(s * m, n) for m, n in fundamental}, \
                    (s, st, r)
                cases += 1
        assert cases > 10000

    @pytest.mark.parametrize("t", [61, 109])
    def test_batch_sweep_large_units(self, t):
        x, y = pell.pell_fundamental(t)
        batch = sorted(pell._window_hits(1, t, x, y, 1, 3))
        per_r = [hit for r in (1, 2, 3) for hit in pell._window_hits(1, t, x, y, r, r)]
        assert batch and batch == sorted(per_r)
        if t == 61:     # the former per-r scan: 4e3 steps here, 1.5e6 at 109
            assert batch == _nagell_hits(1, t, 3)

    @pytest.mark.parametrize("t", [61, 109])
    def test_large_units_exact(self, t):
        # y = 226153980 (st = 61) and y = 15140424455100 (st = 109): the
        # linear scan took 4.5e8 and 3e13 steps per r here
        for r in (1, 2, 3):
            orb = pell.pell_orbit(1, t, r)
            x, y = orb.unit_xy
            assert x * x - t * y * y == 1
            for m, n in orb.fundamental_solutions:
                assert m * m - t * n * n == r
                pm, pn = m * x - n * y * t, n * x - m * y   # unit predecessor
                assert pm < 1 or pn < 1

    def test_st61_fan_covers_brute_force(self):
        M = 10 ** 5
        found = 0
        for r in (1, 2, 3):
            want = []
            for m in range(1, M + 1):
                v = m * m - r
                if v > 0 and v % 61 == 0 and 61 * (n := isqrt(v // 61)) ** 2 == v:
                    want.append((m, n))
            got = []
            orb = pell.pell_orbit(1, 61, r)
            x, y = orb.unit_xy
            for m0, n0 in orb.fundamental_solutions:
                for m, n in pell._orbit(m0, n0, x, y, 61):
                    if m > M:
                        break
                    got.append((m, n))
            assert sorted(got) == want
            found += len(want)
        assert found > 0


class TestLambdaIndef:
    def test_square_path_values(self):
        lam = hp.lambda_indef(1, 1, TRIV, TRIV, 0, 20)
        assert lam.coeff(1) == 1     # boundary term only
        assert lam.coeff(3) == 2     # (m,n)=(2,1): 2*(2-1)
        assert lam.coeff(4) == 2     # boundary at m=2
        assert lam.coeff(8) == 4     # (3,1): 2*2
        assert lam.coeff(9) == 5     # (5,4): 2*1, plus boundary 3
        assert lam.coeff(2) == 0

    def test_orbit_path_values(self):
        lam = hp.lambda_indef(1, 2, TRIV, TRIV, 0, 8)
        assert lam.coeff(1) == QuadExt(0, 1, 2)
        assert lam.coeff(2) == QuadExt(0, 1, 2)
        assert lam.coeff(4) == QuadExt(0, 2, 2)
        assert lam.coeff(7) == QuadExt(0, 4, 2)

    def test_twisted_square_path(self):
        lam = hp.lambda_indef(1, 1, CHI5, TRIV, 0, 30)
        # r=24: (m,n) in {(5,1),(7,5)}; chi5(5)=0, chi5(7)=-1 -> 2*(-1)*2
        assert lam.coeff(24) == -4
        # r=25: boundary term vanishes (chi5(5)=0); (13,12) gives 2*(-1)*1
        assert lam.coeff(25) == -2

    def test_rejects_odd_character(self):
        with pytest.raises(ValueError):
            hp.lambda_indef(1, 1, CHI4, TRIV, 0, 10)

    def test_head_tail_split_exact(self):
        for (s, t) in [(1, 2), (2, 3)]:
            for nu in (0, 1):
                for r in (1, 5, 11):
                    full = hp.indefinite_double_sum(s, t, TRIV, TRIV, nu, r)
                    head, tail = pell.orbit_tail_split(s, t, nu, r, 500)
                    assert head + tail == full


class TestDoubleSumInput:
    """Each rejected input raises at once; r = 0 used to hang in the window
    sweep, s = 0 returned 0, a negative r died inside isqrt."""

    @pytest.mark.parametrize("s, t, r", [(1, 2, 0), (0, 2, 3), (1, 1, -3),
                                         (1, 2, -3), (2, 0, 5)])
    def test_rejects_nonpositive(self, s, t, r):
        with _deadline(5), pytest.raises(ValueError, match="must be positive"):
            hp.indefinite_double_sum(s, t, TRIV, TRIV, 0, r)


class TestTruncationInput:
    """A truncation order outside [0, MAX_TRUNC] is rejected before any
    work: -1 used to die inside isqrt in the boundary loop, MAX_TRUNC + 1
    swept every r for seconds before the series constructor refused it."""

    @pytest.mark.parametrize("T", [-1, MAX_TRUNC + 1])
    @pytest.mark.parametrize("build", [
        lambda T: hp.lambda_indef(1, 2, TRIV, TRIV, 0, T),
        lambda T: hp.delta_indef(1, 53, CHI4, CHI4, 1, T),
        lambda T: hp.lambda_pa(1, 0, 0, T)], ids=["lambda", "delta", "lambda_pa"])
    def test_rejected_at_once(self, build, T):
        match = rf"truncation order must be in \[0, {MAX_TRUNC}\], got {T}$"
        with _deadline(1), pytest.raises(ValueError, match=match):
            build(T)


class TestDegreeInput:
    """A negative nu makes the exponent 2nu+1 negative: it is rejected
    before the boundary loop and any sum, where it used to leak float
    terms into the exact engine (or die in islice for non-square st)."""

    @pytest.mark.parametrize("build", [
        lambda: hp.lambda_indef(1, 1, TRIV, TRIV, -1, 12),
        lambda: hp.lambda_indef(1, 2, TRIV, TRIV, -1, 12),
        lambda: hp.delta_indef(1, 1, CHI4, CHI4, -1, 12),
        lambda: hp.lambda_pa(5, 1, -1, 20),
        lambda: hp.indefinite_double_sum(1, 1, TRIV, TRIV, -1, 15),
        lambda: hp.indefinite_double_sum(1, 2, TRIV, TRIV, -1, 1),
        lambda: pell.orbit_tail_split(1, 2, -1, 1, 5)],
        ids=["lambda_square", "lambda_pell", "delta", "lambda_pa",
             "double_sum_square", "double_sum_pell", "orbit_tail_split"])
    def test_negative_nu_rejected(self, build):
        with _deadline(5), pytest.raises(ValueError,
                                         match="nu must be nonnegative, got -1"):
            build()


class TestSquareSweep:
    """The pair sieve of _double_sums (s*t a square) against the former
    divisor loop per r and the former sweep over factor pairs, over whole
    ranges and at single r."""

    ST = ((1, 1), (1, 4), (4, 1), (2, 2), (3, 12), (9, 1), (1, 9), (2, 8),
          (4, 9))
    CHARS = ((1, 1), (5, 1), (-4, -4), (5, 5))

    @pytest.mark.parametrize("s, t", ST)
    def test_matches_divisor_oracle(self, s, t):
        for chi, psi in self.CHARS:
            chi, psi = kronecker_character(chi), kronecker_character(psi)
            for nu in (0, 1, 2):
                D, N, sums = hp._double_sums(s, t, chi, psi, nu, 1, 200)
                want = {r: v for r in range(1, 201)
                        if (v := _indef_coeff_square(s, t, chi, psi, nu, r))}
                assert (D, N) == (1, 1)
                assert sums == want, (s, t, nu)
                for r in (1, 3, 7, 24, 45, 120, 199, 200):
                    one = hp._double_sums(s, t, chi, psi, nu, r, r)[2]
                    assert one == ({r: want[r]} if r in want else {}), r

    # moduli 1, 4, 5 and 7, and a class weight [m = +-2 (7)] as lambda_pa
    # passes it
    WEIGHTS = [kronecker_character(d) for d in (1, -4, 5, 7)] + [
        DirichletCharacter(7, [m in (2, 5) for m in range(7)])]

    @settings(max_examples=300, deadline=None)
    @given(st_=st.sampled_from(((1, 1), (1, 4), (4, 9), (9, 4), (2, 8), (3, 12))),
           chi=st.sampled_from(WEIGHTS), psi=st.sampled_from(WEIGHTS),
           nu=st.integers(0, 3), lo=st.integers(1, 300), span=st.integers(-2, 300))
    def test_sieve_matches_pair_sweep(self, st_, chi, psi, nu, lo, span):
        s, t = st_
        for lo, hi in ((lo, lo + span), (lo, lo), (1, span % 3)):
            sums = hp._double_sums(s, t, chi, psi, nu, lo, hi)[2]
            assert sums == oracles.square_sums(s, t, chi, psi, nu, lo, hi)

    @pytest.mark.parametrize("T", [0, 1, 2])
    def test_tiny_truncations(self, T):
        # at r <= 2 only the boundary term at r = 1 remains for s = t = 1
        for a in range(5):
            assert hp.lambda_pa(5, a, 1, T).coeffs == ({1: 1} if a in (1, 4)
                                                       and T else {})
        assert hp.lambda_indef(1, 4, TRIV, TRIV, 0, T).coeffs == (
            {1: 1} if T else {})


class TestDeltaIndef:
    def test_example(self):
        d = hp.delta_indef(1, 1, CHI4, CHI4, 0, 20)
        assert d.coeff(8) == -4      # (m,n)=(3,1): 2*chi(3)*chi(1)*(3-1)

    def test_matches_double_sum(self):
        d = hp.delta_indef(1, 1, CHI4, CHI4, 1, 60)
        for r in range(1, 61):
            assert d.coeff(r) == 2 * hp.indefinite_double_sum(
                1, 1, CHI4, CHI4, 1, r)

    def test_no_boundary_term(self):
        d = hp.delta_indef(1, 1, CHI4, CHI4, 0, 30)
        assert d.coeff(1) == 0 and d.coeff(4) == 0 and d.coeff(25) == 0

    def test_rejects_even_character(self):
        with pytest.raises(ValueError):
            hp.delta_indef(1, 1, TRIV, CHI4, 0, 10)


class TestLambdaPa:
    def test_d_series_example(self):
        assert oracles.d_pa_series(5, 1, 1, 10).coeff(6) == 1

    @pytest.mark.parametrize("p, a", [(0, 0), (4, 1), (5, 5)])
    def test_d_series_rejects_bad_class(self, p, a):
        with pytest.raises(ValueError):
            residue_class_sieve(10, 1, p, a)

    def test_residue_partition(self):
        # the unordered classes {0}, {+-1}, ..., {+-(p-1)/2} partition Z/p,
        # so the residue-restricted series sum to the unrestricted one
        for p in (5, 7):
            for nu in (0, 1):
                total = hp.lambda_pa(p, 0, nu, 80)
                for a in range(1, (p - 1) // 2 + 1):
                    total = total + hp.lambda_pa(p, a, nu, 80)
                assert total == hp.lambda_pa(1, 0, nu, 80)

    def test_unrestricted_matches_lambda_indef(self):
        for nu in (0, 1):
            assert hp.lambda_pa(1, 0, nu, 80) == \
                hp.lambda_indef(1, 1, TRIV, TRIV, nu, 80)

    def test_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            hp.lambda_pa(5, 5, 0, 10)

    @pytest.mark.parametrize("p", [1, 3, 5, 7, 11])
    def test_matches_former_loop(self, p):
        for a in range(p):
            for nu in (0, 1, 2):
                got = hp.lambda_pa(p, a, nu, 400)
                want = _lambda_pa_loop(p, a, nu, 400)
                assert got.trunc == want.trunc and got.coeffs == want.coeffs, (a, nu)


class TestCharacterOrbits:
    def test_against_brute_force(self):
        # characters force period detection in the orbit closed form;
        # compare the exact value with a large exact partial sum plus a
        # geometrically-bounded remainder
        for (s, t) in [(1, 2), (2, 3)]:
            for chi, psi in [(CHI5, TRIV), (TRIV, CHI5), (CHI4, CHI4)]:
                for r in range(1, 11):
                    exact = hp.indefinite_double_sum(s, t, chi, psi, 0, r)
                    brute = _exact_partial_sum(s, t, chi, psi, 1, r, 4000)
                    assert abs(_dfloat(exact - brute)) < (r / 4000) * 10


class TestOneDivisionPerSeries:
    """The one-pass series (common period, one division) against the
    per-orbit oracle, coefficient by coefficient and type by type; square
    st checks the shared assembly of boundary terms and unscaling."""

    S_VALUES = (1, 2, 3, 4, 9)
    LAMBDA_CHARS = ((1, 1), (5, 5), (5, 1), (1, 13))
    DELTA_CHARS = ((-4, -4), (3, 7), (-4, 3))

    @pytest.mark.parametrize("kind, chars", [("lambda", c) for c in LAMBDA_CHARS]
                             + [("delta", c) for c in DELTA_CHARS])
    def test_series_matches_per_orbit_oracle(self, kind, chars):
        chi, psi = kronecker_character(chars[0]), kronecker_character(chars[1])
        fn = hp.lambda_indef if kind == "lambda" else hp.delta_indef
        for s in self.S_VALUES:
            for st in range(s, 61, s):
                for nu in (0, 1, 2):
                    got = fn(s, st // s, chi, psi, nu, 60)
                    want = _oracle_series(s, st // s, chi, psi, nu, 60)
                    assert got.coeffs.keys() == want.keys(), (s, st, nu)
                    for r, c in want.items():
                        assert type(got.coeffs[r]) is type(c), (s, st, nu, r)
                        assert got.coeffs[r] == c, (s, st, nu, r)

    @pytest.mark.parametrize("s, t, chars, nu", [(1, 13, (5, 5), 2),
                                                 (2, 3, (-4, 3), 1),
                                                 (1, 53, (-4, -4), 1)])
    def test_orbits_sharing_a_start_match_oracle(self, s, t, chars, nu):
        # the orbit sums are made once per start (u, n) mod L; at T = 500
        # orbits share their start with an earlier one
        chi, psi = kronecker_character(chars[0]), kronecker_character(chars[1])
        st, L = s * t, lcm(s * chi.modulus, psi.modulus)
        x, y = pell.pell_fundamental(st)
        orbits = [un for _, starts in pell._starts(s, st, x, y, 1, 500)
                  for un in starts]
        assert len({(u % L, n % L) for u, n in orbits}) < len(orbits)
        fn = hp.lambda_indef if chi.is_even else hp.delta_indef
        got = fn(s, t, chi, psi, nu, 500)
        want = _oracle_series(s, t, chi, psi, nu, 500)
        assert got.coeffs.keys() == want.keys()
        for r, c in want.items():
            assert type(got.coeffs[r]) is type(c), r
            assert got.coeffs[r] == c, r

    def test_double_sum_matches_per_orbit_oracle(self):
        for s, t in [(1, 2), (2, 3), (4, 3), (9, 2), (1, 53)]:
            for chi, psi in [(CHI5, CHI5), (CHI4, kronecker_character(3))]:
                for r in range(1, 31):
                    assert hp.indefinite_double_sum(s, t, chi, psi, 1, r) == \
                        _indef_coeff_orbit(s, t, chi, psi, 1, r), (s, t, r)


def _indef_coeff_orbit(s, t, chi, psi, nu, r):
    """Test oracle: the former per-orbit evaluation of the double sum.  An
    orbit's terms alpha * w^k are walked until (u, n) mod L recurs, L =
    s mod(chi) mod(psi), and the sum over that period is divided by
    1 - w^(period) in QuadExt: one division per orbit."""
    orbits = pell.pell_orbit(s, t, r)
    st, D, (x, y) = s * t, orbits.D, orbits.unit_xy
    w, terms = pell._terms(s, st, D, x, y, nu)
    total = QuadExt(0, 0, D)
    for m, n in orbits.fundamental_solutions:
        alpha = terms(m, n)
        walk = zip(pell._orbit(s * m, n, x, y, st, s * chi.modulus * psi.modulus),
                   pell._orbit(*alpha, *w, D))
        start, pa, pb = None, 0, 0
        for (u, v), (a, b) in walk:     # one period: until (u, v) mod L recurs
            if (u, v) == start:
                break
            start = start or (u, v)
            cv = chi(u // s) * psi(v)
            pa, pb = pa + cv * a, pb + cv * b
        # (a, b) = alpha w^P, so part / (1 - w^P) = part alpha / (alpha - (a, b))
        num = QuadExt(*pell._advance(pa, pb, *alpha, D), D)
        total = total + num / QuadExt(alpha[0] - a, alpha[1] - b, D)
    return total


def _indef_coeff_square(s, t, chi, psi, nu, r):
    """Test oracle: the former divisor loop of one r when s*t = c^2.
    s m^2 - t n^2 = r factors as (s m - c n)(s m + c n) = s r, so the sum
    (scaled by s^{nu+1/2}) is finite over the divisor pairs of s r."""
    c = isqrt(s * t)
    total = Fraction(0)
    sr = s * r
    for d in range(1, isqrt(sr) + 1):
        if sr % d:
            continue
        ee = sr // d
        if ee <= d:
            continue
        if (d + ee) % (2 * s) or (ee - d) % (2 * c):
            continue
        m = (d + ee) // (2 * s)
        n = (ee - d) // (2 * c)
        if m >= 1 and n >= 1:
            total += chi(m) * psi(n) * Fraction(d) ** (2 * nu + 1)
    return total


def _lambda_pa_loop(p, a, nu, T):
    """Test oracle: the former double loop of lambda_pa over (u, v) =
    (m - n, m + n) for each class of {a, -a}, plus the squares m^2."""
    e = 2 * nu + 1
    coeffs = {}
    for target in sorted({a % p, (-a) % p}):
        for u in range(1, T + 1):
            for v in range(u + 2, T // u + 1, 2):
                if (u + v) // 2 % p == target:
                    coeffs[u * v] = coeffs.get(u * v, 0) + 2 * u ** e
        for m in range(1, isqrt(T) + 1):
            if m % p == target:
                coeffs[m * m] = coeffs.get(m * m, 0) + m ** e
    return QSeries(coeffs, T)


def _oracle_series(s, t, chi, psi, nu, T):
    """Test oracle: the former series assembly, one double sum per r (the
    per-orbit oracle, or the divisor sum for square st), then the boundary
    terms and, for square s, the unscaling.  For square st the coefficients
    are ints: then t is a square with s, and the unscaling is exact."""
    double_sum = _indef_coeff_square if is_square(s * t) else _indef_coeff_orbit
    coeffs = {}
    for r in range(1, T + 1):
        v = 2 * double_sum(s, t, chi, psi, nu, r)
        if v:
            coeffs[r] = v
    if psi.modulus == 1:
        for rho in range(1, isqrt(T // s) + 1):
            term = chi(rho) * Fraction(s * rho) ** (2 * nu + 1)
            if term:
                coeffs[s * rho * rho] = coeffs.get(s * rho * rho, 0) + term
    if is_square(s):
        coeffs = {n: v / Fraction(isqrt(s)) ** (2 * nu + 1)
                  for n, v in coeffs.items()}
    if is_square(s * t):
        # integers, unscaled or not: a Fraction here fails the type check
        coeffs = {n: v.numerator if v.denominator == 1 else v
                  for n, v in coeffs.items()}
    return {n: v for n, v in coeffs.items() if v}


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past the given seconds."""
    def expire(*_):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _small_unit_cases():
    """(s, st) with s in {1, 2, 3}, s | st <= 200, st not a square and the
    unit's y <= 500."""
    return [(s, st) for s in (1, 2, 3) for st in range(max(s, 2), 201, s)
            if not is_square(st) and pell.pell_fundamental(st)[1] <= 500]


def _nagell_hits(s: int, st: int, T: int):
    """Test oracle: the former per-r scan to Nagell's bound, as sorted
    (r, u, n) hits for r <= T."""
    x, y = pell.pell_fundamental(st)
    hits = []
    for r in range(1, T + 1):
        for n in range(isqrt(y * y * s * r // (2 * (x + 1))) + 1):
            uu = s * r + st * n * n
            u = isqrt(uu)
            if u * u == uu and u % s == 0:
                hits.append((r, u, n))
    return sorted(hits)


def _linear_scan(s: int, t: int, r: int):
    """Test oracle: pell_orbit's former scan over every n <= y (sqrt(sr) + 1),
    returning fundamental_solutions."""
    st, sr = s * t, s * r
    x, y = pell.pell_fundamental(st)
    window = []
    for n in range(y * (isqrt(sr) + 1) + 1):
        uu = sr + st * n * n
        u = isqrt(uu)
        if u * u == uu and n * x - u * y < 0 and u % s == 0:
            window.append((u, n))
    fundamental = []
    for u, n in window:
        while n < 1 or u < s:
            u, n = pell._advance(u, n, x, y, st)
        fundamental.append((u // s, n))
    return sorted(fundamental)


def _dfloat(x) -> float:
    """Cancellation-free float of a QuadExt with huge entries."""
    from decimal import Decimal, getcontext
    getcontext().prec = 60
    if isinstance(x, QuadExt):
        return float(Decimal(x.a.numerator) / x.a.denominator
                     + Decimal(x.b.numerator) / x.b.denominator
                     * Decimal(x.D).sqrt())
    return float(x)


def _exact_partial_sum(s, t, chi, psi, e, r, M):
    D = squarefree_split(s * t)[1]
    c = isqrt(s * t // D)
    total = QuadExt(0, 0, D)
    for m in range(1, M + 1):
        v = s * m * m - r
        if v < 0 or v % t:
            continue
        n = isqrt(v // t)
        if n >= 1 and t * n * n == v:
            total = total + chi(m) * psi(n) * QuadExt(s * m, -c * n, D) ** e
    return total
