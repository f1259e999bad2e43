"""Named, exactly-checked identities between class numbers, divisor sums,
traces of Hecke operators, and indefinite theta series.

Every check returns a :class:`RelationReport` with an explicit index-set
policy, so a report can never silently skip indices.  All arithmetic is
exact (``fractions.Fraction`` or :class:`~qrel.scalars.QuadExt`); a check
passes only when both sides agree on every index in the policy set.  The
class number relations compare integers: both sides times 12 (or 24, or
4), summed from the ``12*H`` table of :class:`~qrel.arith.HurwitzCache`.

Each class number sum is a coefficient of a product of the class number
series with a theta series, the holomorphic projection of a Rankin-Cohen
bracket [H, theta]_nu.  The weight g_nu(s, n) is a polynomial in s^2 with
n-dependent coefficients (``g_poly``), so ``eichler``, ``cohen``,
``kronecker_hurwitz``, ``trace1_*`` and ``trace4_*``, which share one check
body (``_class_number_check``), each combine, by Horner in n, the nu + 1
moments A_k(m) = sum_s s^(2k) 12 H(m - s^2) that
:func:`~qrel.qseries.theta_moments` computes from the live table by residue
mod 4, skipping the zero classes m = 1, 2 (mod 4) of Kohnen's plus space.
The base (H theta^(p,0))|U(4) of ``cor_i`` and ``cor_ii`` is the moment A_0
over s = 0 (mod p) at m = 4n; both checks build each side as one integer
list times a common scale.

Where a widely printed form of an identity disagrees with direct
evaluation, the checker tests the candidate variants and records in the
report which one holds, rather than assuming either.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import comb, isqrt, lcm
from operator import mul, ne

from .arith import (_primes_upto, divisor_sieve, hurwitz_cache,
                    kronecker_character, pair_sieve, residue_class_sieve)
from .qseries import theta_moments
from .scalars import binom_parts, factorial, format_scalar


# ---------------------------------------------------------------------------
# Reports


class RelationReport:
    """The outcome of one check over the indices lo..hi of its policy set:
    failures as (n, lhs, rhs), how many indices were checked, notes and the
    elapsed time."""

    def __init__(self, relation: str, lo: int, hi: int, policy: str,
                 failures: list[tuple[int, object, object]] | None = None,
                 elapsed_ms: int = 0, notes: str = "", checked: int = 0):
        if hi < lo:
            raise ValueError(f"{relation} starts at {lo}; the range "
                             f"end must be at least {lo}, got {hi}")
        self.relation, self.lo, self.hi, self.policy = relation, lo, hi, policy
        self.failures = [] if failures is None else failures
        self.elapsed_ms, self.notes, self.checked = elapsed_ms, notes, checked

    @property
    def status(self) -> str:
        if self.failures:
            return "fail"
        return "pass" if self.checked > 0 else "partial"

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, n: int, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append((n, lhs, rhs))

    def record_lists(self, ns, lhs: list, rhs: list, scale: int) -> None:
        """Record l/scale = r/scale for each n of ns and its integers l and
        r, at the same position in lhs and rhs.  Equal lists are compared at
        once; only unequal entries make a failure, which holds both sides as
        exact Fractions, as reports hand them out."""
        if not len(ns) == len(lhs) == len(rhs):
            raise ValueError("ns, lhs and rhs must have the same length")
        self.checked += len(ns)
        if lhs != rhs:
            self.failures.extend((n, Fraction(l, scale), Fraction(r, scale))
                                 for n, l, r in zip(ns, lhs, rhs) if l != r)

    def record_best(self, ns, variants: dict, rhs: list, scale: int):
        """record_lists for the left side in variants (key -> list) with the
        fewest entries unequal to rhs, the first key on a tie; returns that
        key."""
        best = min(variants, key=lambda key: sum(map(ne, variants[key], rhs)))
        self.record_lists(ns, variants[best], rhs, scale)
        return best

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "range": [self.lo, self.hi],
            "policy": self.policy,
            "status": self.status,
            "failures": [{"n": n, "lhs": format_scalar(l), "rhs": format_scalar(r)}
                         for n, l, r in self.failures],
            "elapsed_ms": self.elapsed_ms,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary_line(self) -> str:
        extra = f"  [{self.notes}]" if self.notes else ""
        tail = "" if self.ok else f"  ({len(self.failures)} failures)"
        return (f"{self.relation:<22} [{self.lo},{self.hi}] {self.policy:<28} "
                f"{self.status}{tail}{extra}")


class _Timer:
    def __init__(self, report: RelationReport):
        self.report = report

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc):
        self.report.elapsed_ms = int((time.perf_counter() - self._t0) * 1000)
        return False


# ---------------------------------------------------------------------------
# Classical class number relations


def g_poly(nu: int, double_s: bool) -> list[int]:
    """The coefficients c_0..c_nu of g_nu(s, n) = sum_j c_j n^j s^(2nu-2j),
    the coefficient of X^(2nu) in 1/(1 - S X + n X^2), with S = 2s when
    double_s else S = s: c_j = (-1)^j C(2nu-j, j) S^(2nu-2j) / s^(2nu-2j).
    g_0 = 1 is the Eichler weight and g_1 = 4s^2 - n with S = 2s the Cohen
    weight."""
    return [(-1) ** j * comb(2 * nu - j, j) * (4 ** (nu - j) if double_s else 1)
            for j in range(nu + 1)]


def _g_sums(nu: int, double_s: bool, ns: range, ms: range) -> list[int]:
    """sum over s in Z, s^2 <= m, of g_nu(s, n) 12 H(m - s^2), for each pair
    (n, m) of ns and ms, from the moments A_k(m) of the live 12 H table:
    sum_j c_j n^j A_(nu-j)(m), by Horner in n, one list pass per j."""
    moments = theta_moments(hurwitz_cache().scaled_table(ms[-1]), ms, nu)
    c = g_poly(nu, double_s)
    out = [c[nu] * a for a in moments[0]]
    for j in range(nu - 1, -1, -1):
        out = [o * n + c[j] * a for o, n, a in zip(out, ns, moments[nu - j])]
    return out


def _class_number_check(name: str, nu: int, level: int, max_n: int,
                        sign: int = 1, rhs=None, lam_signs=(1,)) -> RelationReport:
    """sign (sum_s g_nu(s, n) 12 H(m - s^2) + k c 2 lambda_(2nu+1)(n))
    = r f(n), for n of the policy set and k of lam_signs: on level 4 odd n,
    m = n, S = 2s, c = 6 and r = 4; on level 1 all n, m = 4n, S = s, c = 12
    and r = 24.  f is rhs(max_n), a coefficient function, or 0 when rhs is
    None.  A relation stated for H itself (sign 1) is compared at scale
    12, a trace formula (sign -1) at scale r.  With two signs k, the one
    with fewer misses is recorded and named in the notes."""
    odd = level == 4
    rep = RelationReport(name, 1, max_n, "odd n" if odd else "all n")
    with _Timer(rep):
        step, c, r = (2, 6, 4) if odd else (1, 12, 24)
        ns = range(1, max_n + 1, step)
        tots = _g_sums(nu, odd, ns, ns if odd else range(4, 4 * max_n + 1, 4))
        lam = residue_class_sieve(max_n, 2 * nu + 1, 1, 0)[1::step]
        f = rhs(max_n) if rhs else lambda n: 0
        want = [r * f(n) for n in ns]
        best = rep.record_best(ns, {k: [sign * (t + k * c * v) for t, v in zip(tots, lam)]
                                    for k in lam_signs}, want, 12 if sign > 0 else r)
        if len(lam_signs) > 1:
            rep.notes = ("neither sign variant holds uniformly" if rep.failures else
                         f"variant that holds: {'+' if best > 0 else '-'}2*lambda_{2 * nu + 1}")
    return rep


def _sigma_1(T: int):
    return divisor_sieve(T).__getitem__


def check_eichler(max_n: int = 2000) -> RelationReport:
    """sum_s H(n - s^2) + lambda_1(n) = sigma_1(n)/3 for odd n."""
    return _class_number_check("eichler", 0, 4, max_n, rhs=_sigma_1)


def check_cohen(max_n: int = 2000) -> RelationReport:
    """sum_s (4s^2 - n) H(n - s^2) + lambda_3(n) = 0 for odd n."""
    return _class_number_check("cohen", 1, 4, max_n)


def check_kronecker_hurwitz(max_n: int = 2000) -> RelationReport:
    """sum_s H(4n - s^2) +- 2*lambda_1(n) = 2*sigma_1(n), all n.

    The two sign variants are in circulation; this checker tests both and
    reports which one holds uniformly.  Failures are reported against the
    better variant.
    """
    return _class_number_check("kronecker_hurwitz", 0, 1, max_n, rhs=_sigma_1,
                               lam_signs=(1, -1))


# ---------------------------------------------------------------------------
# Trace formulas


_TRACE1_DEFAULT_MAX = {1: 500, 2: 500, 3: 500, 4: 500, 5: 300}
_TRACE4_DEFAULT_MAX = {1: 999, 2: 301}


def check_trace_level1(nu: int, max_n: int | None = None) -> RelationReport:
    """-(1/2) sum_s g_nu(s,n) H(4n - s^2) - lambda_{2nu+1}(n) equals the
    trace of the n-th Hecke operator on level-1 cusp forms of weight
    2nu + 2: zero for nu in 1..4, the discriminant-form coefficient tau(n)
    for nu = 5."""
    if nu not in _TRACE1_DEFAULT_MAX:
        raise ValueError(f"no trace oracle for nu={nu}; supported: 1..5")
    if max_n is None:
        max_n = _TRACE1_DEFAULT_MAX[nu]
    from . import forms
    return _class_number_check(
        f"trace1_nu{nu}", nu, 1, max_n, -1,
        (lambda T: forms.delta12(T).coeff) if nu == 5 else None)


def check_trace_level4(nu: int, max_n: int | None = None) -> RelationReport:
    """-3 sum_s g_nu(2s-form; s,n) H(n - s^2) - 3 lambda_{2nu+1}(n) equals
    the trace on level-4 cusp forms of weight 2nu + 2 for odd n: zero for
    nu = 1, the coefficients of the weight-6 eta product on level 4 for
    nu = 2."""
    if nu not in _TRACE4_DEFAULT_MAX:
        raise ValueError(f"no trace oracle for nu={nu}; supported: 1, 2")
    if max_n is None:
        max_n = _TRACE4_DEFAULT_MAX[nu]
    from . import forms
    return _class_number_check(
        f"trace4_nu{nu}", nu, 4, max_n, -1,
        (lambda T: forms.eta2_pow12(T).coeff) if nu == 2 else None)


# ---------------------------------------------------------------------------
# Residue-restricted class number sums


# 12 H_{a,5}(ell) = c ell + d for a prime ell != 5, as (c, d) keyed by
# (min(a, 5 - a), ell mod 5), in the cases where a closed form exists (none
# has ell mod 5 = 0, so ell = 5 is skipped).
_HAP5_CLOSED_FORMS = {
    (0, 1): (6, 6), (0, 2): (4, 4), (0, 3): (4, 4),
    (1, 1): (4, 4), (1, 2): (4, 4), (1, 4): (5, 5),
    (2, 1): (5, -7), (2, 3): (4, 4), (2, 4): (4, 4),
}


def check_hap_table(max_prime: int = 200) -> RelationReport:
    """H_{a,5}(ell) = sum over s = a (mod 5) of H(4 ell - s^2) matches its
    closed form for every prime ell != 5 up to max_prime and every residue
    a mod 5."""
    rep = RelationReport("hap_table", 2, max_prime,
                         "prime ell != 5, a mod 5, tabulated cases")
    with _Timer(rep):
        tab = hurwitz_cache().scaled_table(4 * max_prime)
        ns, lhs, rhs = [], [], []
        for ell in _primes_upto(max_prime):
            m, smax = 4 * ell, isqrt(4 * ell)
            for a in range(5):
                form = _HAP5_CLOSED_FORMS.get((min(a, 5 - a), ell % 5))
                if form is None:
                    continue
                ns.append(10 * ell + a)
                lhs.append(sum([tab[m - s * s] for s in
                                range(a - (a + smax) // 5 * 5, smax + 1, 5)]))
                rhs.append(form[0] * ell + form[1])
        rep.record_lists(ns, lhs, rhs, 12)
    return rep


# ---------------------------------------------------------------------------
# Quasi-modular identities on level 25 and 49


def _add(out: list[int], at: slice, c: int, values) -> None:
    """out[at] += c * values, entry by entry, for a strided slice at."""
    out[at] = [u + c * v for u, v in zip(out[at], values)]


def _theta_d_side(p: int, T: int, scale: int, c1: int, classes) -> list[int]:
    """scale times (H * theta^{(p,0)})|U(4) + c1 D_1^{(1,0)}|V(p^2)
    + 2 sum over (a, r) in classes of D_1^{(p,a)}|S_{p,r}, for 0 <= n <= T:
    the moments A_0(4n), and each D-series added by one strided slice."""
    sums, = theta_moments(hurwitz_cache().scaled_table(4 * T),
                          range(0, 4 * T + 1, 4), 0, p)
    out = [scale // 12 * v for v in sums]
    _add(out, slice(None, None, p * p), scale * c1,
         residue_class_sieve(T // (p * p), 1, 1, 0))
    for a, r in classes:
        _add(out, slice(r, None, p), 2 * scale,
             residue_class_sieve(T, 1, p, a)[r::p])
    return out


def check_cor_i(max_n: int = 1000) -> RelationReport:
    """Level-25 weight-2 identity:

        (H * theta^{(5,0)})|U(4) + 5 D_1^{(1,0)}|V(25)
          + 2 D_1^{(5,1)}|S_{5,4} + 2 D_1^{(5,2)}|S_{5,r}
        = (1/2) G_2 + (1/12) (G_2 (x) chi_5 - G_2 (x) chi_5^2)
          - G_2|V(5) + (5/2) G_2|V(25).

    The sieve residue r on the D_1^{(5,2)} term circulates both as 4 and
    as 1; both are tested and the report records which closes the
    identity.  The twist G_2 (x) chi_5 - G_2 (x) chi_5^2 is read as the
    twist by n -> chi_5(n) - chi_5(n)^2, which is the same series.
    """
    rep = RelationReport("cor_i", 0, max_n, "all n")
    with _Timer(rep):
        # times 48
        T = max_n
        diff = [c - c * c for c in kronecker_character(5).values][:T + 1]
        sigma = divisor_sieve(T)
        g24 = [-1] + [24 * v for v in sigma[1:]]           # 24 G_2
        rhs = g24[:]
        for r, w in enumerate(diff):
            _add(rhs, slice(r, None, 5), 4 * w, sigma[r::5])
        _add(rhs, slice(None, None, 5), -2, g24)
        _add(rhs, slice(None, None, 25), 5, g24)
        common = _theta_d_side(5, T, 48, 5, [(1, 4)])
        d52 = residue_class_sieve(T, 1, 5, 2)
        variants = {r: common[:] for r in (1, 4)}
        for r, lhs in variants.items():
            _add(lhs, slice(r, None, 5), 96, d52[r::5])
        best = rep.record_best(range(T + 1), variants, rhs, 48)
        rep.notes = f"sieve residue on D_1^(5,2): {best}"
    return rep


def check_cor_ii(max_n: int = 500) -> RelationReport:
    """Level-49 weight-2 identity on n supported on primes >= 5, != 7:

        (H * theta^{(7,0)})|U(4) + 7 D_1^{(1,0)}|V(49)
          + 2 D_1^{(7,2)}|S_{7,3} + 2 D_1^{(7,4)}|S_{7,5} + 2 D_1^{(7,1)}|S_{7,6}
        = (1/4) G_2 - (1/24) G_2 (x) (chi_7 - chi_7^2) + (1/4) g_7,

    with g_7 the weight-2 newform of the curve 49a1
    (y^2 = x^3 - 2835 x - 71442), built as its CM theta series
    (forms.g7); point counts plus the Hecke recursion are its test oracle.
    """
    rep = RelationReport("cor_ii", 1, max_n,
                         "n with prime support >= 5 and != 7")
    with _Timer(rep):
        # times 24, on the support of g_7
        from . import forms
        T = max_n
        chi7 = kronecker_character(7)
        lhs = _theta_d_side(7, T, 24, 7, [(2, 3), (4, 5), (1, 6)])
        sigma = divisor_sieve(T)
        g7 = forms.g7(T)
        ns = sorted(g7.defined)
        rep.record_lists(ns, [lhs[n] for n in ns],
                         [(6 - chi7(n) + chi7(n) ** 2) * sigma[n] + 6 * g7.coeff(n)
                          for n in ns], 24)
    return rep


# ---------------------------------------------------------------------------
# Residue-class partial sums and their image under U(4)


def w_term(p: int, a: int, e: int, T: int) -> list[int]:
    """For 0 <= n <= T: 2 sum over divisors alpha of n with alpha < sqrt(n),
    alpha = 0 (p), n/alpha = +-a (p), of alpha^e."""
    targets = {a % p, -a % p}
    return pair_sieve(T, ((d, f, 2 * d ** e) for d in range(p, isqrt(T) + 1, p)
                          for f in range(d + 1, d + 1 + p) if f % p in targets), p)


def prop72_rhs(p: int, a: int, nu: int, T: int, d: dict) -> list[int]:
    """Divisor-sum expansion of Lambda^{(p,a)}_nu | U(4), for 0 <= n <= T.

    For a = 0 this is the commonly printed form; for a != 0 the printed
    form omits one of the two residue families and misstates the
    square-divisor threshold, and the corrected assembly below is the one
    that holds (verified exactly for p in {5,7}, nu in {0,1}, n <= 500).
    d[c] is D^{(p,c)}_{2nu+1} up to T, and d[0] is D^{(1,0)}_{2nu+1} up
    to T/p^2, which V(p^2) lifts to the class 0.
    """
    e = 2 * nu + 1
    total = [0] * (T + 1)
    for c in range(1, p):
        for b in {a % p, -a % p}:       # one class for a = 0
            r = c * (b - c) % p         # D^{(p,c)}_e | S_{p,r}; r = 0 at c = b
            _add(total, slice(r, None, p), 1, d[c][r::p])
    if a % p == 0:      # p^e D^{(1,0)}_e | V(p^2)
        _add(total, slice(None, None, p * p), p ** e, d[0])
    else:
        total = [u + v for u, v in zip(total, w_term(p, a, e, T))]
    return [2 ** e * v for v in total]


def check_prop72(max_n: int = 500, primes: tuple[int, ...] = (5, 7),
                 nus: tuple[int, ...] = (0, 1)) -> RelationReport:
    """Lambda^{(p,a)}_nu | U(4) equals its divisor-sum expansion for every
    residue a, coefficientwise, compared as integers."""
    rep = RelationReport("prop72", 1, max_n,
                         f"all n; p in {list(primes)}, nu in {list(nus)}, all a")
    with _Timer(rep):
        from . import holproj
        ns = range(1, max_n + 1)
        for p in primes:
            for nu in nus:
                d = [residue_class_sieve(max_n // (p * p), 2 * nu + 1, 1, 0)] + [
                    residue_class_sieve(max_n, 2 * nu + 1, p, c) for c in range(1, p)]
                # a and p - a name the same class set {a, -a}: build it once
                sides = {}
                for a in range(p // 2 + 1):     # U(4): the coefficients at 4n
                    lam = holproj.lambda_pa(p, a, nu, 4 * max_n).coeffs
                    sides[a] = ([lam.get(4 * n, 0) for n in ns],
                                prop72_rhs(p, a, nu, max_n, d)[1:])
                for a in range(p):
                    rep.record_lists(ns, *sides[min(a, p - a)], 1)
    return rep


# ---------------------------------------------------------------------------
# Exact combinatorial and polynomial identity suite


def _binomial_sums(nu_max: int) -> tuple[list, list]:
    """The failures of the even and the odd binomial identity, for j <= nu:
    sum_mu (-1)^mu/(mu - j + 1/2) * (4nu-2mu-1)! / ((2(nu-mu))! (2nu-mu-1)! mu!)
    = 2^{4nu} (-1)^j (2nu-j)! j! / ((2j)! (2(nu-j)+1)!), for nu > 0;
    sum_mu (-1)^mu/(2(j-mu)+1) * (4nu-2mu+1)! / ((2(nu-mu)+1)! (2nu-mu)! mu!)
    = (-1)^j 2^{4nu} (2nu-j)! j! / ((2(nu-j))! (2j+1)!).
    With one denominator L = lcm(1, 3, ..., 2nu+1) per nu, each left side
    times L is the sum of the integer multinomials times one slice of the
    quotients L // k, k odd from 1-2nu to 2nu+1; the even side at j = nu - s
    and the odd side at j = s read the slice at s.  So the multinomials are
    packed as even + (odd << K) with |even sum| < 2^(K-1), one sum gives
    both sides, and each is cross-multiplied with its right side."""
    fact = [factorial(n) for n in range(2 * nu_max + 2)]
    bad = ([], [])
    for nu in range(nu_max + 1):
        L = lcm(*range(1, 2 * nu + 2, 2))
        quot = [L // k for k in range(1 - 2 * nu, 2 * nu + 2, 2)]
        m_even = [(-1) ** mu * 2 * comb(4 * nu - 2 * mu - 1, 2 * nu - 2 * mu)
                  * comb(2 * nu - 1, mu) for mu in range(nu + 1)] if nu else [0]
        m_odd = [(-1) ** mu * comb(4 * nu - 2 * mu + 1, 2 * nu - 2 * mu + 1)
                 * comb(2 * nu, mu) for mu in range(nu, -1, -1)]
        K = (sum(map(abs, m_even)) * L).bit_length() + 1
        both, half = [e + (o << K) for e, o in zip(m_even, m_odd)], 1 << K - 1
        sums = []
        for s in range(nu + 1):
            S = sum(map(mul, both, quot[s:s + nu + 1]))
            lo = ((S + half) & (2 * half - 1)) - half
            sums.append((lo, (S - lo) >> K))
        for odd in (0, 1) if nu else (1,):
            for j in range(nu + 1):
                s = j if odd else nu - j
                num = (-1) ** j * fact[2 * nu - j] * fact[j] << 4 * nu
                den = fact[2 * (nu - s)] * fact[2 * s + 1]
                if sums[s][odd] * den != num * L:
                    bad[odd].append((100 * nu + j, Fraction(sums[s][odd], L),
                                     Fraction(num, den)))
    return bad


def _p_poly_rewrites(a_max: int) -> list[tuple[int, object, object]]:
    """The two closed rewrites of P_{a,b}: as sum_j C(a+b-3,j) X^j Y^{a-2-j}
    and as sum_j C(a+b-3,a-2-j) C(j+b-2,j) (X+Y)^{a-2-j} (-Y)^j, for
    half-integer b = p/2 not in {1, 2}.  Both are integer lists over
    L = 2^d d!, d = a - 2, cross-multiplied with holproj.p_poly_ints."""
    from . import holproj
    bad = []
    for a in range(2, a_max + 1):
        d = a - 2
        L = 2 ** d * factorial(d)
        for bi, p in enumerate((-3, -1, 1, 5, 7)):
            P, D = holproj.p_poly_ints(a, p, 2)
            top = [binom_parts(p + 2 * (a - 3), 2, j) for j in range(d + 1)]
            alt1 = [num * (L // den) for num, den in top]
            alt2 = [0] * (d + 1)
            for j in range(d + 1):
                (n1, d1), (n2, d2) = top[d - j], binom_parts(p + 2 * (j - 2), 2, j)
                c = (-1) ** j * n1 * n2 * (L // (d1 * d2))
                e = d - j
                for i in range(e + 1):
                    alt2[i] += c * comb(e, i)
            if alt1 != alt2 or [v * L for v in P] != [v * D for v in alt1]:
                bad.append((10 * a + bi, Fraction(0), Fraction(1)))
    return bad


def _subst_squares(P: list[int]) -> list[int]:
    """P(x^2 - y^2, y^2) for P homogeneous of degree d, as the list of its
    2d + 1 coefficients indexed by the power of x, by Horner in x^2 - y^2:
    h <- h (x^2 - y^2) + P[i] y^(2(d-i)) for i = d..0, on the even powers."""
    h = []
    for c in reversed(P):
        h = [u - v for u, v in zip([c] + h, h + [0])]
    out = [0] * (2 * len(P) - 1)
    out[::2] = h
    return out


def _closed_sum_holds(nu: int, odd: int) -> bool:
    """The closed sum of parity odd (0 or 1) at nu as a polynomial identity
    in x, y, homogeneous of degree 4nu + odd:
    sum_mu c_mu (P_{2nu+2,1/2+odd-mu}(x^2-y^2, y^2) y^odd - x^{4nu-2mu-1+2odd})
    = (-1)^odd 4^{-nu} C(2nu,nu) x^{2nu-1+odd} (x-y)^{2nu+1}, with
    c_mu = C(nu+1/2-odd, nu-mu) C(nu-1/2+odd, mu).  Each mu-term is an
    integer list over its own denominator; all are scaled to their lcm L,
    summed, and substituted once."""
    from . import holproj
    terms = []
    for mu in range(nu + 1):
        n1, d1 = binom_parts(2 * nu + 1 - 2 * odd, 2, nu - mu)
        n2, d2 = binom_parts(2 * nu - 1 + 2 * odd, 2, mu)
        P, D = holproj.p_poly_ints(2 * nu + 2, 1 + 2 * odd - 2 * mu, 2)
        terms.append((n1 * n2, d1 * d2 * D, P, D))
    L = lcm(4 ** nu, *(den for _, den, _, _ in terms))
    P_sum = [0] * (2 * nu + 1)
    monomials = [0] * (4 * nu + 1 + odd)
    for mu, (num, den, P, D) in enumerate(terms):
        f = num * (L // den)
        P_sum = [u + f * v for u, v in zip(P_sum, P)]
        monomials[4 * nu - 2 * mu - 1 + 2 * odd] += f * D
    # times y^odd: one more entry, as the list is indexed by the power of x
    lhs = [u - v for u, v in zip(_subst_squares(P_sum) + [0] * odd, monomials)]
    c, e = (-1) ** odd * comb(2 * nu, nu) * (L >> 2 * nu), 2 * nu + 1
    return lhs == [0] * (e - 2 + odd) + [c * comb(e, i) * (-1) ** (e - i)
                                         for i in range(e + 1)]


def _closed_sum_even(nu_max: int) -> list[tuple[int, object, object]]:
    """sum_mu C(nu+1/2, nu-mu) C(nu-1/2, mu)
    (m^{1/2-nu} P_{2nu+2,1/2-mu}(m-n, n) - n^{1/2+mu} m^{nu-mu})
    = 2^{-2nu} C(2nu,nu) (sqrt(m) - sqrt(n))^{2nu+1}, as a polynomial
    identity after m = x^2, n = y^2 (cleared of half powers by x^{2nu-1};
    the nu = 0 case is checked pointwise since that factor is 1/x)."""
    from . import holproj
    bad = []
    P, D = holproj.p_poly_ints(2, 1, 2)
    for x in (2, 3, 5, 7):
        for y in (1, 2, 3, 4):
            got = x * holproj.poly_eval(P, x * x - y * y, y * y) - y * D
            if got != (x - y) * D:
                bad.append((x * 10 + y, Fraction(got, D), Fraction(x - y)))
    return bad + [(nu, Fraction(0), Fraction(1)) for nu in range(1, nu_max + 1)
                  if not _closed_sum_holds(nu, 0)]


def _closed_sum_odd(nu_max: int) -> list[tuple[int, object, object]]:
    """sum_mu C(nu-1/2, nu-mu) C(nu+1/2, mu)
    (m^{-nu-1/2} P_{2nu+2,3/2-mu}(m-n, n) - n^{mu-1/2} m^{nu-mu})
    = -2^{-2nu} C(2nu,nu) (mn)^{-1/2} (sqrt(m) - sqrt(n))^{2nu+1},
    as a polynomial identity after m = x^2, n = y^2 (cleared by
    x^{2nu+1} y)."""
    return [(nu, Fraction(0), Fraction(1)) for nu in range(nu_max + 1)
            if not _closed_sum_holds(nu, 1)]


def _kappa_closed_form(nu_max: int) -> list[tuple[int, object, object]]:
    """kappa(3/2, 1/2, nu) = 2^{1-2nu} sqrt(pi) C(2nu, nu)."""
    from . import holproj
    bad = []
    for nu in range(nu_max + 1):
        got = holproj.kappa(holproj.BracketSpec(Fraction(3, 2), Fraction(1, 2), nu))
        want = 2 * comb(2 * nu, nu)
        if got.e != 1 or got.r.numerator << 2 * nu != want * got.r.denominator:
            bad.append((nu, got.r, Fraction(want, 4 ** nu)))
    return bad


def check_identities() -> RelationReport:
    """Runs the exact combinatorial identity suite: the two P_{a,b}
    rewrites, the even and odd binomial summation identities, the two
    closed summation formulas after the square substitution, and the
    closed form of the projection constant kappa."""
    a_max, binom_max, closed_max, kappa_max = 12, 40, 8, 20
    rep = RelationReport("identities", 0, 0,
                         f"p_poly a<={a_max}; binomial nu<={binom_max}; "
                         f"closed sums nu<={closed_max}; kappa nu<={kappa_max}")
    with _Timer(rep):
        even, odd = _binomial_sums(binom_max)
        suites = [
            ("p_poly_rewrites", _p_poly_rewrites(a_max)),
            ("binomial_even", even),
            ("binomial_odd", odd),
            ("closed_sum_even", _closed_sum_even(closed_max)),
            ("closed_sum_odd", _closed_sum_odd(closed_max)),
            ("kappa_closed_form", _kappa_closed_form(kappa_max)),
        ]
        for base, (name, bad) in enumerate(suites):
            rep.checked += 1
            rep.failures.extend((base * 100000 + idx, l, r) for idx, l, r in bad)
        rep.notes = "; ".join(name for name, _ in suites)
    return rep


# ---------------------------------------------------------------------------
# Registry


def _ranged(check, *args):
    """Registry entry for check(*args, max_n): max_n is passed only when
    given, so each default range lives in the check's signature alone."""
    return lambda max_n=None: check(*args) if max_n is None else check(*args, max_n)


_REGISTRY: dict[str, object] = {
    "eichler": _ranged(check_eichler),
    "cohen": _ranged(check_cohen),
    "kronecker_hurwitz": _ranged(check_kronecker_hurwitz),
    "trace1_nu1": _ranged(check_trace_level1, 1),
    "trace1_nu2": _ranged(check_trace_level1, 2),
    "trace1_nu3": _ranged(check_trace_level1, 3),
    "trace1_nu4": _ranged(check_trace_level1, 4),
    "trace1_nu5": _ranged(check_trace_level1, 5),
    "trace4_nu1": _ranged(check_trace_level4, 1),
    "trace4_nu2": _ranged(check_trace_level4, 2),
    "hap_table": _ranged(check_hap_table),
    "cor_i": _ranged(check_cor_i),
    "cor_ii": _ranged(check_cor_ii),
    "prop72": _ranged(check_prop72),
    "identities": _ranged(check_identities),
}
# Checks whose parameter ranges are fixed: a range end given for one alone
# is an error, and verify_all runs them at their fixed ranges.
_FIXED_RANGE = {"identities"}


def relation_ids() -> list[str]:
    return list(_REGISTRY)


def run_check(relation_id: str, max_n: int | None = None) -> RelationReport:
    if relation_id not in _REGISTRY:
        raise KeyError(f"unknown relation {relation_id!r}; "
                       f"known: {', '.join(_REGISTRY)}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"the range end must be at least 1, got {max_n}")
    if max_n is not None and relation_id in _FIXED_RANGE:
        raise ValueError(f"{relation_id} has fixed parameter ranges; "
                         f"a range end (--max) does not apply to it")
    return _REGISTRY[relation_id](max_n)


def verify_all(max_n: int | None = None) -> list[RelationReport]:
    """Run every registered check, in registry order, at its default range
    (or at max_n for all of them when given, except the fixed-range ones)."""
    # load the modules the checks import lazily before their temporaries,
    # which otherwise raise the peak RSS of the run
    from . import forms, holproj  # noqa: F401
    return [run_check(rid, None if rid in _FIXED_RANGE else max_n)
            for rid in _REGISTRY]
