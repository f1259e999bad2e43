"""The exact combinatorial and polynomial identity suite (``identities``),
a check of the registry in :mod:`qrel.relations`: the two rewrites of
P_{a,b}, the even and odd binomial summation identities, the two closed
summation formulas and the closed form of the projection constant kappa,
each compared as integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul

from . import brackets
from .relations import RelationReport, _Timer
from .scalars import binom_parts, factorial


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
    L = 2^d d!, d = a - 2, cross-multiplied with brackets.p_poly_ints."""
    bad = []
    for a in range(2, a_max + 1):
        d = a - 2
        L = 2 ** d * factorial(d)
        for bi, p in enumerate((-3, -1, 1, 5, 7)):
            P, D = brackets.p_poly_ints(a, p, 2)
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
    terms = []
    for mu in range(nu + 1):
        n1, d1 = binom_parts(2 * nu + 1 - 2 * odd, 2, nu - mu)
        n2, d2 = binom_parts(2 * nu - 1 + 2 * odd, 2, mu)
        P, D = brackets.p_poly_ints(2 * nu + 2, 1 + 2 * odd - 2 * mu, 2)
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
    bad = []
    P, D = brackets.p_poly_ints(2, 1, 2)
    for x in (2, 3, 5, 7):
        for y in (1, 2, 3, 4):
            got = x * brackets.poly_eval(P, x * x - y * y, y * y) - y * D
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
    bad = []
    for nu in range(nu_max + 1):
        got = brackets.kappa(brackets.BracketSpec(Fraction(3, 2), Fraction(1, 2), nu))
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
