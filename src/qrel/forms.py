"""Builders for every concrete q-expansion used by the relation checks and
named by the series ids of the command line (``qrel.cli`` parses the ids).

All builders are deterministic; those of a truncation alone are memoized.
The eta products (``eta_product``, from Jacobi's identity and the Euler
function) live here, with their only callers ``delta12`` and
``eta2_pow12``.  The builders that read the class number table
(:mod:`qrel.classnum`) or :mod:`qrel.arith` import it themselves
(DirichletCharacter is named in annotations only), so that the eta
products load neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, isqrt
from operator import mul

from .qseries import QSeries, _check_trunc


@cache
def hurwitz_series(T: int) -> QSeries:
    """Generating function of the Hurwitz class numbers, constant -1/12."""
    from .classnum import hurwitz_cache
    table = hurwitz_cache().scaled_table(T)
    return QSeries({n: Fraction(v, 12) for n, v in enumerate(table[:T + 1]) if v}, T)


def _unary_theta(s: int, weight, T: int) -> QSeries:
    """The one unary-theta loop: sum over n in Z of weight(n) q^{s n^2}."""
    coeffs = {}
    n = 0
    while s * n * n <= T:
        c = weight(n) + weight(-n) if n else weight(0)
        if c:
            coeffs[s * n * n] = c
        n += 1
    return QSeries(coeffs, T)


@cache
def theta_classical(T: int) -> QSeries:
    """1 + 2*sum q^{n^2}."""
    return _unary_theta(1, lambda n: 1, T)


def theta_half(s: int, chi: DirichletCharacter, T: int) -> QSeries:
    """Weight 1/2 unary theta: sum over n in Z of chi(n) q^{s n^2}."""
    if s < 1:
        raise ValueError("s must be positive")
    if not chi.is_even:
        raise ValueError("theta_half needs an even character")
    return _unary_theta(s, chi, T)


def theta_three_half(s: int, chi: DirichletCharacter, T: int) -> QSeries:
    """Weight 3/2 unary theta: sum over n in Z of n*chi(n) q^{s n^2}."""
    if s < 1:
        raise ValueError("s must be positive")
    if not chi.is_odd:
        raise ValueError("theta_three_half needs an odd character")
    return _unary_theta(s, lambda n: n * chi(n), T)


def theta_congruence(p: int, a: int, T: int) -> QSeries:
    """sum over n in Z, n = a (mod p), of q^{n^2}."""
    if not 0 <= a < p:
        raise ValueError("need 0 <= a < p")
    return _unary_theta(1, lambda n: int(n % p == a), T)


@cache
def eisenstein_g2(T: int) -> QSeries:
    """G_2 = -1/24 + sum sigma_1(n) q^n."""
    from . import arith
    sigma = arith.divisor_sieve(T)
    coeffs: dict[int, Fraction | int] = dict(enumerate(sigma))
    coeffs[0] = Fraction(-1, 24)
    return QSeries(coeffs, T)


def eta_product(factors, T: int) -> QSeries:
    """q-expansion of prod_d eta(d*tau)^{e_d} for factors [(d, e), ...].

    The leading power sum(d*e)/24 must be a nonnegative integer, every d
    positive and every e nonnegative.  Each prod (1 - q^{dn})^e is
    (J^(e // 3) E^(e % 3))|V(d) to T // d, with the sparse J = E^3 of
    Jacobi's identity and Euler function E: Delta = q J^8 takes three
    squarings, and eta(2 tau)^12 = q (J^4)|V(2) two at half the length.
    The first power and q^lead are exponent shifts, not products.
    """
    lead = Fraction(sum(d * e for d, e in factors), 24)
    if lead.denominator != 1 or lead < 0:
        raise ValueError(f"leading q-power {lead} is not a nonnegative integer")
    if any(e < 0 for _, e in factors):
        raise ValueError(f"negative exponents are not supported: {factors}")
    if any(d < 1 for d, _ in factors):
        raise ValueError(f"every d must be positive: {factors}")
    _check_trunc(T)
    lead = int(lead)
    t = T - lead                           # the factors are needed to q^t
    lifted = []
    for d, e in factors if t >= 0 else ():
        powers = [base(1, t // d) ** m for base, m in
                  ((_jacobi_cube, e // 3), (_euler_function, e % 3)) if m]
        if powers:
            lifted.append(QSeries({d * n: c for n, c in
                                   reduce(mul, powers).coeffs.items()}, t))
    coeffs = reduce(mul, lifted).coeffs if lifted else {0: 1} if t >= 0 else {}
    return QSeries({n + lead: c for n, c in coeffs.items()}, T)


def _jacobi_cube(d: int, T: int) -> QSeries:
    """prod_{n>=1} (1 - q^{d n})^3 = sum_{k>=0} (-1)^k (2k+1) q^{d k(k+1)/2},
    Jacobi's identity."""
    return QSeries({d * k * (k + 1) // 2: (-1) ** k * (2 * k + 1)
                    for k in range(isqrt(2 * T // d) + 1)}, T)


def _euler_function(d: int, T: int) -> QSeries:
    """prod_{n>=1} (1 - q^{d n}) via pentagonal numbers: (-1)^k at the
    distinct d k(3k -+ 1)/2 <= T, k >= 1, all of which have k^2 <= T/d."""
    coeffs = {0: 1}
    for k in range(1, isqrt(T // d) + 1):
        for g in (d * k * (3 * k - 1) // 2, d * k * (3 * k + 1) // 2):
            if g <= T:
                coeffs[g] = (-1) ** k
    return QSeries(coeffs, T)


@cache
def delta12(T: int) -> QSeries:
    """eta(tau)^24, the discriminant cusp form of weight 12."""
    return eta_product([(1, 24)], T)


@cache
def eta2_pow12(T: int) -> QSeries:
    """eta(2*tau)^12, the weight 6 newform on Gamma_0(4)."""
    return eta_product([(2, 12)], T)


class PartialSeries:
    """q-expansion defined only on an explicit index set.

    Querying an undefined index raises instead of returning 0; used for the
    weight 2 newform of level 49, whose coefficients at 2, 3, 7 we refuse to
    guess: point counting on the curve's short Weierstrass model is invalid
    there, and the theta series of g7 sums over Z[sqrt(-7)], which misses
    the newform at 2 (its a(2) reads 0, not 1).
    """

    def __init__(self, coeffs: dict[int, int], defined: set[int], trunc: int):
        self.coeffs = coeffs
        self.defined = defined
        self.trunc = trunc

    def coeff(self, n: int) -> int:
        if n not in self.defined:
            raise KeyError(f"coefficient a({n}) is not defined")
        return self.coeffs.get(n, 0)


def g7_support(max_n: int) -> list[int]:
    """Indices <= max_n prime to 42: supported on primes >= 5 and != 7."""
    return [n for n in range(1, max_n + 1) if gcd(n, 42) == 1]


@cache
def g7(T: int) -> PartialSeries:
    """Coefficients of the level 49 weight 2 newform, the newform of the
    CM curve 49a1 (y^2 = x^3 - 2835 x - 71442).

    The curve has CM by Q(sqrt(-7)), so its newform is Hecke's theta series
    with a Groessencharacter (Deuring; Ono, The Web of Modularity, Thm. 1.31):
    1/2 sum over a, b in Z of (a|7) a q^{a^2 + 7 b^2}, the product of
    theta_{3/2}(chi_7) and theta|V(7), halved.  Every coefficient of that
    product is even.  Defined only on indices supported on primes >= 5,
    != 7 (see PartialSeries); no class number is read.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    from . import arith
    product = (theta_three_half(1, arith.kronecker_character(7), T)
               * theta_classical(-(-T // 7)).v_op(7).truncate(T))
    defined = set(g7_support(T))
    return PartialSeries({n: c // 2 for n, c in product.coeffs.items() if n in defined},
                         defined, T)
