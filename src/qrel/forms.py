"""Builders for every concrete q-expansion used by the relation checks and
named by the series ids of the command line (``qrel.cli`` parses the ids).

All builders are deterministic; those of a truncation alone are memoized.
The two eta products the checks need, Delta = eta(tau)^24 (``delta12``)
and eta(2 tau)^12 (``eta2_pow12``), are powers of Jacobi's
J = prod (1 - q^n)^3 (``_q_jacobi_power``).  The builders that read the
class number table (:mod:`qrel.classnum`) or :mod:`qrel.arith` import it
themselves (DirichletCharacter is named in annotations only), so that
the eta products load neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt

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


def _q_jacobi_power(m: int, d: int, T: int) -> QSeries:
    """q J(q^d)^m to q^T, with J = prod_{n>=1} (1 - q^n)^3
    = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2} by Jacobi's identity.  J is
    needed to q^((T - 1) // d); J^m takes the squarings of QSeries.__pow__,
    and q J(q^d)^m is the exponent map n -> d n + 1, not a product."""
    _check_trunc(T)
    t = (T - 1) // d
    if t < 0:
        return QSeries({}, T)
    jacobi = QSeries({k * (k + 1) // 2: (-1) ** k * (2 * k + 1)
                      for k in range(isqrt(2 * t) + 1)}, t)
    return QSeries({d * n + 1: c for n, c in (jacobi ** m).coeffs.items()}, T)


@cache
def delta12(T: int) -> QSeries:
    """eta(tau)^24 = q J^8, the discriminant cusp form of weight 12."""
    return _q_jacobi_power(8, 1, T)


@cache
def eta2_pow12(T: int) -> QSeries:
    """eta(2*tau)^12 = q J(q^2)^4, the weight 6 newform on Gamma_0(4)."""
    return _q_jacobi_power(4, 2, T)


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
