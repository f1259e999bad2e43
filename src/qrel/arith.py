"""Number-theoretic primitives: divisor sums and sieves, and real
Dirichlet characters.  The Hurwitz class number table is in
:mod:`qrel.classnum`, whose ``HurwitzCache``, ``hurwitz`` and
``hurwitz_cache`` still resolve here (PEP 562); the theta moments of the
table are in :mod:`qrel.slots`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from importlib import import_module
from math import isqrt


def divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def sigma_k(n: int, k: int) -> int:
    """Sum of k-th powers of the divisors of n."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(d ** k for d in divisors(n))


def lambda_k(n: int, k: int) -> Fraction:
    """(1/2) * sum over d | n of min(d, n/d)^k."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(sum(min(d, n // d) ** k for d in divisors(n)), 2)


def divisor_sieve(max_n: int) -> list[int]:
    """sigma_1(n) for 0 <= n <= max_n (entry 0 is 0), from one sieve over the
    divisor pairs n = d*m, d <= m.  2*lambda_k is residue_class_sieve at
    p = 1."""
    sigma = [0] * (max_n + 1)
    for d in range(1, isqrt(max_n) + 1):
        sigma[d * d] += d
        pairs = slice(d * (d + 1), max_n + 1, d)
        sigma[pairs] = [v + d + m for v, m in
                        zip(sigma[pairs], range(d + 1, max_n // d + 1))]
    return sigma


def pair_sieve(hi: int, classes, period: int, lo: int = 0, unit: int = 1) -> list[int]:
    """out[r - lo] for lo <= r <= hi: the sum over the pairs d*f = unit*r,
    d < f, of a weight w(d, f mod period).  classes yields (d, f, w) once
    per class: f its least cofactor with d < f and lo <= d*f/unit, and w
    its weight (unit | d*f where w != 0).  A class costs one slice update."""
    out = [0] * max(hi - lo + 1, 0)
    for d, f, w in classes:
        if w:
            pairs = slice(d * f // unit - lo, len(out), d * period // unit)
            out[pairs] = [v + w for v in out[pairs]]
    return out


def residue_class_sieve(max_n: int, k: int, p: int, a: int) -> list[int]:
    """D^{(p,a)}_k(n) for 0 <= n <= max_n (entry 0 is 0): the sum of d^k over
    the divisors d <= sqrt(n) with d = -a (mod p) plus d < sqrt(n) with
    d = a (mod p): one pair sieve over the d of either class, and n = d^2."""
    if p < 1 or (p > 1 and not _is_odd_prime_or_one(p)):
        raise ValueError(f"p must be 1 or an odd prime, got {p}")
    if not 0 <= a < p:
        raise ValueError("need 0 <= a < p")
    minus, top = -a % p, isqrt(max_n)
    lam = pair_sieve(max_n, ((d, d + 1, (1 + (a == minus)) * d ** k)
                             for c in {a, minus} for d in range(c or p, top + 1, p)), 1)
    for d in range(minus or p, top + 1, p):
        lam[d * d] += d ** k
    return lam


def _is_odd_prime_or_one(p: int) -> bool:
    if p == 1:
        return True
    if p < 3 or p % 2 == 0:
        return False
    return all(p % q for q in range(3, isqrt(p) + 1, 2))


def _primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(n + 1) if sieve[p]]


# ---------------------------------------------------------------------------
# Real Dirichlet characters


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class DirichletCharacter:
    """Real Dirichlet character, stored as a value table over the residues."""

    def __init__(self, modulus: int, values):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.values = tuple(int(v) for v in values)
        if len(self.values) != modulus:
            raise ValueError("value table length must equal the modulus")
        self.is_even = self(-1) == 1
        self.is_odd = not self.is_even
        self.parity = "even" if self.is_even else "odd"

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, {self.parity})"


@cache
def kronecker_character(d: int) -> DirichletCharacter:
    """Real character for specifier d.

    d = 1: trivial character mod 1; d = -4: the odd character mod 4;
    odd prime d: the Legendre symbol mod d.
    """
    if d == 1:
        return DirichletCharacter(1, [1])
    if d == -4:
        return DirichletCharacter(4, [0, 1, 0, -1])
    if d > 2 and _is_odd_prime_or_one(d):
        return DirichletCharacter(d, [jacobi_symbol(n, d) for n in range(d)])
    raise ValueError(f"unsupported character specifier {d}")


# The names of the class number table that arith.<name> still resolves.
_MOVED = ("HurwitzCache", "hurwitz", "hurwitz_cache")


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".classnum", __package__), name)
