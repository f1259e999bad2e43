"""Number-theoretic primitives: divisor sums and sieves, Hurwitz class
numbers with a CSV export, and real Dirichlet characters.  The theta
moments of the class number table are in :mod:`qrel.slots`.
"""

from __future__ import annotations

import contextlib
import os
import sys
from fractions import Fraction
from functools import cache
from math import gcd, isqrt


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
# Hurwitz class numbers


class HurwitzCache:
    """Table of Hurwitz class numbers, written out as CSV "n,num,den".

    ``_table`` is one ``array("i")`` of 4-byte integers in units of 1/12:
    ``_table[n]`` is ``12*H(n)`` for ``0 <= n <= _max``, so ``_table[0] ==
    -1`` and every entry is an integer (a reduced form counts 12, ``(a, 0,
    a)`` counts 6 and ``(a, a, a)`` counts 4).  No entry exceeds ``12 A (A
    + 1)``, ``A = isqrt(max_n // 3)``: a fill whose bound does not fit 31
    bits (max_n of about 5.4e8 or more) raises ``OverflowError`` before it
    allocates anything.  The relation checks sum these integers directly;
    :func:`hurwitz` turns one entry into the exact ``Fraction``.

    The fill counts reduced forms in Kohnen's plus space: every
    discriminant n = 4ac - b^2 is 0 or 3 (mod 4), and within each of the
    classes n = 4m and n = 4m + 3 the forms (a, b, c), c = a, a + 1, ...,
    step m by a.  Past m = a^2 + a, the contribution of a is periodic and
    goes in as one big-int addition of tiled 4-byte slots; below it, entry
    by entry.  The CSV is output only: nothing reads it back, since
    refilling the table is cheaper than parsing it.
    """

    def __init__(self):
        self._bulk_fill(0)

    def _path(self) -> str:
        d = os.environ.get("QREL_CACHE_DIR", "./.qrel-cache")
        return os.path.join(d, "hurwitz.csv")

    def ensure(self, max_n: int) -> None:
        if max_n > self._max:
            self._bulk_fill(max_n)

    def scaled_table(self, max_n: int):
        """The live ``12*H`` table, filled to at least max_n.  Read only.
        It grows geometrically, so callers walking up n refill O(log n)
        times."""
        if max_n > self._max:
            self.ensure(max(max_n, 2 * self._max, 512))
        return self._table

    def _bulk_fill(self, max_n: int) -> None:
        # Slot n >> 1 holds 12*H(n): n = 4m in even slots, 4m + 3 in odd.
        # (a, +-b, c), c = a, a + 1, ..., step the slot by 2a from
        # (4a^2 - b^2) >> 1.  From slot 2a(a + 1) on every b has started,
        # and from 2a's own start the pattern, doubled, is 2a's to add.
        # Each (a, +-b) puts at most one form in a slot, so no slot
        # exceeds 12 top (top + 1) < 2^31 or carries into the next.
        from array import array     # not at import: characters need none
        top = isqrt(max_n // 3)
        if 12 * top * (top + 1) >> 31:
            raise OverflowError(f"12*H(n) for n <= {max_n} may not fit 4 bytes")
        size, swap = (max_n >> 1) + 1, sys.byteorder == "big"
        head, handed, acc = array("i", bytes(4 * size)), {}, 0
        for a in range(1, top + 1):
            period = 2 * a
            start = period * (a + 1)
            stop = min(start, size)
            pattern = handed.pop(a, None) or array("i", bytes(4 * period))
            for b in range(a + 1):
                s = 4 * a * a - b * b >> 1
                w = 24 if 0 < b < a else 12
                pattern[s % period] += w
                if s < size:
                    head[s] += 6 if b == 0 else 4 if b == a else 12
                    for t in range(s + period, stop, period):
                        head[t] += w
            if start < size:
                end = 2 * period * (period + 1)     # where 2a's tails start
                if end < size:
                    handed[period] = pattern * 2
                reps = (min(end, size) - start + period - 1) // period
                if swap:
                    pattern.byteswap()
                acc += int.from_bytes(pattern.tobytes() * reps, "little") << 32 * start
        if swap:
            head.byteswap()
        acc += int.from_bytes(head.tobytes(), "little")
        del head
        slots = array("i")
        slots.frombytes(acc.to_bytes(4 * (size + 2 * top), "little"))
        del acc
        if swap:
            slots.byteswap()
        table = array("i", bytes(4 * (max_n + 1)))
        table[0::4] = slots[0:size:2]
        table[3::4] = slots[1:max_n + 1 >> 1:2]
        table[0] = -1
        self._table, self._max = table, max_n

    def get(self, n: int) -> Fraction:
        if n < 0 or n % 4 in (1, 2):
            return Fraction(0)
        return Fraction(self.scaled_table(n)[n], 12)

    def save(self, path: str | None = None, max_n: int | None = None) -> str:
        """Write the table as "n,num,den" lines for n = 0 and every
        discriminant n = 0, 3 (mod 4) up to max_n, filling the table that
        far first (default: as far as it is filled), atomically: a reader
        sees the old file or the new one, never a partial one."""
        if max_n is not None:
            self.ensure(max_n)
        path = path or self._path()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        rows = self._table if max_n is None else self._table[:max(max_n, 0) + 1]
        try:
            with open(tmp, "w") as fh:
                for n, v in enumerate(rows):
                    if v:
                        g = gcd(v, 12)
                        fh.write(f"{n},{v // g},{12 // g}\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path


def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n); 0 off the discriminant residues, -1/12 at 0."""
    return hurwitz_cache().get(n)


@cache
def hurwitz_cache() -> HurwitzCache:
    return HurwitzCache()


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
