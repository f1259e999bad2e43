"""Number-theoretic primitives: divisor sums, Hurwitz class numbers with a
CSV export, the theta moments of the class number table with the slot
codec they share with the q-series products, and real Dirichlet characters.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from array import array
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm

H0 = Fraction(-1, 12)
# slots of up to 8 bytes pass through little-endian 64-bit array words
_WORDS = array("Q").itemsize == 8 and sys.byteorder == "little"


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

    ``_table`` is a flat ``list[int]`` in units of 1/12: ``_table[n]`` is
    ``12*H(n)`` for ``0 <= n <= max_computed``, so ``_table[0] == -1`` and
    every entry is an integer (a reduced form counts 12, ``(a, 0, a)`` counts
    6 and ``(a, a, a)`` counts 4).  The relation checks sum these integers
    directly; :meth:`get` turns one entry into the exact ``Fraction``.

    The table is filled by a bulk sweep over reduced forms (much faster than
    per-n enumeration) and is safe for concurrent reads; writes happen under
    an internal lock.  The CSV is output only: nothing reads it back, since
    refilling the table is cheaper than parsing it.
    """

    def __init__(self):
        self._table: list[int] = [-1]
        self._max = 0
        self._lock = threading.Lock()

    def _path(self) -> str:
        d = os.environ.get("QREL_CACHE_DIR", "./.qrel-cache")
        return os.path.join(d, "hurwitz.csv")

    @property
    def max_computed(self) -> int:
        return self._max

    def ensure(self, max_n: int) -> None:
        if max_n <= self._max:
            return
        with self._lock:
            if max_n <= self._max:
                return
            self._bulk_fill(max_n)

    def scaled_table(self, max_n: int) -> list[int]:
        """The live ``12*H`` table, filled to at least max_n.  Read only."""
        self._grow(max_n)
        return self._table

    def _grow(self, n: int) -> None:
        # Grow geometrically, so callers walking up n refill O(log n) times.
        if n > self._max:
            self.ensure(max(n, 2 * self._max, 512))

    def _bulk_fill(self, max_n: int) -> None:
        table = [0] * (max_n + 1)
        table[0] = -1
        a = 1
        while 3 * a * a <= max_n:
            step = 4 * a
            for b in range(a + 1):
                # n = 4ac - b^2 runs over n0 + 4a*(c - a).  At c = a only
                # (a, b, a) is reduced, with weight 1/2 at b = 0 and 1/3 at
                # b = a; for c > a both (a, +-b, c) are, unless b is 0 or a.
                n0 = 4 * a * a - b * b
                if n0 > max_n:
                    continue
                table[n0] += 6 if b == 0 else 4 if b == a else 12
                weight = 24 if 0 < b < a else 12
                tail = slice(n0 + step, max_n + 1, step)
                table[tail] = [v + weight for v in table[tail]]
            a += 1
        self._table = table
        self._max = max_n

    def get(self, n: int) -> Fraction:
        if n < 0 or n % 4 in (1, 2):
            return Fraction(0)
        if n == 0:
            return H0
        self._grow(n)
        return Fraction(self._table[n], 12)

    def save(self, path: str | None = None, max_n: int | None = None) -> str:
        """Write the table as "n,num,den" lines for n = 0 and every
        discriminant n = 0, 3 (mod 4) up to max_n (default: max_computed),
        atomically: a reader sees the old file or the new one, never a
        partial one."""
        path = path or self._path()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
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


_cache = HurwitzCache()


def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n); 0 off the discriminant residues, -1/12 at 0."""
    return _cache.get(n)


def hurwitz_cache() -> HurwitzCache:
    return _cache


# ---------------------------------------------------------------------------
# Packed slots and the theta moments of the class number table


class _Slots:
    """The slot codec of the Kronecker kernels: integers in [-bound, bound]
    packed into one integer, one fixed-width slot per index.  The width is
    whole bytes with bound < half, and each slot is written offset by half,
    so it lies in [0, 2*half) and never borrows from its neighbour.  Dense
    slots of up to 8 bytes go through 64-bit words, one strided byte copy
    per slot byte; wider ones are converted one at a time."""

    __slots__ = ("width", "half", "_half_slot")

    def __init__(self, bound: int):
        self.width = bound.bit_length() // 8 + 1    # bytes, so that bound < half
        self.half = 1 << (8 * self.width - 1)
        self._half_slot = self.half.to_bytes(self.width, "little")

    def _biases(self, count: int) -> int:
        return int.from_bytes(self._half_slot * count, "little")

    def pack(self, coeffs: dict) -> int:
        """A nonempty map n -> c as one signed integer: the sum of
        c * 2^(8 width n)."""
        w, half, count = self.width, self.half, max(coeffs) + 1
        slots = bytearray(self._half_slot * count)
        for n, c in coeffs.items():
            slots[n * w:(n + 1) * w] = (c + half).to_bytes(w, "little")
        return int.from_bytes(slots, "little") - self._biases(count)

    def pack_dense(self, values: list) -> int:
        """pack(dict(enumerate(values)))."""
        w, half = self.width, self.half
        if w <= 8 and _WORDS:
            wide = array("Q", [c + half for c in values]).tobytes()
            slots = bytearray(w * len(values))
            for j in range(w):
                slots[j::w] = wide[j::8]
        else:
            slots = bytearray()
            for c in values:
                slots += (c + half).to_bytes(w, "little")
        return int.from_bytes(slots, "little") - self._biases(len(values))

    def unpack(self, x: int, index: range) -> list[int]:
        """The slots of x at the indices of an increasing range, when every
        slot up to its last index holds a value in [-bound, bound]."""
        if not index:
            return []
        # With half added back, slots 0..index[-1] are nonnegative, so the
        # mask drops the slots above without a borrow.
        w, half, count = self.width, self.half, index[-1] + 1
        size = w * count
        data = ((x + self._biases(count)) & ((1 << 8 * size) - 1)).to_bytes(
            size, "little")
        if w <= 8 and _WORDS:
            wide = bytearray(8 * count)
            for j in range(w):
                wide[j::8] = data[j::w]
            return [v - half for v in array("Q", wide)[index.start:count:index.step]]
        return [int.from_bytes(data[n * w:(n + 1) * w], "little") - half
                for n in index]


def theta_moments(table: list[int], index: range, k_max: int,
                  step: int = 1) -> list[list[int]]:
    """The moments A_k(m) = sum over s = 0 (mod step), s^2 <= m, of
    s^(2k) * table[m - s^2], for k = 0..k_max and each m of an increasing
    range index: the coefficients of table * theta_2k, where theta_2k is
    sum over s = 0 (mod step) of s^(2k) q^(s^2).

    index splits into progressions of step lcm(index.step, 4), whose m
    share a residue e mod 4.  As s^2 = c = s % 2 (mod 4), the s of class c
    read only values[r::4], r = (e - c) % 4, packed once: each s > 0 adds
    the copy shifted by (s^2 + r - e)/4 slots, times 2 s^(2k), to A_k (for
    s and -s), s = 0 adds the class-0 copy to A_0, and m is read at slot
    (m - e)/4.  An all-zero class is skipped: half of them for 12 H, zero
    at m = 1, 2 (mod 4).  Exact: the slot width bounds every moment.
    """
    if not index:
        return [[] for _ in range(k_max + 1)]
    M = index[-1]
    if M >= len(table):
        raise ValueError(f"the table ends at {len(table) - 1}, below {M}")
    values = table[:M + 1]
    ss = range(step, isqrt(M) + 1, step)
    # |s^(2k)| <= s^(2 k_max) for s != 0, so every A_k, and every entry,
    # lies in [-bound, bound].
    slots = _Slots(max(map(abs, values))
                   * (1 + 2 * sum(s ** (2 * k_max) for s in ss)))
    parts, bits = lcm(index.step, 4) // index.step, 8 * slots.width
    out = [[0] * len(index) for _ in range(k_max + 1)]
    for i in range(min(parts, len(index))):
        part = index[i::parts]
        e, top = part[0] % 4, part[-1]
        sums = [0] * (k_max + 1)
        for c in (0, 1):
            r = (e - c) % 4
            if not any(decimated := values[r:top + 1:4]):
                continue
            packed = slots.pack_dense(decimated)
            sums[0] += packed if c == 0 else 0     # s = 0
            for s in ss[:isqrt(top) // step]:
                if s % 2 == c:      # one more bit doubles: s and -s
                    shifted = packed << bits * ((s * s + r - e) // 4) + 1
                    sums[0] += shifted
                    for k in range(1, k_max + 1):
                        sums[k] += s ** (2 * k) * shifted
        at = range((part[0] - e) // 4, (top - e) // 4 + 1, part.step // 4)
        for k, x in enumerate(sums):
            out[k][i::parts] = slots.unpack(x, at)
    return out


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
        self.parity = "even" if self(-1) == 1 else "odd"

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    @property
    def is_even(self) -> bool:
        return self.parity == "even"

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

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
