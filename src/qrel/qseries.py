"""Truncated q-expansions over an exact scalar ring.

A QSeries stores a sparse map exponent -> coefficient for 0 <= n <= trunc.
Absent exponents mean zero.  Every operation records the truncation order
below which all reported coefficients are exact; nothing past the stored
truncation is ever reported.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import reduce
from math import isqrt, lcm
from operator import mul

from .scalars import QuadExt

MAX_TRUNC = 1 << 20
# slots of up to 8 bytes pass through little-endian 64-bit array words
_WORDS = array("Q").itemsize == 8 and sys.byteorder == "little"


def _check_trunc(trunc: int) -> None:
    if not 0 <= trunc <= MAX_TRUNC:
        raise ValueError(f"truncation order must be in [0, {MAX_TRUNC}], "
                         f"got {trunc}")


class ScalarKindError(TypeError):
    """Raised when two series over incompatible coefficient rings meet."""


def _scan_kind(coeffs: dict) -> str:
    """The scalar kind of a coefficient map, from its first coefficient
    that is not an int or a Fraction: "rational" when there is none."""
    for c in coeffs.values():
        if isinstance(c, QuadExt):
            return f"quadext({c.D})"
        if not isinstance(c, (int, Fraction)):
            return type(c).__name__
    return "rational"


def _common_kind(f: "QSeries", g: "QSeries") -> str:
    """The scalar kind of a sum or product of f and g.  Rationals embed in
    every other ring; two different non-rational kinds do not mix.  A sum
    or product of two rational series is rational, which its result keeps,
    so the check does not scan the coefficients again."""
    kf, kg = f.scalar_kind(), g.scalar_kind()
    if kf == "rational" or kf == kg:
        return kg
    if kg == "rational":
        return kf
    raise ScalarKindError(f"cannot mix {kf} and {kg} coefficients")


def _dict_mul(a: dict, b: dict, t: int) -> dict:
    """Coefficients n <= t of the product of two coefficient maps, by the
    schoolbook double loop over their entries.  Works for every scalar
    kind, and costs one scalar product per pair of entries."""
    out: dict = {}
    for n1, c1 in a.items():
        if n1 > t:
            continue
        for n2, c2 in b.items():
            n = n1 + n2
            if n > t:
                continue
            out[n] = out.get(n, 0) + c1 * c2
    return out


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


def _kronecker_mul(a: dict, b: dict, t: int) -> dict:
    """Coefficients n <= t of the product of two maps to int or Fraction,
    by Kronecker substitution: each side is scaled to integers and packed
    into one integer with a fixed-width slot per exponent, so that a
    single big-integer product (Karatsuba in CPython) does the
    convolution.  Exact: the slot width comes from a bound on every
    product coefficient.
    """
    def scaled(coeffs: dict) -> tuple[dict, int]:
        # the nonzero terms n <= t times the lcm of their denominators
        coeffs = {n: c for n, c in coeffs.items() if n <= t and c}
        den = lcm(*(c.denominator for c in coeffs.values()))
        return {n: c.numerator * (den // c.denominator)
                for n, c in coeffs.items()}, den

    square = a is b
    (a, den_a) = scaled(a)
    (b, den_b) = (a, den_a) if square else scaled(b)
    if not a or not b:
        return {}
    # At most min(len(a), len(b)) pairs meet at one exponent, so every
    # product coefficient, and every input, lies in [-bound, bound].
    slots = _Slots(min(len(a), len(b)) * max(map(abs, a.values()))
                   * max(map(abs, b.values())))
    # a square packs once: an int times itself takes CPython's squaring path
    packed = slots.pack(a)
    product = packed * (packed if square else slots.pack(b))
    den = den_a * den_b
    return {n: c if den == 1 else Fraction(c, den)
            for n, c in enumerate(slots.unpack(product, range(t + 1))) if c}


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


class QSeries:
    """Sparse truncated power series in q with exact coefficients."""

    __slots__ = ("coeffs", "trunc", "_kind")

    def __init__(self, coeffs: dict, trunc: int):
        _check_trunc(trunc)
        self.trunc = trunc
        self.coeffs = {n: c for n, c in coeffs.items() if n <= self.trunc and c}
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("negative exponents are not supported")
        self._kind = None       # scalar_kind(), found on first use

    def _rational_if_self(self, coeffs: dict, trunc: int) -> "QSeries":
        """A series of some of self's coefficients, their negatives or
        rational multiples: rational when self is, without a scan."""
        out = QSeries(coeffs, trunc)
        if self.scalar_kind() == "rational":
            out._kind = "rational"
        return out

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls({0: 1}, trunc)

    def scalar_kind(self) -> str:
        if self._kind is None:
            self._kind = _scan_kind(self.coeffs)
        return self._kind

    def coeff(self, n: int):
        if n < 0:
            return 0
        if n > self.trunc:
            raise IndexError(f"exponent {n} beyond truncation {self.trunc}")
        return self.coeffs.get(n, 0)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        for n in set(self.coeffs) | set(other.coeffs):
            if n <= t and self.coeffs.get(n, 0) != other.coeffs.get(n, 0):
                return False
        return True

    def __hash__(self):
        return hash((self.trunc, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        kind = _common_kind(self, other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) + c
        out = QSeries(out, min(self.trunc, other.trunc))
        if kind == "rational":
            out._kind = kind
        return out

    def __neg__(self):
        return self._rational_if_self({n: -c for n, c in self.coeffs.items()},
                                      self.trunc)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        t = min(self.trunc, other.trunc)
        # The dict loop makes one scalar product per pair of entries, the
        # Kronecker kernel writes and reads t + 1 slots: sparse pairs stay
        # on the dict loop.
        kind = _common_kind(self, other)
        if kind == "rational" and len(self.coeffs) * len(other.coeffs) > t + 1:
            out = QSeries(_kronecker_mul(self.coeffs, other.coeffs, t), t)
        else:
            out = QSeries(_dict_mul(self.coeffs, other.coeffs, t), t)
        if kind == "rational":
            out._kind = kind
        return out

    def __rmul__(self, other):
        if isinstance(other, QSeries):
            return NotImplemented
        return self.scale(other)

    def scale(self, c) -> "QSeries":
        coeffs = {n: c * v for n, v in self.coeffs.items()}
        if isinstance(c, (int, Fraction)):
            return self._rational_if_self(coeffs, self.trunc)
        return QSeries(coeffs, self.trunc)

    def __pow__(self, m: int) -> "QSeries":
        if m < 0:
            raise ValueError("negative powers are not supported")
        result = None
        base = self
        while m:
            if m & 1:
                result = base if result is None else result * base
            m >>= 1
            if m:
                base = base * base
        return QSeries.one(self.trunc) if result is None else result

    def d_operator(self) -> "QSeries":
        """The normalized derivative q d/dq: a(n) -> n*a(n)."""
        return self._rational_if_self({n: n * c for n, c in self.coeffs.items()},
                                      self.trunc)

    def u_op(self, N: int) -> "QSeries":
        """U(N): a(n) -> a(N*n); truncation drops to floor(trunc/N)."""
        if N < 1:
            raise ValueError("N must be positive")
        return self._rational_if_self(
            {n // N: c for n, c in self.coeffs.items() if n % N == 0},
            self.trunc // N)

    def v_op(self, N: int) -> "QSeries":
        """V(N): f(tau) -> f(N*tau); truncation grows to N*trunc (capped)."""
        if N < 1:
            raise ValueError("N must be positive")
        return self._rational_if_self({n * N: c for n, c in self.coeffs.items()},
                                      min(self.trunc * N, MAX_TRUNC))

    def sieve(self, N: int, r: int) -> "QSeries":
        """Keep only exponents congruent to r mod N."""
        if N < 1 or not 0 <= r < N:
            raise ValueError("need N >= 1 and 0 <= r < N")
        return self._rational_if_self(
            {n: c for n, c in self.coeffs.items() if n % N == r}, self.trunc)

    def twist(self, chi) -> "QSeries":
        """Coefficientwise twist a(n) -> chi(n)*a(n) by a character."""
        return QSeries({n: chi(n) * c for n, c in self.coeffs.items()},
                       self.trunc)

    def truncate(self, T: int) -> "QSeries":
        return self._rational_if_self(
            {n: c for n, c in self.coeffs.items() if n <= T}, min(self.trunc, T))

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{n}: {self.coeffs[n]}" for n in sorted(self.coeffs)[:8])
        more = ", ..." if len(self.coeffs) > 8 else ""
        return f"QSeries({{{terms}{more}}}, trunc={self.trunc})"


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
    """prod_{n>=1} (1 - q^{d n}) via pentagonal numbers."""
    coeffs = {0: 1}
    k = 1
    while True:
        g1 = d * k * (3 * k - 1) // 2
        g2 = d * k * (3 * k + 1) // 2
        if g1 > T and g2 > T:
            break
        sign = -1 if k % 2 else 1
        if g1 <= T:
            coeffs[g1] = coeffs.get(g1, 0) + sign
        if g2 <= T:
            coeffs[g2] = coeffs.get(g2, 0) + sign
        k += 1
    return QSeries(coeffs, T)
