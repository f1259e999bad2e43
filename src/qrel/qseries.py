"""Truncated q-expansions over an exact scalar ring.

A QSeries stores a sparse map exponent -> coefficient for 0 <= n <= trunc.
Absent exponents mean zero.  Every operation records the truncation order
below which all reported coefficients are exact; nothing past the stored
truncation is ever reported.  Products of int and Fraction series pack
each side with the slot codec of :mod:`qrel.slots` (Kronecker substitution),
imported by the first such product.  The eta products are in
:mod:`qrel.forms`, their one caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import QuadExt

MAX_TRUNC = 1 << 20


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


def _kronecker_mul(a: dict, b: dict, t: int) -> dict:
    """Coefficients n <= t of the product of two maps to int or Fraction,
    by Kronecker substitution: each side is scaled to integers and packed
    into one integer with a fixed-width slot per exponent, so that a
    single big-integer product (Karatsuba in CPython) does the
    convolution.  Exact: the slot width comes from a bound on every
    product coefficient.
    """
    from .slots import _Slots

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

    def pack(coeffs: dict) -> int:
        values = [0] * (max(coeffs) + 1)    # the absent exponents hold 0
        for n, c in coeffs.items():
            values[n] = c
        return slots.pack_dense(values)

    # a square packs once: an int times itself takes CPython's squaring path
    packed = pack(a)
    product = packed * (packed if square else pack(b))
    den = den_a * den_b
    return {n: c if den == 1 else Fraction(c, den)
            for n, c in enumerate(slots.unpack(product, range(t + 1))) if c}


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

    def __repr__(self):
        terms = ", ".join(f"{n}: {self.coeffs[n]}" for n in sorted(self.coeffs)[:8])
        more = ", ..." if len(self.coeffs) > 8 else ""
        return f"QSeries({{{terms}{more}}}, trunc={self.trunc})"
