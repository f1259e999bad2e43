"""Truncated q-expansions over an exact scalar ring.

A QSeries stores a sparse map exponent -> coefficient for 0 <= n <= trunc.
Absent exponents mean zero.  Every operation records the truncation order
below which all reported coefficients are exact; nothing past the stored
truncation is ever reported.
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


def id_fields(series_id: str, form: str) -> list[str]:
    """The fields after the name in a parameterised series id, which must
    be as many as in its form (e.g. "theta_half:s:chi")."""
    fields = series_id.split(":")[1:]
    want = form.count(":")
    if len(fields) != want:
        raise ValueError(f"{form} takes {want} fields after the name, "
                         f"got {len(fields)}")
    return fields


class ScalarKindError(TypeError):
    """Raised when two series over incompatible coefficient rings meet."""


def _common_kind(f: "QSeries", g: "QSeries") -> str:
    """The scalar kind of a sum or product of f and g.  Rationals embed in
    every other ring; two different non-rational kinds do not mix."""
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
    def scaled(coeffs: dict) -> tuple[dict, int]:
        # the nonzero terms n <= t times the lcm of their denominators
        coeffs = {n: c for n, c in coeffs.items() if n <= t and c}
        den = lcm(*(c.denominator for c in coeffs.values()))
        return {n: c.numerator * (den // c.denominator)
                for n, c in coeffs.items()}, den

    (a, den_a), (b, den_b) = scaled(a), scaled(b)
    if not a or not b:
        return {}
    # At most min(len(a), len(b)) pairs meet at one exponent, so every
    # product coefficient, and every input, lies in [-bound, bound].
    bound = (min(len(a), len(b)) * max(map(abs, a.values()))
             * max(map(abs, b.values())))
    width = bound.bit_length() // 8 + 1     # bytes, so that bound < half
    half = 1 << (8 * width - 1)
    half_slot = half.to_bytes(width, "little")

    def biases(slots: int) -> int:
        return int.from_bytes(half_slot * slots, "little")

    def pack(coeffs: dict) -> int:
        # slot n holds coeffs[n] + half, which lies in [0, 2*half)
        count = max(coeffs) + 1
        slots = bytearray(half_slot * count)
        for n, c in coeffs.items():
            slots[n * width:(n + 1) * width] = (c + half).to_bytes(width, "little")
        return int.from_bytes(slots, "little") - biases(count)

    # With half added back, slots 0..t of the product are nonnegative, so
    # the mask drops the slots above t without a borrow.
    size = width * (t + 1)
    product = (pack(a) * pack(b) + biases(t + 1)) & ((1 << 8 * size) - 1)
    slots = product.to_bytes(size, "little")
    den = den_a * den_b
    out = {}
    for n in range(t + 1):
        c = int.from_bytes(slots[n * width:(n + 1) * width], "little") - half
        if c:
            out[n] = c if den == 1 else Fraction(c, den)
    return out


class QSeries:
    """Sparse truncated power series in q with exact coefficients."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: dict, trunc: int):
        _check_trunc(trunc)
        self.trunc = trunc
        self.coeffs = {n: c for n, c in coeffs.items() if n <= self.trunc and c}
        if any(n < 0 for n in self.coeffs):
            raise ValueError("negative exponents are not supported")

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls({0: 1}, trunc)

    def scalar_kind(self) -> str:
        for c in self.coeffs.values():
            if isinstance(c, QuadExt):
                return f"quadext({c.D})"
            if not isinstance(c, (int, Fraction)):
                return type(c).__name__
        return "rational"

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
        _common_kind(self, other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) + c
        return QSeries(out, min(self.trunc, other.trunc))

    def __neg__(self):
        return QSeries({n: -c for n, c in self.coeffs.items()}, self.trunc)

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
        if (_common_kind(self, other) == "rational"
                and len(self.coeffs) * len(other.coeffs) > t + 1):
            return QSeries(_kronecker_mul(self.coeffs, other.coeffs, t), t)
        return QSeries(_dict_mul(self.coeffs, other.coeffs, t), t)

    def __rmul__(self, other):
        if isinstance(other, QSeries):
            return NotImplemented
        return self.scale(other)

    def scale(self, c) -> "QSeries":
        return QSeries({n: c * v for n, v in self.coeffs.items()}, self.trunc)

    def __pow__(self, m: int) -> "QSeries":
        if m < 0:
            raise ValueError("negative powers are not supported")
        result = QSeries.one(self.trunc)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def d_operator(self) -> "QSeries":
        """The normalized derivative q d/dq: a(n) -> n*a(n)."""
        return QSeries({n: n * c for n, c in self.coeffs.items()}, self.trunc)

    def u_op(self, N: int) -> "QSeries":
        """U(N): a(n) -> a(N*n); truncation drops to floor(trunc/N)."""
        if N < 1:
            raise ValueError("N must be positive")
        return QSeries({n // N: c for n, c in self.coeffs.items() if n % N == 0},
                       self.trunc // N)

    def v_op(self, N: int) -> "QSeries":
        """V(N): f(tau) -> f(N*tau); truncation grows to N*trunc (capped)."""
        if N < 1:
            raise ValueError("N must be positive")
        return QSeries({n * N: c for n, c in self.coeffs.items()},
                       min(self.trunc * N, MAX_TRUNC))

    def sieve(self, N: int, r: int) -> "QSeries":
        """Keep only exponents congruent to r mod N."""
        if N < 1 or not 0 <= r < N:
            raise ValueError("need N >= 1 and 0 <= r < N")
        return QSeries({n: c for n, c in self.coeffs.items() if n % N == r},
                       self.trunc)

    def twist(self, chi) -> "QSeries":
        """Coefficientwise twist a(n) -> chi(n)*a(n) by a character."""
        return QSeries({n: chi(n) * c for n, c in self.coeffs.items()},
                       self.trunc)

    def truncate(self, T: int) -> "QSeries":
        return QSeries({n: c for n, c in self.coeffs.items() if n <= T},
                       min(self.trunc, T))

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{n}: {self.coeffs[n]}" for n in sorted(self.coeffs)[:8])
        more = ", ..." if len(self.coeffs) > 8 else ""
        return f"QSeries({{{terms}{more}}}, trunc={self.trunc})"

    def to_csv_lines(self) -> list[str]:
        """Serialize as CSV: "n,num,den" or "n,a_num,a_den,b_num,b_den,D"."""
        lines = []
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            if isinstance(c, QuadExt):
                lines.append(f"{n},{c.a.numerator},{c.a.denominator},"
                             f"{c.b.numerator},{c.b.denominator},{c.D}")
            else:
                c = Fraction(c)
                lines.append(f"{n},{c.numerator},{c.denominator}")
        return lines


def eta_product(factors, T: int) -> QSeries:
    """q-expansion of prod_d eta(d*tau)^{e_d} for factors [(d, e), ...].

    The leading power sum(d*e)/24 must be a nonnegative integer, and every
    exponent e must be nonnegative.  Euler products are expanded via the pentagonal
    number theorem, so each factor is extremely sparse before the final
    powering.
    """
    lead = Fraction(sum(d * e for d, e in factors), 24)
    if lead.denominator != 1 or lead < 0:
        raise ValueError(f"leading q-power {lead} is not a nonnegative integer")
    if any(e < 0 for _, e in factors):
        raise ValueError(f"negative exponents are not supported: {factors}")
    lead = int(lead)
    result = QSeries({lead: 1}, T)
    for d, e in factors:
        result = result * _euler_function(d, T) ** e
    return result


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
