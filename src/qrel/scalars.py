"""Exact scalar arithmetic: rationals, real quadratic irrationalities, and
rational multiples of half-integer powers of pi.

Rationals are plain ``fractions.Fraction``; everything here stays exact,
with no floating-point view of any value.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, prod
from numbers import Rational


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = f**2 * d with d squarefree; return (f, d).  Requires n >= 1."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    f, d = 1, 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return f, d * m


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


class QuadExt:
    """Element a + b*sqrt(D) of the real quadratic field Q(sqrt(D)).

    D must be squarefree and positive; D == 1 is the degenerate rational
    case (b is folded into a).  Mixed arithmetic is only defined between
    elements with equal D, and with rationals/ints.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        if D < 1:
            raise ValueError(f"radicand must be positive, got {D}")
        f, d = squarefree_split(D)
        if f != 1:
            raise ValueError(f"radicand {D} is not squarefree")
        if d == 1:
            a, b = a + b, Fraction(0)
        self.a = a
        self.b = b
        self.D = d

    @classmethod
    def sqrt_of(cls, n: int) -> "QuadExt":
        """Exact square root of a positive integer: sqrt(n) = f*sqrt(d)."""
        f, d = squarefree_split(n)
        return cls(0, f, d) if d != 1 else cls(f, 0, 1)

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.b == 0:
                return QuadExt(other.a, 0, self.D)
            if self.b == 0:
                return other
            if other.D != self.D:
                raise ValueError(f"mixed radicands {self.D} and {other.D}")
            return other
        if isinstance(other, (int, Rational)):
            return QuadExt(other, 0, self.D)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self.D if self.b != 0 else o.D
        return QuadExt(self.a + o.a, self.b + o.b, D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self.D if self.b != 0 else o.D
        return QuadExt(self.a * o.a + D * self.b * o.b,
                       self.a * o.b + self.b * o.a, D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of quadratic field")
        return QuadExt(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = QuadExt(1, 0, self.D)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def norm(self) -> Fraction:
        return self.a * self.a - self.D * self.b * self.b

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a}, {self.b}, D={self.D})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.D})"


def format_scalar(x) -> str:
    """Serialize an exact scalar: "p/q" for rationals, "a+b*sqrt(D)" for
    real-quadratic values."""
    if isinstance(x, QuadExt):
        a, b = format_scalar(x.a), format_scalar(abs(x.b))
        sign = "+" if x.b >= 0 else "-"
        return f"{a}{sign}{b}*sqrt({x.D})"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


class PiScalar:
    """A rational r times pi**(e/2).

    Addition is only defined between equal powers of pi; this is deliberate,
    a mismatch means a weight bookkeeping bug upstream.
    """

    __slots__ = ("r", "e")

    def __init__(self, r, e: int = 0):
        self.r = Fraction(r)
        self.e = int(e) if self.r != 0 else 0

    def __add__(self, other):
        if isinstance(other, (int, Rational)):
            other = PiScalar(other, 0)
        if not isinstance(other, PiScalar):
            return NotImplemented
        if self.r == 0:
            return other
        if other.r == 0:
            return self
        if self.e != other.e:
            raise ValueError(f"cannot add pi^({self.e}/2) to pi^({other.e}/2)")
        return PiScalar(self.r + other.r, self.e)

    __radd__ = __add__

    def __neg__(self):
        return PiScalar(-self.r, self.e)

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return PiScalar(self.r * other, self.e)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return PiScalar(self.r * other.r, self.e + other.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Rational)):
            return PiScalar(self.r / other, self.e)
        if not isinstance(other, PiScalar):
            return NotImplemented
        if other.r == 0:
            raise ZeroDivisionError
        return PiScalar(self.r / other.r, self.e - other.e)

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            other = PiScalar(other, 0)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self.r == other.r and (self.r == 0 or self.e == other.e)

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return f"PiScalar({self.r}, e={self.e})"

    def __str__(self):
        if self.e == 0:
            return str(self.r)
        return f"{self.r}*pi^({self.e}/2)"


def as_half_integer(h) -> Fraction:
    """Validate that h is a half-integer (element of (1/2)Z) and return it."""
    h = Fraction(h)
    if h.denominator not in (1, 2):
        raise ValueError(f"{h} is not a half-integer")
    return h


def binom_parts(p: int, q: int, m: int) -> tuple[int, int]:
    """The generalized binomial coefficient C(p/q, m), q > 0, as the
    unreduced pair (product of the p - jq for j < m, q^m m!)."""
    if m < 0:
        raise ValueError("lower index must be nonnegative")
    return prod(range(p, p - m * q, -q)), q ** m * factorial(m)


def gen_binom(x, m: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-m+1)/m! for rational x."""
    x = Fraction(x)
    return Fraction(*binom_parts(x.numerator, x.denominator, m))


def gamma_half_parts(m: int) -> tuple[int, int, int]:
    """Gamma(m/2) = (num/den) pi^(e/2) as (num, den, e), for an integer m
    that is not a pole (not in -2N_0): (m/2-1)! for even m, and for m/2 =
    n + 1/2 the closed forms Gamma(n+1/2) = (2n)!/(4^n n!) sqrt(pi) and
    Gamma(1/2-n) = (-4)^n n!/(2n)! sqrt(pi)."""
    if m % 2 == 0:
        if m <= 0:
            raise ValueError(f"Gamma pole at {m // 2}")
        return factorial(m // 2 - 1), 1, 0
    n = m // 2                      # m/2 = n + 1/2
    if n >= 0:
        return factorial(2 * n), 4 ** n * factorial(n), 1
    return (-4) ** -n * factorial(-n), factorial(-2 * n), 1


def gamma_half(h) -> PiScalar:
    """Gamma(h) for a half-integer h that is not a pole, exactly."""
    num, den, e = gamma_half_parts(int(2 * as_half_integer(h)))
    return PiScalar(Fraction(num, den), e)
