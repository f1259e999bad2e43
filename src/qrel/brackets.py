"""Rankin-Cohen brackets at half-integral weight and their holomorphic
projection: the polynomials P_{a,b}, the constant kappa(k, l, nu) and the
correction coefficients b(r), exact over Q or a real quadratic field.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .qseries import QSeries
from .scalars import (PiScalar, QuadExt, as_half_integer, binom_parts,
                      factorial, gamma_half, gamma_half_parts, gen_binom)


class BracketSpec:
    """Weights (k, l) and degree nu of a Rankin-Cohen bracket: immutable,
    compared and hashed by value."""

    __slots__ = ("k", "l", "nu")

    def __init__(self, k, l, nu: int):
        k, l = as_half_integer(k), as_half_integer(l)
        if nu < 0:
            raise ValueError("degree must be nonnegative")
        for name, value in zip(self.__slots__, (k, l, nu)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a BracketSpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a BracketSpec")

    def _key(self) -> tuple:
        return self.k, self.l, self.nu

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"BracketSpec(k={self.k!r}, l={self.l!r}, nu={self.nu!r})"

    @property
    def total_weight(self) -> Fraction:
        return self.k + self.l + 2 * self.nu


def rankin_cohen(f: QSeries, g: QSeries, spec: BracketSpec) -> QSeries:
    """[f, g]_nu = sum_mu (-1)^mu C(k+nu-1, nu-mu) C(l+nu-1, mu) D^mu f D^{nu-mu} g."""
    k, l, nu = spec.k, spec.l, spec.nu
    total = QSeries.zero(min(f.trunc, g.trunc))
    d_f = [f]
    d_g = [g]
    for _ in range(nu):
        d_f.append(d_f[-1].d_operator())
        d_g.append(d_g[-1].d_operator())
    for mu in range(nu + 1):
        c = gen_binom(k + nu - 1, nu - mu) * gen_binom(l + nu - 1, mu)
        if mu % 2:
            c = -c
        if c:
            total = total + (d_f[mu] * d_g[nu - mu]).scale(c)
    return total


# ---------------------------------------------------------------------------
# Homogeneous polynomials over Q of degree d, as lists p of length d + 1:
# p[i] is the coefficient of X^i Y^(d-i).


def poly_eval(p: list, x, y):
    return sum(c * x ** i * y ** (len(p) - 1 - i) for i, c in enumerate(p))


def p_poly_ints(a: int, p: int, q: int = 1) -> tuple[list[int], int]:
    """P_{a,b}(X, Y) = sum_{j=0}^{d} C(j+b-2, j) X^j (X+Y)^{d-j}, d = a - 2,
    for b = p/q, as (integer list, D) with P = list / D and D = q^d d!.
    Horner in X + Y: h <- h (X+Y) + C(j+b-2, j) D X^j for j = 0..d."""
    if a < 2:
        raise ValueError("degree parameter a must be at least 2")
    d = a - 2
    c = D = q ** d * factorial(d)      # c = C(j+b-2, j) D, an integer
    h = [c]
    for j in range(1, d + 1):
        c = c * (p + (j - 2) * q) // (j * q)
        h = [u + v for u, v in zip(h + [0], [0] + h)]
        h[j] += c
    return h, D


def p_poly(a: int, b) -> list:
    """P_{a,b} as a list of Fractions: the view of p_poly_ints."""
    b = Fraction(b)
    P, D = p_poly_ints(a, b.numerator, b.denominator)
    return [Fraction(v, D) for v in P]


# ---------------------------------------------------------------------------
# kappa and the correction coefficients


def kappa(spec: BracketSpec) -> PiScalar:
    """The constant in the holomorphic projection of [y^{1-k}, g]_nu.

    Gamma(2-k)/Gamma(2-k-mu) is evaluated as a falling-factorial product, so
    integer weights whose poles cancel still work; k = 1 is rejected.
    """
    k, l, nu = spec.k, spec.l, spec.nu
    if k == 1:
        raise ValueError("kappa is undefined at k = 1")
    w = spec.total_weight
    if w.denominator != 1 or w < 2:
        raise ValueError(f"total weight {w} must be an integer >= 2")
    # The mu-terms Gamma(2-k)/Gamma(2-k-mu) C(k+nu-1, nu-mu) C(l+nu-1, mu)
    # Gamma(l+2nu-mu), the first as mu! C(1-k, mu), as pairs over one lcm.
    kp, kq, lp, lq = k.numerator, k.denominator, l.numerator, l.denominator
    terms = []
    for mu in range(nu + 1):
        (f, df), (b, db), (c, dc) = (binom_parts(kq - kp, kq, mu),
                                     binom_parts(kp + (nu - 1) * kq, kq, nu - mu),
                                     binom_parts(lp + (nu - 1) * lq, lq, mu))
        if f * b * c:
            g, dg, _ = gamma_half_parts(2 * lp // lq + 2 * (2 * nu - mu))
            terms.append((factorial(mu) * f * b * c * g, df * db * dc * dg))
    L = lcm(*(den for _, den in terms))
    total = sum(num * (L // den) for num, den in terms)
    return PiScalar(Fraction(total * kq, L * factorial(int(w) - 2) * (kp - kq)),
                    lq - 1)


def half_power(base: int, e) -> Fraction | QuadExt:
    """base**e for a half-integer exponent e, exactly.

    Integer e gives a Fraction; half-odd e gives a QuadExt whose radicand is
    the squarefree part of base.
    """
    e = as_half_integer(e)
    if e.denominator == 1:
        if base == 0:
            if e < 0:
                raise ZeroDivisionError
            return Fraction(1) if e == 0 else Fraction(0)
        return Fraction(base) ** int(e)
    if base <= 0:
        raise ValueError(f"half-integer power of nonpositive base {base}")
    return QuadExt.sqrt_of(base) ** int(2 * e)


def correction_b(r: int, shadow_coeffs: dict, g_coeffs: dict,
                 spec: BracketSpec):
    """Holomorphic-projection correction coefficient b(r).

    b(r) = -Gamma(1-k) sum_{m-n=r, n>=1} sum_mu C(k+nu-1, nu-mu) C(l+nu-1, mu)
           m^{nu-mu} a_g(m) c(n) (m^{mu-2nu-l+1} P_{k+l+2nu, 2-k-mu}(r, n)
           - n^{k+mu-1}).

    Returned as a pair (gamma_factor, algebraic_sum) whose product is b(r):
    the first factor is -Gamma(1-k) as an exact PiScalar, the second is the
    double sum, a Fraction or QuadExt.  Half-integer powers only appear for
    supports where square roots are exact; mixing two incompatible radicands
    in one sum is an error.
    """
    if r < 1:
        raise ValueError("r must be positive")
    k, l, nu = spec.k, spec.l, spec.nu
    if (k + l).denominator != 1:
        raise ValueError("correction machinery needs k + l integral")
    w = int(spec.total_weight)
    terms = []
    for mu in range(nu + 1):
        coeff = gen_binom(k + nu - 1, nu - mu) * gen_binom(l + nu - 1, mu)
        if coeff:
            terms.append((mu, coeff, p_poly(w, 2 - k - mu)))
    total: Fraction | QuadExt = Fraction(0)
    for n, cn in shadow_coeffs.items():
        if n < 1 or not cn:
            continue
        m = n + r
        am = g_coeffs.get(m, 0)
        if not am:
            continue
        m_power = half_power(m, 1 - nu - l)
        for mu, coeff, poly in terms:
            p_term = m_power * poly_eval(poly, Fraction(r), Fraction(n))
            n_term = half_power(n, k + mu - 1) * Fraction(m) ** (nu - mu)
            total = total + coeff * am * cn * (p_term - n_term)
    return -gamma_half(1 - k), total
