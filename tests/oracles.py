"""Slow reference implementations that the tests check qrel's fast paths
against.  Nothing in qrel calls them, so they live here rather than in
the package."""

from fractions import Fraction
from math import gcd

from qrel.arith import H0
from qrel.qseries import QSeries
from qrel.scalars import QuadExt


def reduced_forms(n: int) -> list[tuple[int, int, int]]:
    """All reduced binary quadratic forms (a, b, c) of discriminant -n.

    Reduction: |b| <= a <= c with b >= 0 whenever |b| == a or a == c.
    Imprimitive forms are included; this is the brute-force oracle behind
    the Hurwitz class numbers.
    """
    if n <= 0 or n % 4 not in (0, 3):
        raise ValueError(f"discriminant -{n} is not 0 or 1 mod 4")
    forms = []
    a = 1
    while 3 * a * a <= n:
        for b in range(-a, a + 1):
            num = b * b + n
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (c == a or -b == a):
                continue
            forms.append((a, b, c))
        a += 1
    return forms


def _form_weight(a: int, b: int, c: int) -> Fraction:
    if b == 0 and a == c:
        return Fraction(1, 2)
    if a == b == c:
        return Fraction(1, 3)
    return Fraction(1)


def hurwitz_oracle(n: int) -> Fraction:
    """Hurwitz class number by direct enumeration of reduced forms."""
    if n < 0 or n % 4 in (1, 2):
        return Fraction(0)
    if n == 0:
        return H0
    return sum((_form_weight(*f) for f in reduced_forms(n)), Fraction(0))


def class_number_decomposition(n: int) -> Fraction:
    """H(n) as a sum of weighted primitive class numbers over f^2 | n.

    Independent of the all-forms enumeration: counts primitive reduced forms
    of each discriminant -n/f^2 separately.
    """
    if n < 0 or n % 4 in (1, 2):
        return Fraction(0)
    if n == 0:
        return H0
    total = Fraction(0)
    f = 1
    while f * f <= n:
        if n % (f * f) == 0:
            m = n // (f * f)
            if m % 4 in (0, 3):
                total += sum((_form_weight(*fo) for fo in reduced_forms(m)
                              if gcd(gcd(fo[0], fo[1]), fo[2]) == 1), Fraction(0))
        f += 1
    return total


def series_from_csv_lines(lines, trunc: int) -> QSeries:
    """Read back QSeries.to_csv_lines: "n,num,den" or
    "n,a_num,a_den,b_num,b_den,D" per coefficient."""
    coeffs: dict = {}
    for line in lines:
        parts = line.strip().split(",")
        if not line.strip():
            continue
        if len(parts) == 3:
            n, num, den = map(int, parts)
            coeffs[n] = Fraction(num, den)
        elif len(parts) == 6:
            n, an, ad, bn, bd, D = map(int, parts)
            coeffs[n] = QuadExt(Fraction(an, ad), Fraction(bn, bd), D)
        else:
            raise ValueError(f"malformed series line: {line!r}")
    return QSeries(coeffs, trunc)
