"""Pell orbits: the solutions of s m^2 - t n^2 = r for non-square s*t, found
by one sweep of Nagell's window and summed orbit by orbit in closed form in
Z[sqrt D].  Only the non-square Lambda and Delta series load this module:
:func:`qrel.holproj._double_sums` imports it in that branch alone, so the
class number applications (s = t = 1) never compile it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import isqrt, lcm

from .holproj import _check_degree
from .scalars import QuadExt, is_square, squarefree_split


def pell_fundamental(N: int) -> tuple[int, int]:
    """Least positive solution (x, y) of x^2 - N y^2 = 1, N a non-square >= 2.

    Computed from the continued fraction expansion of sqrt(N).
    """
    if N < 2 or is_square(N):
        raise ValueError(f"need a non-square N >= 2, got {N}")
    a0 = isqrt(N)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - N * k * k != 1:
        m = d * a - m
        d = (N - m * m) // d
        a = (a0 + m) // d
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k


# The orbit decomposition of the solutions of s m^2 - t n^2 = r.  D is the
# squarefree part of s*t; unit the fundamental unit of x^2 - st y^2 = 1 in
# Q(sqrt(D)), and unit_xy the same unit as (x, y) with x + y sqrt(st);
# fundamental_solutions the minimal (m, n) with m, n >= 1, one per orbit.
PellOrbitData = namedtuple("PellOrbitData",
                           "s t r D unit unit_xy fundamental_solutions")


def _advance(u: int, n: int, x: int, y: int, d: int) -> tuple[int, int]:
    """(u + n sqrt(d)) * (x + y sqrt(d)) as an (int, int) pair."""
    return u * x + n * y * d, u * y + n * x


def _orbit(u: int, n: int, x: int, y: int, d: int, mod: int = 0):
    """The one orbit walker: u + n sqrt(d) times (x + y sqrt(d))^k for
    k = 0, 1, ..., as (int, int) pairs, reduced mod `mod` when given.  It
    moves Pell solutions along their orbit (d = st) and terms in Z[sqrt(D)]."""
    while True:
        if mod:
            u, n = u % mod, n % mod
        yield u, n
        u, n = _advance(u, n, x, y, d)


def _terms(s: int, st: int, D: int, x: int, y: int, nu: int):
    """w = eps^{-e} and alpha in Z[sqrt D] (c^2 D = st, e = 2nu+1): the terms
    (s m - c n sqrt D)^e of the orbit of (m, n) are alpha(m, n) w^k."""
    c, e = isqrt(st // D), 2 * nu + 1
    def power(a: int, b: int) -> tuple[int, int]:   # (a + b sqrt D)^e
        pa, pb = a, b
        for _ in range(e - 1):
            pa, pb = _advance(pa, pb, a, b, D)
        return pa, pb
    return power(x, -y * c), lambda m, n: power(s * m, -c * n)


def _window_hits(s: int, st: int, x: int, y: int, lo: int, hi: int):
    """(r, u, n) for every u^2 - st n^2 = s r with lo <= r <= hi, s | u > 0
    and 2(x+1) n^2 <= y^2 s r (Nagell's window), in one sweep over n: for
    each n, u steps by s across s r_min <= u^2 - st n^2 <= s hi, r_min the
    least r >= lo whose window holds n."""
    k, yys, top, start = 2 * (x + 1), y * y * s, s * hi, 0
    for r_min in range(lo, hi + 1):
        stop, bot = isqrt(yys * r_min // k) + 1, s * r_min
        for n in range(start, stop):
            base = st * n * n
            u = isqrt(base + top)
            if u * u - base < bot:
                continue
            u -= u % s
            while u * u - base >= bot:
                yield (u * u - base) // s, u, n
                u -= s
        start = stop


def _starts(s: int, st: int, x: int, y: int, lo: int, hi: int):
    """(r, starts) for each r in [lo, hi] with solutions, in order: the set
    of each of r's orbits' first point (u, n) = (s m, n) with n >= 1.  Each
    is a window hit with n >= 1 or the unit image of a hit's conjugate: for
    a hit (u, 0), its own conjugate, that image is (u x, u y), and u y >= 1
    since u >= s > 0 at every hit."""
    reps: dict = {}
    for r, u, n in _window_hits(s, st, x, y, lo, hi):
        reps.setdefault(r, []).append(_advance(u, -n, x, y, st))
        if n:
            reps[r].append((u, n))
    for r in sorted(reps):
        yield r, set(reps.pop(r))


def pell_orbit(s: int, t: int, r: int) -> PellOrbitData:
    """Decompose {(m, n): s m^2 - t n^2 = r, m, n >= 1} into unit orbits.

    Internally works with u = s*m, so u^2 - st n^2 = s*r; the unit
    x + y sqrt(st) acts on (u, n) and preserves u = 0 (mod s).  Each
    returned fundamental solution generates its orbit upward; together they
    cover every solution exactly once.  By Nagell's bound (Introduction to
    Number Theory, Thm. 108) each orbit holds (u, +-n) with 2(x+1) n^2 <=
    y^2 sr, so _window_hits with lo = hi = r finds them all.
    """
    if s < 1 or t < 1 or r < 1:
        raise ValueError("s, t, r must be positive")
    st = s * t
    if is_square(st):
        raise ValueError("s*t is a perfect square; use the finite factorization path")
    _, D = squarefree_split(st)
    x, y = pell_fundamental(st)
    unit = QuadExt(x, y * isqrt(st // D), D)
    _, starts = next(_starts(s, st, x, y, r, r), (r, ()))
    fundamental = sorted((u // s, n) for u, n in starts)
    return PellOrbitData(s, t, r, D, unit, (x, y), fundamental)


def _orbit_sums(s: int, t: int, chi, psi, nu: int, lo: int, hi: int):
    """D, N and r -> (a, b) with (a + b sqrt D) / N the orbit sum of r, for
    every r in [lo, hi] (s*t not a square).  The terms alpha * w^k of an
    orbit (_terms) are geometric, and chi(m) psi(n) depends on
    (u, n) mod L = lcm(s mod(chi), mod(psi)) only, so every orbit is summed
    in integers over the order P of eps mod L, over g = 1 - w^P; then
    1/g = conj(g) / N, N = norm(g), the one denominator of the series.  The
    weighted sum over P steps depends on the orbit's start mod L alone, so
    it is made once per start (at most L^2 of them)."""
    st = s * t
    _, D = squarefree_split(st)
    x, y = pell_fundamental(st)
    w, alpha = _terms(s, st, D, x, y, nu)
    L = lcm(s * chi.modulus, psi.modulus)
    P = 1 + next(k for k, un in enumerate(_orbit(x, y, x, y, st, L))
                 if un == (1 % L, 0))
    *ws, w_P = islice(_orbit(1, 0, *w, D), P + 1)
    ga, gb = 1 - w_P[0], -w_P[1]
    sums, parts = {}, {}
    for r, starts in _starts(s, st, x, y, lo, hi):
        a = b = 0
        for u, n in starts:
            start = u % L, n % L
            if start not in parts:
                pa = pb = 0
                for (uk, nk), (wa, wb) in zip(_orbit(*start, x, y, st, L), ws):
                    cv = chi(uk // s) * psi(nk)
                    pa, pb = pa + cv * wa, pb + cv * wb
                parts[start] = pa, pb
            pa, pb = _advance(*parts[start], *alpha(u // s, n), D)
            a, b = a + pa, b + pb
        if a or b:
            sums[r] = _advance(a, b, ga, -gb, D)
    return D, ga * ga - D * gb * gb, sums


def orbit_tail_split(s: int, t: int, nu: int, r: int, m_bound: int):
    """Split the trivial-character double sum at m <= m_bound.

    Returns (head, tail): head is the finite sum over solutions with
    m <= m_bound (scaled by s^{nu+1/2}), tail the exact closed-form remainder
    over m > m_bound.  head + tail equals indefinite_double_sum.
    """
    _check_degree(nu)
    orbits = pell_orbit(s, t, r)
    st, D, (x, y) = s * t, orbits.D, orbits.unit_xy
    w, alpha = _terms(s, st, D, x, y, nu)
    ha = hb = ta = tb = 0
    for m, n in orbits.fundamental_solutions:
        terms = _orbit(*alpha(m, n), *w, D)
        for (u, _), (a, b) in zip(_orbit(s * m, n, x, y, st), terms):
            if u // s > m_bound:
                break
            ha, hb = ha + a, hb + b
        ta, tb = ta + a, tb + b
    return QuadExt(ha, hb, D), QuadExt(ta, tb, D) / QuadExt(1 - w[0], -w[1], D)
