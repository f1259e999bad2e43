"""The indefinite theta series Lambda and Delta, built from Pell-orbit
summation, and the congruence-restricted Lambda^{(p,a)} of the class number
applications, exact over Q or a real quadratic field.  The names of
:mod:`qrel.brackets` still resolve here.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm

from .arith import DirichletCharacter, kronecker_character, pair_sieve
from .qseries import QSeries, _check_trunc
from .scalars import QuadExt, is_square, squarefree_split


# ---------------------------------------------------------------------------
# Pell orbits


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
# fundamental_solutions the minimal (m, n) with m, n >= 1, one per orbit;
# window_reps the internal (u, n) = (s*m, n) representatives.
PellOrbitData = namedtuple("PellOrbitData", "s t r D unit unit_xy "
                           "fundamental_solutions window_reps")


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
        return next(islice(_orbit(1, 0, a, b, D), e, None))
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


def _windows(s: int, st: int, x: int, y: int, lo: int, hi: int):
    """(r, fundamental, window) for each r in [lo, hi] with solutions, in
    order: each orbit's first point (m, n) with n >= 1 (m >= 1 as u > 0,
    s | u), and the hits and the unit images of their conjugates, sorted by
    n (one per orbit)."""
    reps: dict = {}
    for r, u, n in _window_hits(s, st, x, y, lo, hi):
        reps.setdefault(r, []).append((u, n))
        if n:
            reps[r].append(_advance(u, -n, x, y, st))
    for r in sorted(reps):
        window = sorted(set(reps.pop(r)), key=lambda rep: rep[1])
        yield r, sorted(next((u // s, n) for u, n in _orbit(*rep, x, y, st) if n)
                        for rep in window), window


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
    _, fundamental, window = next(_windows(s, st, x, y, r, r), (r, [], []))
    return PellOrbitData(s, t, r, D, unit, (x, y), fundamental, window)


def _orbit_sums(s: int, t: int, chi, psi, nu: int, lo: int, hi: int):
    """D, N and r -> (a, b) with (a + b sqrt D) / N the orbit sum of r, for
    every r in [lo, hi] (s*t not a square).  The terms alpha * w^k of an
    orbit (_terms) are geometric, and chi(m) psi(n) depends on
    (u, n) mod L = lcm(s mod(chi), mod(psi)) only, so every orbit is summed
    in integers over the order P of eps mod L, over g = 1 - w^P; then
    1/g = conj(g) / N, N = norm(g), the one denominator of the series."""
    st = s * t
    _, D = squarefree_split(st)
    x, y = pell_fundamental(st)
    w, alpha = _terms(s, st, D, x, y, nu)
    L = lcm(s * chi.modulus, psi.modulus)
    P = 1 + next(k for k, un in enumerate(_orbit(x, y, x, y, st, L))
                 if un == (1 % L, 0))
    *ws, w_P = islice(_orbit(1, 0, *w, D), P + 1)
    ga, gb = 1 - w_P[0], -w_P[1]
    sums = {}
    for r, fundamental, _ in _windows(s, st, x, y, lo, hi):
        a = b = 0
        for m, n in fundamental:
            pa = pb = 0
            for (u, v), (wa, wb) in zip(_orbit(s * m, n, x, y, st, L), ws):
                cv = chi(u // s) * psi(v)
                pa, pb = pa + cv * wa, pb + cv * wb
            pa, pb = _advance(pa, pb, *alpha(m, n), D)
            a, b = a + pa, b + pb
        if a or b:
            sums[r] = _advance(a, b, ga, -gb, D)
    return D, ga * ga - D * gb * gb, sums


# ---------------------------------------------------------------------------
# Indefinite theta series Lambda and Delta


def _double_sums(s: int, t: int, chi, psi, nu: int, lo: int, hi: int):
    """D, N and the nonzero double sums of r in [lo, hi], scaled by
    s^{nu+1/2}: r -> (a, b) with (a + b sqrt D) / N the sum of r, from the
    Pell orbits; or, when s*t = c^2 (D = N = 1), r -> an int, from one pair
    sieve over d f = s r, d = s m - c n < f = s m + c n, whose term
    chi(m) psi(n) d^{2nu+1} depends on f modulo lcm(2s mod(chi), 2c mod(psi))."""
    if s < 1 or t < 1 or lo < 1:
        raise ValueError("s, t, r must be positive")
    _check_degree(nu)
    if not is_square(s * t):
        return _orbit_sums(s, t, chi, psi, nu, lo, hi)
    c, e = isqrt(s * t), 2 * nu + 1
    g, step = gcd(s, c), lcm(2 * s, 2 * c)
    period = lcm(2 * s * chi.modulus, 2 * c * psi.modulus)

    def classes():
        # d < f, so d^2 < s hi; the two congruences hold together only if g | d
        for d in range(g, isqrt(max(s * hi - 1, 0)) + 1, g):
            least = max(d + 1, -(-s * lo // d))
            f = least + (-d - least) % (2 * s)
            f = next(f for f in range(f, f + step, 2 * s) if (f - d) % (2 * c) == 0)
            de = d ** e
            for f in range(f, min(least + period, s * hi // d + 1), step):
                yield d, f, chi((d + f) // (2 * s)) * psi((f - d) // (2 * c)) * de

    sums = pair_sieve(hi, classes(), period, lo, s)
    return 1, 1, {r: v for r, v in enumerate(sums, lo) if v}


def indefinite_double_sum(s: int, t: int, chi, psi, nu: int, r: int):
    """sum over s m^2 - t n^2 = r, m, n >= 1 of chi(m) psi(n)
    (s m - sqrt(st) n)^{2 nu + 1}, i.e. the Lambda double sum scaled by
    s^{nu + 1/2}: an int when s*t is a square, else a QuadExt."""
    D, N, sums = _double_sums(s, t, chi, psi, nu, r, r)
    if D == 1:
        return sums.get(r, 0)
    a, b = sums.get(r, (0, 0))
    return QuadExt(Fraction(a, N), Fraction(b, N), D)


def _check_positive(s: int, t: int) -> None:
    if s < 1 or t < 1:
        raise ValueError(f"s and t must be positive, got s={s}, t={t}")


def _check_degree(nu: int) -> None:
    # a negative nu gives the exponent 2nu+1 < 0 and float terms
    if nu < 0:
        raise ValueError(f"degree nu must be nonnegative, got {nu}")


def lambda_indef(s: int, t: int, chi: DirichletCharacter,
                 psi: DirichletCharacter, nu: int, T: int) -> QSeries:
    """The indefinite theta series Lambda_{s,t}^{chi,psi}(tau; nu).

    Coefficient of q^r: 2 * sum_{s m^2 - t n^2 = r, m, n >= 1}
    chi(m) psi(n) (sqrt(s) m - sqrt(t) n)^{2 nu + 1}, plus for r = s rho^2
    the boundary term psi(0) chi(rho) (sqrt(s) rho)^{2 nu + 1}.

    For perfect-square s the coefficients are exact as stated; for
    non-square s every coefficient carries an irrational global factor
    sqrt(s), so the returned series is scaled by s^{nu + 1/2} to stay inside
    one quadratic field.
    """
    _check_positive(s, t)
    if not (chi.is_even and psi.is_even):
        raise ValueError("lambda_indef needs even characters")
    return _indef_series(s, t, chi, psi, nu, T)


def delta_indef(s: int, t: int, chi: DirichletCharacter,
                psi: DirichletCharacter, nu: int, T: int) -> QSeries:
    """Delta_{s,t}^{chi,psi}: the same double sum with odd characters and no
    boundary term (psi(0) = 0 for odd psi)."""
    _check_positive(s, t)
    if not (chi.is_odd and psi.is_odd):
        raise ValueError("delta_indef needs odd characters")
    return _indef_series(s, t, chi, psi, nu, T)


def _indef_series(s: int, t: int, chi, psi, nu: int, T: int) -> QSeries:
    _check_trunc(T)     # before the sweep, which checks s, t and nu
    D, N, sums = _double_sums(s, t, chi, psi, nu, 1, T)
    e = 2 * nu + 1
    boundary = {}
    if psi.modulus == 1:    # boundary terms at r = s rho^2, weighted by psi(0)
        for rho in range(1, isqrt(T // s) + 1):
            # (sqrt(s) rho)^{2nu+1} scaled by s^{nu+1/2} is s^{2nu+1} rho^{2nu+1}
            boundary[s * rho * rho] = chi(rho) * (s * rho) ** e
    # for square s the scaling by s^{nu+1/2} is undone in the denominator
    root = isqrt(s) ** e if is_square(s) else 1
    if D == 1:      # ints: with s*t square, t is a square if s is, and root | each term
        coeffs = {r: 2 * a // root for r, a in sums.items()}
        for r, v in boundary.items():
            coeffs[r] = coeffs.get(r, 0) + v // root
        return QSeries(coeffs, T)
    coeffs = {r: QuadExt(Fraction(2 * a + boundary.pop(r, 0) * N, N * root),
                         Fraction(2 * b, N * root), D) for r, (a, b) in sums.items()}
    coeffs.update((r, Fraction(v, root)) for r, v in boundary.items())
    return QSeries(coeffs, T)


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


# ---------------------------------------------------------------------------
# The congruence-restricted series of the class number applications


def lambda_pa(p: int, a: int, nu: int, T: int) -> QSeries:
    """Lambda^{(p,a)}_nu: Lambda_{1,1} with the class weight [m = +-a (p)]
    in place of chi, i.e. 2 sum_{m^2-n^2>0, m,n>=1, m=+-a (p)} (m-n)^{2nu+1}
    q^{m^2-n^2} + sum_{m>=1, m=+-a (p)} m^{2nu+1} q^{m^2}.

    For a = 0 the two sign choices name the same residue class, so the class
    is counted once (no doubling); this is the normalization under which the
    U(4) operator identity for these series holds exactly.
    """
    if not 0 <= a < p:
        raise ValueError("need 0 <= a < p")
    # the class weight as a periodic value table: the sieve reads its period
    weight = DirichletCharacter(p, [m in (a, p - a) for m in range(p)])
    return _indef_series(1, 1, weight, kronecker_character(1), nu, T)


def __getattr__(name: str):     # names moved to qrel.brackets (PEP 562)
    if name not in ("BracketSpec", "rankin_cohen", "poly_eval", "p_poly_ints",
                    "p_poly", "kappa", "half_power", "correction_b"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import brackets
    return getattr(brackets, name)
