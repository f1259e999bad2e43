"""The indefinite theta series Lambda and Delta, and the
congruence-restricted Lambda^{(p,a)} of the class number applications,
exact over Q or a real quadratic field.  For square s*t the double sums are
one pair sieve; otherwise they are Pell-orbit sums from :mod:`qrel.pell`,
imported only then.  The names of :mod:`qrel.brackets` and :mod:`qrel.pell`
still resolve here.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import import_module
from math import gcd, isqrt, lcm

from .arith import DirichletCharacter, kronecker_character, pair_sieve
from .qseries import QSeries, _check_trunc
from .scalars import QuadExt, is_square


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
        from .pell import _orbit_sums
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


# The names that moved out of this module and that the acceptance gate still
# reads here, by module (PEP 562).
_MOVED = {
    **dict.fromkeys(("BracketSpec", "kappa", "correction_b"), "brackets"),
    **dict.fromkeys(("pell_orbit", "orbit_tail_split"), "pell"),
    "squarefree_split": "scalars",
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MOVED[name]}", __package__), name)
