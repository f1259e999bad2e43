"""The level-25 and level-49 weight-2 identities (``cor_i``, ``cor_ii``)
and the divisor-sum expansion of Lambda^{(p,a)}_nu | U(4) (``prop72``),
checks of the registry in :mod:`qrel.relations`.

The base (H theta^(p,0))|U(4) of ``cor_i`` and ``cor_ii`` is the moment A_0
of :func:`~qrel.slots.theta_moments` over s = 0 (mod p) at m = 4n; both
checks build each side as one integer list times a common scale.
"""

from __future__ import annotations

from math import isqrt

from .arith import (divisor_sieve, kronecker_character, pair_sieve,
                    residue_class_sieve)
from .classnum import hurwitz_cache
from .relations import RelationReport, _Timer
from .slots import theta_moments


def _add(out: list[int], at: slice, c: int, values) -> None:
    """out[at] += c * values, entry by entry, for a strided slice at."""
    out[at] = [u + c * v for u, v in zip(out[at], values)]


def _theta_d_side(p: int, T: int, scale: int, c1: int, classes) -> list[int]:
    """scale times (H * theta^{(p,0)})|U(4) + c1 D_1^{(1,0)}|V(p^2)
    + 2 sum over (a, r) in classes of D_1^{(p,a)}|S_{p,r}, for 0 <= n <= T:
    the moments A_0(4n), and each D-series added by one strided slice."""
    sums, = theta_moments(hurwitz_cache().scaled_table(4 * T),
                          range(0, 4 * T + 1, 4), 0, p)
    out = [scale // 12 * v for v in sums]
    _add(out, slice(None, None, p * p), scale * c1,
         residue_class_sieve(T // (p * p), 1, 1, 0))
    for a, r in classes:
        _add(out, slice(r, None, p), 2 * scale,
             residue_class_sieve(T, 1, p, a)[r::p])
    return out


def check_cor_i(max_n: int = 1000) -> RelationReport:
    """Level-25 weight-2 identity:

        (H * theta^{(5,0)})|U(4) + 5 D_1^{(1,0)}|V(25)
          + 2 D_1^{(5,1)}|S_{5,4} + 2 D_1^{(5,2)}|S_{5,r}
        = (1/2) G_2 + (1/12) (G_2 (x) chi_5 - G_2 (x) chi_5^2)
          - G_2|V(5) + (5/2) G_2|V(25).

    The sieve residue r on the D_1^{(5,2)} term circulates both as 4 and
    as 1; both are tested and the report records which closes the
    identity.  The twist G_2 (x) chi_5 - G_2 (x) chi_5^2 is read as the
    twist by n -> chi_5(n) - chi_5(n)^2, which is the same series.
    """
    rep = RelationReport("cor_i", 0, max_n, "all n")
    with _Timer(rep):
        # times 48
        T = max_n
        diff = [c - c * c for c in kronecker_character(5).values][:T + 1]
        sigma = divisor_sieve(T)
        g24 = [-1] + [24 * v for v in sigma[1:]]           # 24 G_2
        rhs = g24[:]
        for r, w in enumerate(diff):
            _add(rhs, slice(r, None, 5), 4 * w, sigma[r::5])
        _add(rhs, slice(None, None, 5), -2, g24)
        _add(rhs, slice(None, None, 25), 5, g24)
        common = _theta_d_side(5, T, 48, 5, [(1, 4)])
        d52 = residue_class_sieve(T, 1, 5, 2)
        variants = {r: common[:] for r in (1, 4)}
        for r, lhs in variants.items():
            _add(lhs, slice(r, None, 5), 96, d52[r::5])
        best = rep.record_best(range(T + 1), variants, rhs, 48)
        rep.notes = f"sieve residue on D_1^(5,2): {best}"
    return rep


def check_cor_ii(max_n: int = 500) -> RelationReport:
    """Level-49 weight-2 identity on n supported on primes >= 5, != 7:

        (H * theta^{(7,0)})|U(4) + 7 D_1^{(1,0)}|V(49)
          + 2 D_1^{(7,2)}|S_{7,3} + 2 D_1^{(7,4)}|S_{7,5} + 2 D_1^{(7,1)}|S_{7,6}
        = (1/4) G_2 - (1/24) G_2 (x) (chi_7 - chi_7^2) + (1/4) g_7,

    with g_7 the weight-2 newform of the curve 49a1
    (y^2 = x^3 - 2835 x - 71442), built as its CM theta series
    (forms.g7); point counts plus the Hecke recursion are its test oracle.
    """
    rep = RelationReport("cor_ii", 1, max_n,
                         "n with prime support >= 5 and != 7")
    with _Timer(rep):
        # times 24, on the support of g_7
        from . import forms
        T = max_n
        chi7 = kronecker_character(7)
        lhs = _theta_d_side(7, T, 24, 7, [(2, 3), (4, 5), (1, 6)])
        sigma = divisor_sieve(T)
        g7 = forms.g7(T)
        ns = sorted(g7.defined)
        rep.record_lists(ns, [lhs[n] for n in ns],
                         [(6 - chi7(n) + chi7(n) ** 2) * sigma[n] + 6 * g7.coeff(n)
                          for n in ns], 24)
    return rep


# ---------------------------------------------------------------------------
# Residue-class partial sums and their image under U(4)


def w_term(p: int, a: int, e: int, T: int) -> list[int]:
    """For 0 <= n <= T: 2 sum over divisors alpha of n with alpha < sqrt(n),
    alpha = 0 (p), n/alpha = +-a (p), of alpha^e."""
    targets = {a % p, -a % p}
    return pair_sieve(T, ((d, f, 2 * d ** e) for d in range(p, isqrt(T) + 1, p)
                          for f in range(d + 1, d + 1 + p) if f % p in targets), p)


def prop72_rhs(p: int, a: int, nu: int, T: int, d: list[list[int]]) -> list[int]:
    """Divisor-sum expansion of Lambda^{(p,a)}_nu | U(4), for 0 <= n <= T.

    For a = 0 this is the commonly printed form; for a != 0 the printed
    form omits one of the two residue families and misstates the
    square-divisor threshold, and the corrected assembly below is the one
    that holds (verified exactly for p in {5,7}, nu in {0,1}, n <= 500).
    d is a list of p coefficient lists: d[c] is D^{(p,c)}_{2nu+1} up to T
    for c = 1..p-1, and d[0] is D^{(1,0)}_{2nu+1} up to T/p^2, which
    V(p^2) lifts to the class 0.
    """
    e = 2 * nu + 1
    total = [0] * (T + 1)
    for c in range(1, p):
        for b in {a % p, -a % p}:       # one class for a = 0
            r = c * (b - c) % p         # D^{(p,c)}_e | S_{p,r}; r = 0 at c = b
            _add(total, slice(r, None, p), 1, d[c][r::p])
    if a % p == 0:      # p^e D^{(1,0)}_e | V(p^2)
        _add(total, slice(None, None, p * p), p ** e, d[0])
    else:
        total = [u + v for u, v in zip(total, w_term(p, a, e, T))]
    return [2 ** e * v for v in total]


def check_prop72(max_n: int = 500, primes: tuple[int, ...] = (5, 7),
                 nus: tuple[int, ...] = (0, 1)) -> RelationReport:
    """Lambda^{(p,a)}_nu | U(4) equals its divisor-sum expansion for every
    residue a, coefficientwise, compared as integers."""
    rep = RelationReport("prop72", 1, max_n,
                         f"all n; p in {list(primes)}, nu in {list(nus)}, all a")
    with _Timer(rep):
        from . import holproj
        ns = range(1, max_n + 1)
        for p in primes:
            for nu in nus:
                d = [residue_class_sieve(max_n // (p * p), 2 * nu + 1, 1, 0)] + [
                    residue_class_sieve(max_n, 2 * nu + 1, p, c) for c in range(1, p)]
                # a and p - a name the same class set {a, -a}: build it once
                sides = {}
                for a in range(p // 2 + 1):     # U(4): the coefficients at 4n
                    lam = holproj.lambda_pa(p, a, nu, 4 * max_n).coeffs
                    sides[a] = ([lam.get(4 * n, 0) for n in ns],
                                prop72_rhs(p, a, nu, max_n, d)[1:])
                for a in range(p):
                    rep.record_lists(ns, *sides[min(a, p - a)], 1)
    return rep
