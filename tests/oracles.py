"""Slow reference implementations that the tests check qrel's fast paths
against.  Nothing in qrel calls them, so they live here rather than in
the package."""

from array import array
from fractions import Fraction
from math import comb, factorial, gcd, isqrt, lcm

from qrel import arith, brackets, forms
from qrel.arith import _primes_upto, hurwitz_cache, jacobi_symbol, kronecker_character
from qrel.qseries import QSeries, _euler_function
from qrel.relations import RelationReport
from qrel.scalars import PiScalar, QuadExt, as_half_integer
from qrel.slots import theta_moments


H0 = Fraction(-1, 12)     # the Hurwitz class number at n = 0


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


def hurwitz_sweep(max_n: int) -> array:
    """The table 12*H(n), 0 <= n <= max_n, by qrel's former fill: one slice
    update per reduced-form tail over the whole range, in a list."""
    table = [0] * (max_n + 1)
    table[0] = -1
    a = 1
    while 3 * a * a <= max_n:
        step = 4 * a
        for b in range(a + 1):
            # n = 4ac - b^2 runs over n0 + 4a*(c - a).  At c = a only
            # (a, b, a) is reduced, with weight 1/2 at b = 0 and 1/3 at
            # b = a; for c > a both (a, +-b, c) are, unless b is 0 or a.
            n0 = 4 * a * a - b * b
            if n0 > max_n:
                continue
            table[n0] += 6 if b == 0 else 4 if b == a else 12
            weight = 24 if 0 < b < a else 12
            tail = slice(n0 + step, max_n + 1, step)
            table[tail] = [v + weight for v in table[tail]]
        a += 1
    return array("i", table)


def series_from_csv_lines(lines, trunc: int) -> QSeries:
    """Read back the CSV of `qrel series --format csv`: "n,num,den" or
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


def eta_product(factors, T: int) -> QSeries:
    """qrel.qseries.eta_product as q^lead times each Euler function
    prod (1 - q^{dn}) raised to its exponent e, with no Jacobi cube."""
    result = QSeries({sum(d * e for d, e in factors) // 24: 1}, T)
    for d, e in factors:
        result = result * _euler_function(d, T) ** e
    return result


# ---------------------------------------------------------------------------
# The divisor-pair sums of qrel.arith.pair_sieve's callers, one pair at a
# time


def square_sums(s: int, t: int, chi, psi, nu: int, lo: int, hi: int) -> dict:
    """r -> the double sum of r, an int, for every r in [lo, hi] with a
    nonzero sum (s*t = c^2).  s m^2 - t n^2 = r factors as d f = s r with
    d = s m - c n < f = s m + c n, so one sweep over d, and over the f of
    each d with f = -d (mod 2s), f = d (mod 2c) and d f in s[lo, hi],
    finds every solution; its term is chi(m) psi(n) d^{2nu+1}."""
    c, e, sums = isqrt(s * t), 2 * nu + 1, {}
    g, step = gcd(s, c), lcm(2 * s, 2 * c)
    # d < f, so d^2 < s hi; the two congruences hold together only if g | d
    for d in range(g, isqrt(max(s * hi - 1, 0)) + 1, g):
        f = max(d + 1, -(-s * lo // d))
        f += (-d - f) % (2 * s)
        f = next(f for f in range(f, f + step, 2 * s) if (f - d) % (2 * c) == 0)
        for f in range(f, s * hi // d + 1, step):
            v = chi((d + f) // (2 * s)) * psi((f - d) // (2 * c))
            if v:
                r = d * f // s
                sums[r] = sums.get(r, 0) + v * d ** e
    return {r: v for r, v in sums.items() if v}


def residue_class_sieve(max_n: int, k: int, p: int, a: int) -> list[int]:
    """D^{(p,a)}_k(n) for 0 <= n <= max_n: one slice per d in a class."""
    lam = [0] * (max_n + 1)
    for d in range(1, isqrt(max_n) + 1):
        minus, plus = d % p == (-a) % p, d % p == a
        if minus:
            lam[d * d] += d ** k
        if minus or plus:
            step = (minus + plus) * d ** k
            pairs = slice(d * (d + 1), max_n + 1, d)
            lam[pairs] = [v + step for v in lam[pairs]]
    return lam


def w_term(p: int, a: int, e: int, T: int) -> dict:
    """n -> 2 sum over divisors alpha of n with alpha < sqrt(n),
    alpha = 0 (p), n/alpha = +-a (p), of alpha^e, one pair at a time."""
    coeffs: dict[int, int] = {}
    targets = {a % p, (-a) % p}
    for alpha in range(p, isqrt(T) + 1, p):
        for n in range(alpha * (alpha + 1), T + 1, alpha):
            if (n // alpha) % p in targets:
                coeffs[n] = coeffs.get(n, 0) + 2 * alpha ** e
    return coeffs


# ---------------------------------------------------------------------------
# The newform of Cremona 49a1 from point counts and the Hecke recursion;
# qrel.forms.g7 builds it as the curve's CM theta series

# y^2 = x^3 - 2835 x - 71442: conductor 49, CM by Q(sqrt(-7))
G7_A4, G7_A6 = -2835, -71442


def ec_ap(a4: int, a6: int, p: int) -> int:
    """a_p of y^2 = x^3 + a4 x + a6 at a good prime p >= 5, as minus the
    sum of the Legendre symbols of x^3 + a4 x + a6 (jacobi_symbol).  A
    short Weierstrass model says nothing in characteristic 2 and 3, so
    smaller p, composite p and primes of bad reduction are refused."""
    if p < 5 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"need a prime p >= 5, got {p}")
    if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    return -sum(jacobi_symbol(x * x * x + a4 * x + a6, p) for x in range(p))


def hecke_extend(ap: dict[int, int], T: int) -> QSeries:
    """Extend weight-2 prime eigenvalues a(p) to all n <= T by Hecke
    multiplicativity: a(1) = 1, a(mn) = a(m)a(n) for coprime m, n, and
    a(p^{j+1}) = a(p) a(p^j) - p a(p^{j-1}).

    The result is defined only on the multiplicative span of the primes
    in ap; it is 0 elsewhere.
    """
    coeffs = {1: 1}
    for p in sorted(ap):
        if p > T:
            continue
        powers = {0: 1, 1: ap[p]}
        j = 1
        while p ** (j + 1) <= T:
            powers[j + 1] = ap[p] * powers[j] - p * powers[j - 1]
            j += 1
        new = dict(coeffs)
        for n, c in coeffs.items():
            for e in range(1, j + 1):
                m = n * p ** e
                if m <= T:
                    new[m] = c * powers[e]
        coeffs = new
    return QSeries(coeffs, T)


def g7_point_counts(T: int) -> forms.PartialSeries:
    """qrel.forms.g7 from a point count at every good prime p <= T
    (p >= 5, != 7), extended by hecke_extend."""
    ap = {p: ec_ap(G7_A4, G7_A6, p) for p in _primes_upto(T) if p >= 5 and p != 7}
    return forms.PartialSeries(dict(hecke_extend(ap, T).coeffs),
                               set(forms.g7_support(T)), T)


# ---------------------------------------------------------------------------
# The class number sums of qrel.relations, one index at a time


def record(rep: RelationReport, n: int, lhs, rhs) -> None:
    """Record one index of rep: lhs = rhs, a failure held as given."""
    rep.checked += 1
    if lhs != rhs:
        rep.failures.append((n, lhs, rhs))


def record_scaled(rep: RelationReport, n: int, lhs: int, rhs: int,
                  scale: int) -> None:
    """RelationReport.record_lists one index at a time: lhs/scale =
    rhs/scale compared as integers, a failure held as exact Fractions."""
    rep.checked += 1
    if lhs != rhs:
        rep.failures.append((n, Fraction(lhs, scale), Fraction(rhs, scale)))


def hap(a: int, p: int, n: int) -> Fraction:
    """H_{a,p}(n) = sum over s = a (mod p) of H(4n - s^2), one index at a
    time: the reference for relations.check_hap_table."""
    smax = isqrt(4 * n)
    s0 = a % p
    start = s0 - ((s0 + smax) // p) * p
    tab = hurwitz_cache().scaled_table(4 * n)
    return Fraction(sum([tab[4 * n - s * s] for s in range(start, smax + 1, p)]), 12)


def symmetric_sum(tab: list[int], m: int, weight=lambda s: 1) -> int:
    """sum over s in Z, s^2 <= m, of weight(s) * tab[m - s^2] for a weight
    even in s, folding s and -s into one term."""
    return weight(0) * tab[m] + 2 * sum([weight(s) * tab[m - s * s]
                                         for s in range(1, isqrt(m) + 1)])


def g_coeff(s: int, n: int, nu: int, *, double_s: bool) -> int:
    """Coefficient of X^{2 nu} in 1/(1 - S X + n X^2), with S = 2s when
    ``double_s`` else S = s, via the linear recurrence
    c_j = S c_{j-1} - n c_{j-2}."""
    if nu == 0:
        return 1
    S = 2 * s if double_s else s
    c0, c1 = 1, S
    for _ in range(2 * nu - 1):
        c0, c1 = c1, S * c1 - n * c0
    return c1


def g_sums(nu: int, double_s: bool, ns: range, ms: range) -> list[int]:
    """relations._g_sums one pair (n, m) at a time: the live 12 H table
    summed with the weight g_coeff(s, n) by symmetric_sum."""
    tab = hurwitz_cache().scaled_table(ms[-1])
    return [symmetric_sum(tab, m, lambda s: g_coeff(s, n, nu, double_s=double_s))
            for n, m in zip(ns, ms)]


def g_sums_per_n(nu: int, double_s: bool, ns: range, ms: range) -> list[int]:
    """relations._g_sums with its moments combined one n at a time by the
    formula sum_j c_j n^j A_(nu-j)(m), c_j = (-1)^j C(2nu-j, j) 4^(nu-j)
    when double_s else (-1)^j C(2nu-j, j)."""
    moments = theta_moments(hurwitz_cache().scaled_table(ms[-1]), ms, nu)
    c = [(-1) ** j * comb(2 * nu - j, j) * (4 ** (nu - j) if double_s else 1)
         for j in range(nu + 1)]
    return [sum(cj * n ** j * a[nu - j] for j, cj in enumerate(c))
            for n, *a in zip(ns, *moments)]


def theta_base(p: int, T: int) -> QSeries:
    """relations._theta_base one n at a time: the live 12 H table summed
    over s = 0 (mod p) at 4n, over 12."""
    tab = hurwitz_cache().scaled_table(4 * T)
    sums = [symmetric_sum(tab, 4 * n, lambda s: int(s % p == 0))
            for n in range(T + 1)]
    return QSeries({n: Fraction(a, 12) for n, a in enumerate(sums)}, T)


def d_pa_series(p: int, a: int, k: int, T: int) -> QSeries:
    """D^{(p,a)}_k = sum_n lambda_k^{(p,a)}(n) q^n, read from
    qrel.arith.residue_class_sieve."""
    return QSeries(dict(enumerate(arith.residue_class_sieve(T, k, p, a))), T)


def cor_i_sides(T: int) -> tuple[dict, QSeries]:
    """The two variants (sieve residue r = 4 or 1) of the left side of
    qrel.relations.check_cor_i and its right side, as Fraction series
    built by the QSeries operators."""
    chi5 = kronecker_character(5)
    g2 = forms.eisenstein_g2(T)
    twist_diff = g2.twist(chi5) - g2.twist(lambda n: chi5(n) ** 2)
    rhs = (g2.scale(Fraction(1, 2))
           + twist_diff.scale(Fraction(1, 12))
           - g2.v_op(5).truncate(T)
           + g2.v_op(25).truncate(T).scale(Fraction(5, 2)))
    d10 = d_pa_series(1, 0, 1, -(-T // 25)).v_op(25).scale(5).truncate(T)
    common = (theta_base(5, T) + d10
              + d_pa_series(5, 1, 1, T).sieve(5, 4).scale(2))
    d52 = d_pa_series(5, 2, 1, T)
    variants = {r: common + d52.sieve(5, r).scale(2) for r in (4, 1)}
    return variants, rhs


def check_cor_i(max_n: int):
    """qrel.relations.check_cor_i one Fraction coefficient at a time."""
    rep = RelationReport("cor_i", 0, max_n, "all n")
    variants, rhs = cor_i_sides(max_n)
    misses = {r: sum(lhs.coeff(n) != rhs.coeff(n) for n in range(max_n + 1))
              for r, lhs in variants.items()}
    best = min(misses, key=lambda r: (misses[r], r))
    for n in range(max_n + 1):
        record(rep, n, variants[best].coeff(n), rhs.coeff(n))
    rep.notes = f"sieve residue on D_1^(5,2): {best}"
    return rep


def check_cor_ii(max_n: int):
    """qrel.relations.check_cor_ii one Fraction coefficient at a time."""
    rep = RelationReport("cor_ii", 1, max_n,
                         "n with prime support >= 5 and != 7")
    T = max_n
    chi7 = kronecker_character(7)
    lhs = (theta_base(7, T)
           + d_pa_series(1, 0, 1, -(-T // 49)).v_op(49).scale(7).truncate(T)
           + d_pa_series(7, 2, 1, T).sieve(7, 3).scale(2)
           + d_pa_series(7, 4, 1, T).sieve(7, 5).scale(2)
           + d_pa_series(7, 1, 1, T).sieve(7, 6).scale(2))
    g2 = forms.eisenstein_g2(T)
    g7 = forms.g7(T)
    for n in forms.g7_support(T):
        rhs = (Fraction(1, 4) * g2.coeff(n)
               - Fraction(1, 24) * (chi7(n) - chi7(n) ** 2) * g2.coeff(n)
               + Fraction(1, 4) * g7.coeff(n))
        record(rep, n, lhs.coeff(n), rhs)
    return rep


# ---------------------------------------------------------------------------
# Exact scalar kernels and the closed summation identities, as Fraction
# loops that reduce every partial product and partial sum


def gen_binom(x, m: int) -> Fraction:
    """x(x-1)...(x-m+1)/m!, one Fraction factor at a time."""
    if m < 0:
        raise ValueError("lower index must be nonnegative")
    x = Fraction(x)
    num = Fraction(1)
    for j in range(m):
        num *= x - j
    return num / factorial(m)


def falling_gamma_ratio(x, mu: int) -> Fraction:
    """(x-1)(x-2)...(x-mu), one Fraction factor at a time."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    x = Fraction(x)
    result = Fraction(1)
    for j in range(1, mu + 1):
        result *= x - j
    return result


def gamma_half(h) -> PiScalar:
    """Gamma(h) at a half-integer h by Gamma(x+1) = x Gamma(x), stepped
    from Gamma(1/2) = sqrt(pi) upwards or downwards."""
    h = as_half_integer(h)
    if h.denominator == 1:
        if h <= 0:
            raise ValueError(f"Gamma pole at {h}")
        return PiScalar(factorial(int(h) - 1), 0)
    r = Fraction(1)
    x = h
    while x < Fraction(1, 2):
        r /= x
        x += 1
    while x > Fraction(1, 2):
        x -= 1
        r *= x
    return PiScalar(r, 1)


def kappa(spec: brackets.BracketSpec) -> PiScalar:
    """qrel.brackets.kappa as a sum of PiScalar terms, each a product of
    the Fraction loops above."""
    k, l, nu = spec.k, spec.l, spec.nu
    if k == 1:
        raise ValueError("kappa is undefined at k = 1")
    w = spec.total_weight
    if w.denominator != 1 or w < 2:
        raise ValueError(f"total weight {w} must be an integer >= 2")
    total = PiScalar(0)
    for mu in range(nu + 1):
        coeff = (falling_gamma_ratio(2 - k, mu)
                 * gen_binom(k + nu - 1, nu - mu)
                 * gen_binom(l + nu - 1, mu))
        if coeff:
            total = total + gamma_half(l + 2 * nu - mu) * coeff
    return total * Fraction(1, factorial(int(w) - 2)) / (k - 1)


def binomial_odd(nu_max: int, binom=comb) -> list:
    """The odd binomial identity of qrel.relations, summed one Fraction
    term at a time; binom stands in for math.comb in the multinomials."""
    bad = []
    for nu in range(nu_max + 1):
        for j in range(nu + 1):
            lhs = sum(Fraction((-1) ** mu * binom(4 * nu - 2 * mu + 1,
                                                  2 * nu - 2 * mu + 1)
                               * binom(2 * nu, mu), 2 * (j - mu) + 1)
                      for mu in range(nu + 1))
            rhs = Fraction((-1) ** j * 2 ** (4 * nu)
                           * factorial(2 * nu - j) * factorial(j),
                           factorial(2 * (nu - j)) * factorial(2 * j + 1))
            if lhs != rhs:
                bad.append((100 * nu + j, lhs, rhs))
    return bad


def p_poly(a: int, b) -> list:
    """P_{a,b} as a coefficient list, summed row by row in Fractions."""
    if a < 2:
        raise ValueError("degree parameter a must be at least 2")
    b = Fraction(b)
    out = [Fraction(0)] * (a - 1)
    for j in range(a - 1):
        c = gen_binom(j + b - 2, j)
        e = a - 2 - j
        for i in range(e + 1):
            out[j + i] += c * comb(e, i)
    return out


def subst_squares(P: list) -> list:
    """P(x^2 - y^2, y^2) as Fractions indexed by the power of x."""
    d = len(P) - 1
    out = [Fraction(0)] * (2 * d + 1)
    for i, c in enumerate(P):
        for k in range(i + 1):
            out[2 * k] += c * comb(i, k) * (-1) ** (i - k)
    return out


def _x_minus_y_row(e: int, c) -> list:
    return [c * comb(e, i) * (-1) ** (e - i) for i in range(e + 1)]


def p_poly_rewrites(a_max: int, binom=gen_binom, poly=p_poly) -> list:
    """The two P_{a,b} rewrites of qrel.relations in Fractions; binom and
    poly stand in for gen_binom and brackets.p_poly."""
    bad = []
    for a in range(2, a_max + 1):
        for bi, h in enumerate((-3, -1, 1, 5, 7)):
            b = Fraction(h, 2)
            P = poly(a, b)
            alt1 = [binom(a + b - 3, j) for j in range(a - 1)]
            alt2 = [Fraction(0)] * (a - 1)
            for j in range(a - 1):
                c = binom(a + b - 3, a - 2 - j) * binom(j + b - 2, j) * (-1) ** j
                for i in range(a - 1 - j):
                    alt2[i] += c * comb(a - 2 - j, i)
            if P != alt1 or P != alt2:
                bad.append((10 * a + bi, Fraction(0), Fraction(1)))
    return bad


def closed_sum_even(nu_max: int, binom=gen_binom, poly=p_poly) -> list:
    """The even closed summation identity of qrel.relations, each term a
    Fraction added into Fraction lists; binom and poly stand in for
    gen_binom and brackets.p_poly."""
    bad = []
    for nu in range(nu_max + 1):
        if nu == 0:
            P = poly(2, Fraction(1, 2))
            for x in (2, 3, 5, 7):
                for y in (1, 2, 3, 4):
                    got = (Fraction(x) * sum(c * (x * x - y * y) ** i
                                             * (y * y) ** (len(P) - 1 - i)
                                             for i, c in enumerate(P))
                           - Fraction(y))
                    if got != Fraction(x - y):
                        bad.append((x * 10 + y, got, Fraction(x - y)))
            continue
        lhs = [Fraction(0)] * (4 * nu + 1)
        for mu in range(nu + 1):
            c = (binom(Fraction(2 * nu + 1, 2), nu - mu)
                 * binom(Fraction(2 * nu - 1, 2), mu))
            S = subst_squares(poly(2 * nu + 2, Fraction(1 - 2 * mu, 2)))
            lhs = [u + c * v for u, v in zip(lhs, S)]
            lhs[4 * nu - 2 * mu - 1] -= c
        rhs = [0] * (2 * nu - 1) + _x_minus_y_row(
            2 * nu + 1, Fraction(2) ** (-2 * nu) * binom(2 * nu, nu))
        if lhs != rhs:
            bad.append((nu, Fraction(0), Fraction(1)))
    return bad


def closed_sum_odd(nu_max: int, binom=gen_binom, poly=p_poly) -> list:
    """The odd closed summation identity of qrel.relations, in Fractions."""
    bad = []
    for nu in range(nu_max + 1):
        lhs = [Fraction(0)] * (4 * nu + 2)
        for mu in range(nu + 1):
            c = (binom(Fraction(2 * nu - 1, 2), nu - mu)
                 * binom(Fraction(2 * nu + 1, 2), mu))
            S = subst_squares(poly(2 * nu + 2, Fraction(3 - 2 * mu, 2)))
            lhs = [u + c * v for u, v in zip(lhs, S + [0])]
            lhs[4 * nu - 2 * mu + 1] -= c
        rhs = [0] * (2 * nu) + _x_minus_y_row(
            2 * nu + 1, -Fraction(2) ** (-2 * nu) * binom(2 * nu, nu))
        if lhs != rhs:
            bad.append((nu, Fraction(0), Fraction(1)))
    return bad
