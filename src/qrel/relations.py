"""Named, exactly-checked identities between class numbers, divisor sums,
traces of Hecke operators, and indefinite theta series.

Every check returns a :class:`RelationReport` with an explicit index-set
policy, so a report can never silently skip indices.  All arithmetic is
exact (``fractions.Fraction`` or :class:`~qrel.scalars.QuadExt`); a check
passes only when both sides agree on every index in the policy set.  The
class number relations compare integers: both sides times 12 (or 24, or
4), summed from the ``12*H`` table of :class:`~qrel.arith.HurwitzCache`.

Each class number sum is a coefficient of a product of the class number
series with a theta series, the holomorphic projection of a Rankin-Cohen
bracket [H, theta]_nu.  The weight g_nu(s, n) is a polynomial in s^2 with
n-dependent coefficients (``g_poly``), so ``eichler``, ``cohen``,
``kronecker_hurwitz``, ``trace1_*`` and ``trace4_*``, which share one check
body (``_class_number_check``), each combine, by Horner in n, the nu + 1
moments A_k(m) = sum_s s^(2k) 12 H(m - s^2) that
:func:`~qrel.slots.theta_moments` computes from the live table by residue
mod 4, skipping the zero classes m = 1, 2 (mod 4) of Kohnen's plus space.

The registry maps each relation id to its check; the checks of the other
families live in :mod:`qrel.congruence` (``cor_i``, ``cor_ii``, ``prop72``)
and :mod:`qrel.identities`, imported on first use, so that a command
compiles only the family it runs.

Where a widely printed form of an identity disagrees with direct
evaluation, the checker tests the candidate variants and records in the
report which one holds, rather than assuming either.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from importlib import import_module
from math import comb, isqrt
from operator import ne

from .arith import (_primes_upto, divisor_sieve, hurwitz_cache,
                    residue_class_sieve)
from .slots import theta_moments


# ---------------------------------------------------------------------------
# Reports


class RelationReport:
    """The outcome of one check over the indices lo..hi of its policy set:
    failures as (n, lhs, rhs), how many indices were checked, notes and the
    elapsed time."""

    def __init__(self, relation: str, lo: int, hi: int, policy: str,
                 failures: list[tuple[int, object, object]] | None = None,
                 elapsed_ms: int = 0, notes: str = "", checked: int = 0):
        if hi < lo:
            raise ValueError(f"{relation} starts at {lo}; the range "
                             f"end must be at least {lo}, got {hi}")
        self.relation, self.lo, self.hi, self.policy = relation, lo, hi, policy
        self.failures = [] if failures is None else failures
        self.elapsed_ms, self.notes, self.checked = elapsed_ms, notes, checked

    @property
    def status(self) -> str:
        if self.failures:
            return "fail"
        return "pass" if self.checked > 0 else "partial"

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, n: int, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs:
            self.failures.append((n, lhs, rhs))

    def record_lists(self, ns, lhs: list, rhs: list, scale: int) -> None:
        """Record l/scale = r/scale for each n of ns and its integers l and
        r, at the same position in lhs and rhs.  Equal lists are compared at
        once; only unequal entries make a failure, which holds both sides as
        exact Fractions, as reports hand them out."""
        if not len(ns) == len(lhs) == len(rhs):
            raise ValueError("ns, lhs and rhs must have the same length")
        self.checked += len(ns)
        if lhs != rhs:
            self.failures.extend((n, Fraction(l, scale), Fraction(r, scale))
                                 for n, l, r in zip(ns, lhs, rhs) if l != r)

    def record_best(self, ns, variants: dict, rhs: list, scale: int):
        """record_lists for the left side in variants (key -> list) with the
        fewest entries unequal to rhs, the first key on a tie; returns that
        key."""
        best = min(variants, key=lambda key: sum(map(ne, variants[key], rhs)))
        self.record_lists(ns, variants[best], rhs, scale)
        return best

    def to_dict(self) -> dict:
        if self.failures:   # only a failure loads the scalar formatting
            from .scalars import format_scalar
        return {
            "relation": self.relation,
            "range": [self.lo, self.hi],
            "policy": self.policy,
            "status": self.status,
            "failures": [{"n": n, "lhs": format_scalar(l), "rhs": format_scalar(r)}
                         for n, l, r in self.failures],
            "elapsed_ms": self.elapsed_ms,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary_line(self) -> str:
        extra = f"  [{self.notes}]" if self.notes else ""
        tail = "" if self.ok else f"  ({len(self.failures)} failures)"
        return (f"{self.relation:<22} [{self.lo},{self.hi}] {self.policy:<28} "
                f"{self.status}{tail}{extra}")


class _Timer:
    def __init__(self, report: RelationReport):
        self.report = report

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc):
        self.report.elapsed_ms = int((time.perf_counter() - self._t0) * 1000)
        return False


# ---------------------------------------------------------------------------
# Classical class number relations


def g_poly(nu: int, double_s: bool) -> list[int]:
    """The coefficients c_0..c_nu of g_nu(s, n) = sum_j c_j n^j s^(2nu-2j),
    the coefficient of X^(2nu) in 1/(1 - S X + n X^2), with S = 2s when
    double_s else S = s: c_j = (-1)^j C(2nu-j, j) S^(2nu-2j) / s^(2nu-2j).
    g_0 = 1 is the Eichler weight and g_1 = 4s^2 - n with S = 2s the Cohen
    weight."""
    return [(-1) ** j * comb(2 * nu - j, j) * (4 ** (nu - j) if double_s else 1)
            for j in range(nu + 1)]


def _g_sums(nu: int, double_s: bool, ns: range, ms: range) -> list[int]:
    """sum over s in Z, s^2 <= m, of g_nu(s, n) 12 H(m - s^2), for each pair
    (n, m) of ns and ms, from the moments A_k(m) of the live 12 H table:
    sum_j c_j n^j A_(nu-j)(m), by Horner in n, one list pass per j."""
    moments = theta_moments(hurwitz_cache().scaled_table(ms[-1]), ms, nu)
    c = g_poly(nu, double_s)
    out = [c[nu] * a for a in moments[0]]
    for j in range(nu - 1, -1, -1):
        out = [o * n + c[j] * a for o, n, a in zip(out, ns, moments[nu - j])]
    return out


def _class_number_check(name: str, nu: int, level: int, max_n: int,
                        sign: int = 1, rhs=None, lam_signs=(1,)) -> RelationReport:
    """sign (sum_s g_nu(s, n) 12 H(m - s^2) + k c 2 lambda_(2nu+1)(n))
    = r f(n), for n of the policy set and k of lam_signs: on level 4 odd n,
    m = n, S = 2s, c = 6 and r = 4; on level 1 all n, m = 4n, S = s, c = 12
    and r = 24.  f is rhs(max_n), a coefficient function, or 0 when rhs is
    None.  A relation stated for H itself (sign 1) is compared at scale
    12, a trace formula (sign -1) at scale r.  With two signs k, the one
    with fewer misses is recorded and named in the notes."""
    odd = level == 4
    rep = RelationReport(name, 1, max_n, "odd n" if odd else "all n")
    with _Timer(rep):
        step, c, r = (2, 6, 4) if odd else (1, 12, 24)
        ns = range(1, max_n + 1, step)
        tots = _g_sums(nu, odd, ns, ns if odd else range(4, 4 * max_n + 1, 4))
        lam = residue_class_sieve(max_n, 2 * nu + 1, 1, 0)[1::step]
        f = rhs(max_n) if rhs else lambda n: 0
        want = [r * f(n) for n in ns]
        best = rep.record_best(ns, {k: [sign * (t + k * c * v) for t, v in zip(tots, lam)]
                                    for k in lam_signs}, want, 12 if sign > 0 else r)
        if len(lam_signs) > 1:
            rep.notes = ("neither sign variant holds uniformly" if rep.failures else
                         f"variant that holds: {'+' if best > 0 else '-'}2*lambda_{2 * nu + 1}")
    return rep


def _sigma_1(T: int):
    return divisor_sieve(T).__getitem__


def check_eichler(max_n: int = 2000) -> RelationReport:
    """sum_s H(n - s^2) + lambda_1(n) = sigma_1(n)/3 for odd n."""
    return _class_number_check("eichler", 0, 4, max_n, rhs=_sigma_1)


def check_cohen(max_n: int = 2000) -> RelationReport:
    """sum_s (4s^2 - n) H(n - s^2) + lambda_3(n) = 0 for odd n."""
    return _class_number_check("cohen", 1, 4, max_n)


def check_kronecker_hurwitz(max_n: int = 2000) -> RelationReport:
    """sum_s H(4n - s^2) +- 2*lambda_1(n) = 2*sigma_1(n), all n.

    The two sign variants are in circulation; this checker tests both and
    reports which one holds uniformly.  Failures are reported against the
    better variant.
    """
    return _class_number_check("kronecker_hurwitz", 0, 1, max_n, rhs=_sigma_1,
                               lam_signs=(1, -1))


# ---------------------------------------------------------------------------
# Trace formulas


def _cusp_coeffs(builder: str):
    """rhs(T) for a trace formula: the coefficient function of the cusp
    form forms.<builder>(T); forms loads only when it is called."""
    return lambda T: getattr(import_module(".forms", __package__), builder)(T).coeff


_TRACE1_DEFAULT_MAX = {1: 500, 2: 500, 3: 500, 4: 500, 5: 300}
_TRACE4_DEFAULT_MAX = {1: 999, 2: 301}


def check_trace_level1(nu: int, max_n: int | None = None) -> RelationReport:
    """-(1/2) sum_s g_nu(s,n) H(4n - s^2) - lambda_{2nu+1}(n) equals the
    trace of the n-th Hecke operator on level-1 cusp forms of weight
    2nu + 2: zero for nu in 1..4, the discriminant-form coefficient tau(n)
    for nu = 5."""
    if nu not in _TRACE1_DEFAULT_MAX:
        raise ValueError(f"no trace oracle for nu={nu}; supported: 1..5")
    if max_n is None:
        max_n = _TRACE1_DEFAULT_MAX[nu]
    return _class_number_check(f"trace1_nu{nu}", nu, 1, max_n, -1,
                               _cusp_coeffs("delta12") if nu == 5 else None)


def check_trace_level4(nu: int, max_n: int | None = None) -> RelationReport:
    """-3 sum_s g_nu(2s-form; s,n) H(n - s^2) - 3 lambda_{2nu+1}(n) equals
    the trace on level-4 cusp forms of weight 2nu + 2 for odd n: zero for
    nu = 1, the coefficients of the weight-6 eta product on level 4 for
    nu = 2."""
    if nu not in _TRACE4_DEFAULT_MAX:
        raise ValueError(f"no trace oracle for nu={nu}; supported: 1, 2")
    if max_n is None:
        max_n = _TRACE4_DEFAULT_MAX[nu]
    return _class_number_check(f"trace4_nu{nu}", nu, 4, max_n, -1,
                               _cusp_coeffs("eta2_pow12") if nu == 2 else None)


# ---------------------------------------------------------------------------
# Residue-restricted class number sums


# 12 H_{a,5}(ell) = c ell + d for a prime ell != 5, as (c, d) keyed by
# (min(a, 5 - a), ell mod 5), in the cases where a closed form exists (none
# has ell mod 5 = 0, so ell = 5 is skipped).
_HAP5_CLOSED_FORMS = {
    (0, 1): (6, 6), (0, 2): (4, 4), (0, 3): (4, 4),
    (1, 1): (4, 4), (1, 2): (4, 4), (1, 4): (5, 5),
    (2, 1): (5, -7), (2, 3): (4, 4), (2, 4): (4, 4),
}


def check_hap_table(max_prime: int = 200) -> RelationReport:
    """H_{a,5}(ell) = sum over s = a (mod 5) of H(4 ell - s^2) matches its
    closed form for every prime ell != 5 up to max_prime and every residue
    a mod 5."""
    rep = RelationReport("hap_table", 2, max_prime,
                         "prime ell != 5, a mod 5, tabulated cases")
    with _Timer(rep):
        tab = hurwitz_cache().scaled_table(4 * max_prime)
        ns, lhs, rhs = [], [], []
        for ell in _primes_upto(max_prime):
            m, smax = 4 * ell, isqrt(4 * ell)
            for a in range(5):
                form = _HAP5_CLOSED_FORMS.get((min(a, 5 - a), ell % 5))
                if form is None:
                    continue
                ns.append(10 * ell + a)
                lhs.append(sum([tab[m - s * s] for s in
                                range(a - (a + smax) // 5 * 5, smax + 1, 5)]))
                rhs.append(form[0] * ell + form[1])
        rep.record_lists(ns, lhs, rhs, 12)
    return rep


# ---------------------------------------------------------------------------
# Registry


# relation id -> (module, check, leading arguments); run_check imports the
# module on first use, and passes max_n only when given, so each default
# range lives in the check's signature alone
_REGISTRY: dict[str, tuple[str, str, tuple]] = {
    "eichler": ("relations", "check_eichler", ()),
    "cohen": ("relations", "check_cohen", ()),
    "kronecker_hurwitz": ("relations", "check_kronecker_hurwitz", ()),
    **{f"trace1_nu{nu}": ("relations", "check_trace_level1", (nu,))
       for nu in _TRACE1_DEFAULT_MAX},
    **{f"trace4_nu{nu}": ("relations", "check_trace_level4", (nu,))
       for nu in _TRACE4_DEFAULT_MAX},
    "hap_table": ("relations", "check_hap_table", ()),
    "cor_i": ("congruence", "check_cor_i", ()),
    "cor_ii": ("congruence", "check_cor_ii", ()),
    "prop72": ("congruence", "check_prop72", ()),
    "identities": ("identities", "check_identities", ()),
}
# Checks whose parameter ranges are fixed: a range end given for one alone
# is an error, and verify_all runs them at their fixed ranges.
_FIXED_RANGE = {"identities"}


def relation_ids() -> list[str]:
    return list(_REGISTRY)


def run_check(relation_id: str, max_n: int | None = None) -> RelationReport:
    if relation_id not in _REGISTRY:
        raise KeyError(f"unknown relation {relation_id!r}; "
                       f"known: {', '.join(_REGISTRY)}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"the range end must be at least 1, got {max_n}")
    if max_n is not None and relation_id in _FIXED_RANGE:
        raise ValueError(f"{relation_id} has fixed parameter ranges; "
                         f"a range end (--max) does not apply to it")
    module, check, args = _REGISTRY[relation_id]
    check = getattr(import_module(f".{module}", __package__), check)
    return check(*args) if max_n is None else check(*args, max_n)


def verify_all(max_n: int | None = None) -> list[RelationReport]:
    """Run every registered check, in registry order, at its default range
    (or at max_n for all of them when given, except the fixed-range ones)."""
    # load the modules the checks import lazily before their temporaries,
    # which otherwise raise the peak RSS of the run
    from . import congruence, forms, holproj, identities  # noqa: F401
    return [run_check(rid, None if rid in _FIXED_RANGE else max_n)
            for rid in _REGISTRY]


# The checks of the other families that relations.<name> still resolves, by
# module (PEP 562).
_FORWARDED = {check: module for module, check, _ in _REGISTRY.values()
              if module != "relations"}


def __getattr__(name: str):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_FORWARDED[name]}", __package__), name)
