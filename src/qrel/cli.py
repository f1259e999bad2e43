"""Command-line front end: series printing, Hurwitz class-number table
export (CSV), Rankin-Cohen brackets, and batch relation verification.

Exit codes: 0 on success, 2 when a verified relation fails mathematically,
1 on usage errors (unknown names, bad flags).  Output is byte-deterministic
for fixed inputs, except for the elapsed-time field of verification
reports.
"""

from __future__ import annotations

import argparse
import sys

# Each command imports the qrel modules it runs inside its own functions,
# so that no command (--help included) pays to import the others.

USAGE_ERROR = 1
MATH_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this front end
    reserves 2 for mathematical failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _fmt_coeff(x) -> str:
    from .scalars import QuadExt, format_scalar
    if isinstance(x, QuadExt):
        return format_scalar(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def build_series(series_id: str, T: int):
    """Resolve a series id: the forms catalog plus the composite ids
    "lambda:s:t:chi:psi:nu", "delta:s:t:chi:psi:nu" and
    "bracket:f:g:k:l:nu" (characters given as kronecker_character
    integers, weights as fractions like 3/2)."""
    from .qseries import id_fields
    name = series_id.split(":")[0]
    if name in ("lambda", "delta"):
        from .arith import kronecker_character
        from .holproj import delta_indef, lambda_indef
        form = f"{name}:s:t:chi:psi:nu"
        s, t, chi, psi, nu = map(int, id_fields(series_id, form))
        fn = lambda_indef if name == "lambda" else delta_indef
        return fn(s, t, kronecker_character(chi), kronecker_character(psi), nu, T)
    from . import forms
    if name == "bracket":
        from fractions import Fraction

        from .holproj import BracketSpec, rankin_cohen
        f, g, k, l, nu = id_fields(series_id, "bracket:f:g:k:l:nu")
        spec = BracketSpec(Fraction(k), Fraction(l), int(nu))
        return rankin_cohen(forms.build(f, T), forms.build(g, T), spec)
    return forms.build(series_id, T)


def _emit_series(name: str, series, terms: int, fmt: str) -> None:
    """Print the coefficients of exponents 0..terms.  A PartialSeries (g7)
    has coefficients only at its defined indices: those n <= terms are
    printed, zeros included and each with its index."""
    if fmt == "csv":
        for line in series.truncate(terms).to_csv_lines():
            print(line)
        return
    from .forms import PartialSeries
    partial = isinstance(series, PartialSeries)
    indices = (sorted(n for n in series.defined if n <= terms) if partial
               else range(terms + 1))
    coeffs = [_fmt_coeff(series.coeff(n)) for n in indices]
    if fmt == "text":
        print(", ".join(f"{n}: {c}" for n, c in zip(indices, coeffs))
              if partial else ", ".join(coeffs))
    else:
        import json
        doc = {"name": name, "terms": terms}
        if partial:
            doc["indices"] = indices
        doc["coefficients"] = coeffs
        print(json.dumps(doc, indent=2))


def cmd_series(args) -> int:
    try:
        series = build_series(args.name, args.terms)
    except (KeyError, IndexError, ValueError) as exc:
        print(f"qrel series: cannot build {args.name!r}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit_series(args.name, series, args.terms, args.format)
    return 0


def cmd_hurwitz(args) -> int:
    if args.max < 1:
        print(f"qrel hurwitz: --max must be at least 1, got {args.max}",
              file=sys.stderr)
        return USAGE_ERROR
    from .arith import hurwitz_cache
    cache = hurwitz_cache()
    cache.ensure(args.max)
    try:
        path = cache.save(args.out, args.max)
    except OSError as exc:
        print(f"qrel hurwitz: cannot write cache: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(path)
    return 0


def cmd_bracket(args) -> int:
    composite = f"bracket:{args.f}:{args.g}:{args.k}:{args.l}:{args.nu}"
    try:
        series = build_series(composite, args.terms)
    except (KeyError, IndexError, ValueError) as exc:
        print(f"qrel bracket: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit_series(composite, series, args.terms, args.format)
    return 0


def cmd_verify(args) -> int:
    from . import relations
    from .scalars import format_scalar
    try:
        report = relations.run_check(args.relation, args.max)
    except (KeyError, ValueError) as exc:
        print(f"qrel verify: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        print(report.to_json())
    else:
        print(report.summary_line())
        for n, lhs, rhs in report.failures:
            print(f"  n={n}: lhs={format_scalar(lhs)} rhs={format_scalar(rhs)}")
    return 0 if report.ok else MATH_FAILURE


def cmd_verify_all(args) -> int:
    from . import relations
    try:
        reports = relations.verify_all(args.max)
    except ValueError as exc:
        print(f"qrel verify-all: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        import json
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.summary_line())
    return 0 if all(r.ok for r in reports) else MATH_FAILURE


class _RelationIds:
    """The relation ids, joined for the verify help text.  argparse formats
    help only when it prints it, so relations is imported only then."""

    def __str__(self) -> str:
        from .relations import relation_ids
        return ", ".join(relation_ids())


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrel",
                     description="Exact q-series identities: class number "
                                 "relations, trace formulas, indefinite "
                                 "theta series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text", help="output format (default: text)")

    p = sub.add_parser("series", parents=[], help="print q-expansion coefficients")
    p.add_argument("--name", required=True,
                   help="catalog id (H, theta, G2, Delta, eta2_12, g7, "
                        "theta_half:s:chi, theta32:s:chi, theta_pa:p:a) or "
                        "composite lambda:s:t:chi:psi:nu / delta:... / "
                        "bracket:f:g:k:l:nu")
    p.add_argument("--terms", type=int, default=20,
                   help="highest exponent to print (default: 20)")
    add_format(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("hurwitz", help="compute the Hurwitz class numbers up to "
                                       "--max and write the table as CSV")
    p.add_argument("--max", type=int, required=True, help="largest n to write")
    p.add_argument("--out", default=None,
                   help="write the CSV here instead of the cache directory "
                        "(env QREL_CACHE_DIR, default ./.qrel-cache/)")
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("bracket", help="Rankin-Cohen bracket of two catalog series")
    p.add_argument("--f", required=True, help="catalog id of the first series")
    p.add_argument("--g", required=True, help="catalog id of the second series")
    p.add_argument("--k", required=True, help="weight of f, e.g. 3/2")
    p.add_argument("--l", required=True, help="weight of g, e.g. 1/2")
    p.add_argument("--nu", type=int, default=0, help="bracket degree (default: 0)")
    p.add_argument("--terms", type=int, default=20)
    add_format(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("verify", help="check one named relation exactly")
    p.add_argument("relation", help="one of: %(ids)s").ids = _RelationIds()
    p.add_argument("--max", type=int, default=None,
                   help="upper end of the index range (default: per relation)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-all", help="run every registered relation check")
    p.add_argument("--max", type=int, default=None,
                   help="override the per-relation default ranges")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
