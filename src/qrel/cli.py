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


# The series ids, by name: the id's form (the name, then the fields after
# it) and the forms, holproj or brackets builder that the name selects.
_SERIES_IDS = {entry[0].split(":")[0]: entry for entry in (
    ("H", "forms", "hurwitz_series"),
    ("theta", "forms", "theta_classical"),
    ("G2", "forms", "eisenstein_g2"),
    ("Delta", "forms", "delta12"),
    ("eta2_12", "forms", "eta2_pow12"),
    ("g7", "forms", "g7"),
    ("theta_half:s:chi", "forms", "theta_half"),
    ("theta32:s:chi", "forms", "theta_three_half"),
    ("theta_pa:p:a", "forms", "theta_congruence"),
    ("lambda:s:t:chi:psi:nu", "holproj", "lambda_indef"),
    ("delta:s:t:chi:psi:nu", "holproj", "delta_indef"),
    ("bracket:f:g:k:l:nu", "brackets", "rankin_cohen"),
)}


def build_series(series_id: str, T: int):
    """Build the series of a series id (see _SERIES_IDS) to order T.  Its
    fields are integers, chi and psi taken as kronecker_character(d); a
    bracket's are two field-less ids and weights k, l like 3/2."""
    name, *fields = series_id.split(":")
    if name not in _SERIES_IDS:
        raise KeyError(f"unknown series id {series_id!r}")
    form, module, builder = _SERIES_IDS[name]
    params = form.split(":")[1:]
    if len(fields) != len(params):
        raise ValueError(f"{form} takes {len(params)} fields after the name, "
                         f"got {len(fields)}")
    if name == "bracket":
        return _bracket(*fields, T)
    from importlib import import_module
    args = [int(v) for v in fields]
    if "chi" in params:     # every id with a psi field has a chi field
        from .arith import kronecker_character
        args = [kronecker_character(v) if p in ("chi", "psi") else v
                for p, v in zip(params, args)]
    return getattr(import_module(f".{module}", __package__), builder)(*args, T)


def _bracket(f: str, g: str, k: str, l: str, nu, T: int):
    """[f, g]_nu, the Rankin-Cohen bracket of two series ids at weights k, l."""
    from fractions import Fraction

    from .brackets import BracketSpec, rankin_cohen
    from .qseries import QSeries
    spec = BracketSpec(Fraction(k), Fraction(l), int(nu))
    pair = build_series(f, T), build_series(g, T)
    for series_id, series in zip((f, g), pair):
        if not isinstance(series, QSeries):
            raise ValueError(f"{series_id} has coefficients only at some "
                             f"indices; a bracket needs a full q-series")
    return rankin_cohen(*pair, spec)


def _emit_series(name: str, series, terms: int, fmt: str) -> None:
    """Print the coefficients of exponents 0..terms in one write, from one
    read of series.coeffs.  A PartialSeries (g7), told by its defined set,
    prints its defined n <= terms, zeros included and each with its index;
    CSV prints the stored n <= terms.  A cell is "n,num,den" in CSV
    ("n,a_num,a_den,b_num,b_den,D" for a QuadExt) and str(c) in text and
    JSON (format_scalar(c) for a QuadExt)."""
    from .scalars import QuadExt, format_scalar
    coeffs, defined = series.coeffs, getattr(series, "defined", None)
    if defined is not None or fmt == "csv":
        indices = sorted(n for n in (coeffs if defined is None else defined)
                         if n <= terms)
    elif terms > series.trunc:
        raise IndexError(f"exponent {series.trunc + 1} beyond truncation "
                         f"{series.trunc}")
    else:
        indices = range(terms + 1)
    values = [coeffs.get(n, 0) for n in indices]
    if fmt == "csv":
        text = "".join(f"{n},{c.a.numerator},{c.a.denominator},{c.b.numerator},"
                       f"{c.b.denominator},{c.D}\n" if isinstance(c, QuadExt)
                       else f"{n},{c.numerator},{c.denominator}\n"
                       for n, c in zip(indices, values))
    else:
        cells = [format_scalar(c) if isinstance(c, QuadExt) else str(c)
                 for c in values]
        if fmt == "text":
            text = ", ".join(cells if defined is None else
                             (f"{n}: {c}" for n, c in zip(indices, cells))) + "\n"
        else:
            import json
            doc = {"name": name, "terms": terms}
            if defined is not None:
                doc["indices"] = indices
            doc["coefficients"] = cells
            text = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(text)


def _message(exc: Exception) -> str:
    """An error's message: str() of a KeyError is the repr of its message."""
    return exc.args[0] if isinstance(exc, KeyError) else str(exc)


def cmd_series(args) -> int:
    try:
        series = build_series(args.name, args.terms)
    except (KeyError, IndexError, ValueError) as exc:
        print(f"qrel series: cannot build {args.name!r}: {_message(exc)}",
              file=sys.stderr)
        return USAGE_ERROR
    _emit_series(args.name, series, args.terms, args.format)
    return 0


def cmd_hurwitz(args) -> int:
    if args.max < 1:
        print(f"qrel hurwitz: --max must be at least 1, got {args.max}",
              file=sys.stderr)
        return USAGE_ERROR
    from .arith import hurwitz_cache
    try:
        path = hurwitz_cache().save(args.out, args.max)
    except OSError as exc:
        print(f"qrel hurwitz: cannot write cache: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(path)
    return 0


def cmd_bracket(args) -> int:
    try:
        series = _bracket(args.f, args.g, args.k, args.l, args.nu, args.terms)
    except (KeyError, IndexError, ValueError) as exc:
        print(f"qrel bracket: {_message(exc)}", file=sys.stderr)
        return USAGE_ERROR
    _emit_series(f"bracket:{args.f}:{args.g}:{args.k}:{args.l}:{args.nu}",
                 series, args.terms, args.format)
    return 0


def cmd_verify(args) -> int:
    from . import relations
    try:
        report = relations.run_check(args.relation, args.max)
    except (KeyError, ValueError) as exc:
        print(f"qrel verify: {_message(exc)}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        print(report.to_json())
    else:
        print(report.summary_line())
        for fail in report.to_dict()["failures"]:
            print(f"  n={fail['n']}: lhs={fail['lhs']} rhs={fail['rhs']}")
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
    p.add_argument("--f", required=True, help="series id of the first series")
    p.add_argument("--g", required=True, help="series id of the second series")
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
