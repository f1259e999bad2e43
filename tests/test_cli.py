"""The command-line front end: exit codes, formats, determinism."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import qrel
from qrel import cli, forms
from qrel.arith import kronecker_character
from qrel.brackets import BracketSpec, rankin_cohen
from qrel.classnum import hurwitz_cache
from qrel.scalars import QuadExt

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(*argv):
    """Run the CLI in a new interpreter, with an empty Hurwitz table."""
    src = os.path.dirname(os.path.dirname(qrel.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "qrel.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


# The byte-identity golden of the series writer: every id form of
# cli._SERIES_IDS (lambda with square and with Pell st), a bracket of the
# PartialSeries g7, and `qrel bracket`, each in every format at T in
# GOLDEN_TERMS.  Recorded from commit 8f94360, each case run as
# `python -m qrel.cli ARGV` in a fresh interpreter: its exit code and the
# SHA-256 of its stdout.
SERIES_OUTPUTS = os.path.join(GOLDEN, "series_outputs.json")
GOLDEN_SERIES_IDS = (
    "H", "theta", "G2", "Delta", "eta2_12", "g7",
    "theta_half:1:1", "theta_half:2:5", "theta32:1:-4", "theta32:3:3",
    "theta_pa:5:2", "theta_pa:7:0",
    "lambda:1:1:1:1:0", "lambda:1:1:5:5:2", "lambda:4:9:1:1:1",
    "lambda:1:2:1:1:1", "lambda:1:13:5:5:0", "lambda:2:3:1:1:1",
    "delta:1:1:-4:-4:1", "delta:1:53:-4:-4:0", "delta:3:3:-4:-4:2",
    "bracket:H:theta:3/2:1/2:0", "bracket:H:theta:3/2:1/2:1",
    "bracket:theta:G2:1/2:2:2", "bracket:g7:theta:2:1/2:0")
GOLDEN_BRACKETS = (
    ("--f", "H", "--g", "theta", "--k", "3/2", "--l", "1/2", "--nu", "1"),
    ("--f", "theta_pa:5:0", "--g", "G2", "--k", "1/2", "--l", "2", "--nu", "2"),
    ("--f", "g7", "--g", "theta", "--k", "2", "--l", "1/2"),
    ("--f", "theta", "--g", "g7", "--k", "1/2", "--l", "2"))
GOLDEN_TERMS = ("0", "1", "30", "500")


def series_output_cases(prefixes=None):
    """The argv of every golden case, or of those that start with one of
    prefixes."""
    if prefixes is None:
        prefixes = ([["series", "--name", i] for i in GOLDEN_SERIES_IDS]
                    + [["bracket", *b] for b in GOLDEN_BRACKETS])
    return [[*p, "--terms", t, "--format", fmt] for p in prefixes
            for t in GOLDEN_TERMS for fmt in ("text", "csv", "json")]


def check_series_outputs(capsys, prefix):
    """Every format and T of prefix prints what the golden recorded."""
    with open(SERIES_OUTPUTS, encoding="utf-8") as f:
        golden = json.load(f)
    for argv in series_output_cases([prefix]):
        code, out, _ = run(capsys, *argv)
        got = {"exit": code,
               "sha256": hashlib.sha256(out.encode()).hexdigest()}
        assert got == golden[" ".join(argv)], argv


class TestSeries:
    def test_hurwitz_text(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "H", "--terms", "4")
        assert code == 0
        assert out == "-1/12, 0, 0, 1/3, 1/2\n"

    def test_g2_text(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "G2", "--terms", "2")
        assert code == 0
        assert out == "-1/24, 1, 3\n"

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "series", "--name", "nosuch")
        assert code == 1 and "nosuch" in err

    @pytest.mark.parametrize("argv, want", [
        (["series", "--name", "nosuch"],
         "qrel series: cannot build 'nosuch': unknown series id 'nosuch'\n"),
        (["bracket", "--f", "nosuch", "--g", "theta", "--k", "1/2", "--l", "1/2"],
         "qrel bracket: unknown series id 'nosuch'\n"),
        (["verify", "foo"], "qrel verify: unknown relation 'foo'; known: eichler, ")])
    def test_key_error_message_unquoted(self, capsys, argv, want):
        # str() of a KeyError is the repr of its message; the message is
        # printed as it is
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(want) and '"' not in err

    def test_ids_match_the_series_help(self, capsys, monkeypatch):
        # every name of the resolver's table is named in the --name help
        # and resolves, so the grammar and its help cannot drift apart
        samples = {"H": "H", "theta": "theta", "G2": "G2", "Delta": "Delta",
                   "eta2_12": "eta2_12", "g7": "g7",
                   "theta_half": "theta_half:1:5", "theta32": "theta32:1:-4",
                   "theta_pa": "theta_pa:5:0", "lambda": "lambda:1:2:1:1:0",
                   "delta": "delta:1:1:-4:-4:0",
                   "bracket": "bracket:H:theta:3/2:1/2:1"}
        assert set(samples) == set(cli._SERIES_IDS)
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["series", "--help"])
        words = set(re.findall(r"\w+", capsys.readouterr().out))
        for name, series_id in samples.items():
            assert name in words
            assert cli.build_series(series_id, 5).trunc == 5

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "H", "--terms", "4",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "0,-1,12"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "Delta", "--terms", "3",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["coefficients"] == ["0", "1", "-24", "252"]

    def test_composite_lambda(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "lambda:1:2:1:1:0",
                           "--terms", "1")
        assert code == 0
        assert out.strip().endswith("0/1+1/1*sqrt(2)")

    def test_composite_delta(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "delta:1:1:-4:-4:0",
                           "--terms", "8")
        assert code == 0
        assert out.strip().split(", ")[8] == "-4"

    @pytest.mark.parametrize("name", ["lambda:0:2:1:1:0", "delta:1:-3:-4:-4:0"])
    def test_nonpositive_s_t_rejected(self, name):
        # s = 0 used to loop forever in the boundary-term loop
        proc = run_fresh("series", "--name", name, "--terms", "3")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "s and t must be positive" in proc.stderr

    @pytest.mark.parametrize("name, form, got", [
        ("theta_half:1", "theta_half:s:chi takes 2", 1),
        ("lambda:1:2", "lambda:s:t:chi:psi:nu takes 5", 2),
        ("bracket:Delta", "bracket:f:g:k:l:nu takes 5", 1),
        ("delta:1:1:-4:-4:0:9", "delta:s:t:chi:psi:nu takes 5", 6),
        ("Delta:junk", "Delta takes 0", 1), ("H:1:2", "H takes 0", 2),
        ("g7:1", "g7 takes 0", 1), ("theta:0", "theta takes 0", 1),
        ("G2:x", "G2 takes 0", 1), ("eta2_12:1", "eta2_12 takes 0", 1)])
    def test_wrong_field_count(self, capsys, name, form, got):
        code, out, err = run(capsys, "series", "--name", name, "--terms", "3")
        assert code == 1 and out == ""
        assert f"{form} fields after the name, got {got}" in err

    def test_large_pell_unit_finishes(self):
        # st = 61 has fundamental unit y ~ 2.3e8; the linear scan hung here
        proc = run_fresh("series", "--name", "lambda:1:61:1:1:0", "--terms", "3")
        assert proc.returncode == 0
        assert proc.stdout == "0, 0/1+3805/29718*sqrt(61), 0, 0/1+722/14859*sqrt(61)\n"

    @pytest.mark.parametrize("fmt, want", [
        ("text", "1: 1, 5: 0, 11: 4, 13: 0, 17: 0, 19: 0, 23: 8, 25: -5, 29: 2\n"),
        ("csv", "1,1,1\n5,0,1\n11,4,1\n13,0,1\n17,0,1\n19,0,1\n23,8,1\n"
                "25,-5,1\n29,2,1\n"),
        ("json", None),
    ])
    def test_partial_series_prints_defined_indices(self, fmt, want):
        # g7 is defined only on indices supported on primes >= 5, != 7;
        # a defined 0 (a(5)) is printed, undefined indices are not
        proc = run_fresh("series", "--name", "g7", "--terms", "30",
                         "--format", fmt)
        assert proc.returncode == 0 and proc.stderr == ""
        if fmt == "json":
            doc = json.loads(proc.stdout)
            assert doc == {"name": "g7", "terms": 30,
                           "indices": [1, 5, 11, 13, 17, 19, 23, 25, 29],
                           "coefficients": ["1", "0", "4", "0", "0", "0",
                                            "8", "-5", "2"]}
        else:
            assert proc.stdout == want

    def test_terms_above_max_truncation_rejected(self, capsys):
        code, out, err = run(capsys, "series", "--name", "theta",
                             "--terms", "1048577")
        assert code == 1 and out == ""
        assert "cannot build 'theta'" in err and "truncation order" in err

    @pytest.mark.parametrize("terms", ["-1", "1048577"])
    @pytest.mark.parametrize("name", ["lambda:1:2:1:1:0", "delta:1:53:-4:-4:1"])
    def test_indefinite_truncation_out_of_range_rejected(self, capsys, name, terms):
        # checked before the sweep: at once, with the catalog series' message
        code, out, err = run(capsys, "series", "--name", name, "--terms", terms)
        assert code == 1 and out == ""
        assert err == (f"qrel series: cannot build {name!r}: truncation order "
                       f"must be in [0, 1048576], got {terms}\n")

    # Recorded with `python -m qrel.cli series --name NAME --terms T
    # --format csv`: two indefinite theta series built from Pell-orbit sums
    # (characters mod 5, nu = 2; odd characters mod 4 with a unit of
    # y = 9100), recorded from commit 5dbb1cb, whose SHA-256 are also in
    # perfbench/digests.json; and three with square st, recorded from
    # commit 39d64a6 (the divisor loop per r): square s, so the series is
    # unscaled by 2^3; a boundary term weighted by chi mod 5; odd
    # characters mod 4.
    @pytest.mark.parametrize("name, terms, golden", [
        ("lambda:1:13:5:5:2", "1500", "series_lambda_1_13_5_5_2_t1500.csv"),
        ("delta:1:53:-4:-4:1", "60", "series_delta_1_53_m4_m4_1_t60.csv"),
        ("lambda:4:9:1:1:1", "300", "series_lambda_4_9_1_1_1_t300.csv"),
        ("lambda:1:1:5:1:0", "200", "series_lambda_1_1_5_1_0_t200.csv"),
        ("delta:1:1:-4:-4:1", "300", "series_delta_1_1_m4_m4_1_t300.csv")])
    def test_indefinite_series_match_golden(self, capsys, name, terms, golden):
        code, out, _ = run(capsys, "series", "--name", name, "--terms", terms,
                           "--format", "csv")
        assert code == 0
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as f:
            assert out == f.read()

    @pytest.mark.parametrize("series_id", GOLDEN_SERIES_IDS)
    def test_series_output_matches_golden(self, capsys, series_id):
        check_series_outputs(capsys, ["series", "--name", series_id])

    def test_series_output_golden_covers_every_id(self):
        assert {i.split(":")[0] for i in GOLDEN_SERIES_IDS} == set(cli._SERIES_IDS)
        with open(SERIES_OUTPUTS, encoding="utf-8") as f:
            assert set(json.load(f)) == {
                " ".join(argv) for argv in series_output_cases()}

    def test_byte_determinism(self, capsys):
        runs = [run(capsys, "series", "--name", "lambda:1:2:1:1:1",
                    "--terms", "30", "--format", "json") for _ in range(2)]
        assert runs[0] == runs[1]


class TestExactCoefficients:
    """No float reaches a coefficient: every catalog id and a grid of
    composites builds int, Fraction or QuadExt coefficients, and a negative
    degree nu of an indefinite theta series or a bracket is a usage error
    (exit 1, a message, no traceback), not a float series."""

    @pytest.mark.parametrize("name", [
        "H", "theta", "theta_half:1:1", "theta_half:2:5", "theta32:1:-4",
        "theta32:3:3", "theta_pa:5:2", "theta_pa:7:0", "G2", "Delta",
        "eta2_12", "g7",
        "lambda:1:1:1:1:0", "lambda:1:1:5:5:2", "lambda:1:2:1:1:1",
        "lambda:4:9:1:1:1", "lambda:1:13:5:5:0", "lambda:2:3:1:1:1",
        "delta:1:1:-4:-4:1", "delta:1:53:-4:-4:0", "delta:3:3:-4:-4:2",
        "bracket:H:theta:3/2:1/2:0", "bracket:H:theta:3/2:1/2:1",
        "bracket:theta:G2:1/2:2:2"])
    def test_coefficients_are_exact(self, name):
        series = cli.build_series(name, 30)
        indices = sorted(series.defined) if hasattr(series, "defined") else range(31)
        kinds = {type(series.coeff(n)) for n in indices}
        assert kinds and kinds <= {int, Fraction, QuadExt}, (name, kinds)

    @pytest.mark.parametrize("name", [
        "lambda:1:1:1:1:-1", "lambda:1:2:1:1:-1", "lambda:4:9:1:1:-2",
        "delta:1:1:-4:-4:-1", "delta:1:53:-4:-4:-1",
        "bracket:H:theta:3/2:1/2:-1"])
    def test_negative_degree_is_a_usage_error(self, capsys, name):
        code, out, err = run(capsys, "series", "--name", name, "--terms", "12")
        assert code == 1 and out == ""
        assert err.startswith(f"qrel series: cannot build {name!r}: ")
        assert "must be nonnegative" in err


class TestBracket:
    def test_product_case(self, capsys):
        code, out, _ = run(capsys, "bracket", "--f", "H", "--g", "theta",
                           "--k", "3/2", "--l", "1/2", "--nu", "0",
                           "--terms", "4")
        assert code == 0
        assert out.strip().split(", ")[4] == "1"

    @pytest.mark.parametrize("f, g, k, direct", [
        ("theta_half:1:5", "theta", "1/2",
         lambda T: (forms.theta_half(1, kronecker_character(5), T),
                    forms.theta_classical(T))),
        ("H", "theta_pa:5:0", "3/2",
         lambda T: (forms.hurwitz_series(T), forms.theta_congruence(5, 0, T)))])
    def test_ids_with_fields(self, capsys, f, g, k, direct):
        # --f and --g take any series id, fields included
        code, out, err = run(capsys, "bracket", "--f", f, "--g", g, "--k", k,
                             "--l", "1/2", "--nu", "1", "--terms", "30")
        assert code == 0 and err == ""
        series = rankin_cohen(*direct(30), BracketSpec(Fraction(k), Fraction(1, 2), 1))
        coeffs = [series.coeff(n) for n in range(31)]
        assert {type(c) for c in coeffs} <= {int, Fraction} and any(coeffs)
        assert out == ", ".join(map(str, coeffs)) + "\n"

    @pytest.mark.parametrize("args", GOLDEN_BRACKETS,
                             ids=lambda args: ":".join(args[1:4:2]))
    def test_output_matches_golden(self, capsys, args):
        check_series_outputs(capsys, ["bracket", *args])

    @pytest.mark.parametrize("argv, want", [
        (["bracket", "--f", "g7", "--g", "theta", "--k", "2", "--l", "1/2"],
         "qrel bracket: g7 has"),
        (["bracket", "--f", "theta", "--g", "g7", "--k", "1/2", "--l", "2"],
         "qrel bracket: g7 has"),
        (["series", "--name", "bracket:g7:theta:2:1/2:0"],
         "qrel series: cannot build 'bracket:g7:theta:2:1/2:0': g7 has"),
        (["series", "--name", "bracket:theta:g7:1/2:2:1"],
         "qrel series: cannot build 'bracket:theta:g7:1/2:2:1': g7 has")])
    def test_partial_series_refused(self, argv, want):
        # g7 is a PartialSeries, defined only at some indices: a usage
        # error with one line on stderr, not a traceback
        proc = run_fresh(*argv, "--terms", "30")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(want) and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("f, k", [("lambda:1:2:1:1:0", "1/2"),
                                      ("delta:1:2:-4:-4:0", "3/2")])
    def test_mixed_quadratic_fields_refused(self, f, k):
        # coefficients in Q(sqrt 2) and Q(sqrt 3) do not multiply: a usage
        # error with one line on stderr, not a ScalarKindError traceback
        proc = run_fresh("bracket", "--f", f, "--g", "lambda:1:3:1:1:0",
                         "--k", k, "--l", "1/2")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("qrel bracket: cannot mix quadext(2) and "
                               "quadext(3) coefficients\n")

    def test_bad_weight(self, capsys):
        code, _, err = run(capsys, "bracket", "--f", "H", "--g", "theta",
                           "--k", "1/3", "--l", "1/2")
        assert code == 1


HURWITZ_50_CSV = "".join(f"{line}\n" for line in (
    "0,-1,12", "3,1,3", "4,1,2", "7,1,1", "8,1,1", "11,1,1", "12,4,3",
    "15,2,1", "16,3,2", "19,1,1", "20,2,1", "23,3,1", "24,2,1", "27,4,3",
    "28,2,1", "31,3,1", "32,3,1", "35,2,1", "36,5,2", "39,4,1", "40,2,1",
    "43,1,1", "44,4,1", "47,5,1", "48,10,3"))


class TestHurwitzCmd:
    def test_writes_and_idempotent(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QREL_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "hurwitz", "--max", "100")
        assert code == 0
        path = out.strip()
        first = open(path).read()
        assert "23,3,1\n" in first and first.startswith("0,-1,12\n")
        code, out2, _ = run(capsys, "hurwitz", "--max", "100")
        assert code == 0 and open(out2.strip()).read() == first

    def test_explicit_out(self, capsys, tmp_path):
        target = tmp_path / "h.csv"
        code, out, _ = run(capsys, "hurwitz", "--max", "50", "--out", str(target))
        assert code == 0 and out.strip() == str(target)
        assert "4,1,2" in target.read_text()

    def test_writes_only_up_to_max(self, capsys, tmp_path):
        # the process's table already holds more than --max asks for
        hurwitz_cache().ensure(8000)
        target = tmp_path / "h.csv"
        code, _, _ = run(capsys, "hurwitz", "--max", "50", "--out", str(target))
        assert code == 0 and target.read_text() == HURWITZ_50_CSV

    @pytest.mark.parametrize("max_n", ["0", "-5"])
    def test_range_end_below_one_rejected(self, capsys, tmp_path, max_n):
        target = tmp_path / "h.csv"
        code, out, err = run(capsys, "hurwitz", "--max", max_n,
                             "--out", str(target))
        assert code == 1 and out == ""
        assert f"--max must be at least 1, got {max_n}" in err
        assert not target.exists()

    def test_file_text_pinned(self, tmp_path):
        target = tmp_path / "h.csv"
        proc = run_fresh("hurwitz", "--max", "50", "--out", str(target))
        assert proc.returncode == 0 and proc.stdout == f"{target}\n"
        assert target.read_text() == HURWITZ_50_CSV

    def test_csv_at_scale_pinned(self, tmp_path):
        # SHA-256 of the file the former list sweep wrote at 2*10^5
        target = tmp_path / "h.csv"
        proc = run_fresh("hurwitz", "--max", "200000", "--out", str(target))
        assert proc.returncode == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "fefbe48b9cb8166f8331562bc8f2c339e9903315fe457397c89d3d8fef49a51b")

    @pytest.mark.parametrize("argv", [
        ["hurwitz", "--max", "600000000", "--out", "{tmp}"],
        ["verify", "eichler", "--max", "600000000"],
        ["verify-all", "--max", "600000000"]])
    def test_table_past_4_bytes_one_line_error(self, capsys, tmp_path, argv):
        # the fill checks its bound before it allocates, so this is fast
        argv = [a.format(tmp=tmp_path / "h.csv") for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert re.fullmatch(rf"qrel {argv[0]}: 12\*H\(n\) for n <= \d+ "
                            r"may not fit 4 bytes\n", err), err
        assert not (tmp_path / "h.csv").exists()


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "eichler", "--max", "99")
        assert code == 0 and "pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "kronecker_hurwitz",
                           "--max", "60", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "pass"
        assert "+2*lambda_1" in doc["notes"]

    def test_scaled_kronecker_hurwitz(self):
        # fills the table to 2*10^5, past every benchmark workload
        proc = run_fresh("verify", "kronecker_hurwitz", "--max", "50000", "--json")
        doc = json.loads(proc.stdout)
        assert proc.returncode == 0 and doc["status"] == "pass"
        assert doc["range"] == [1, 50000] and doc["failures"] == []

    def test_unknown_relation(self, capsys):
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 1 and "unknown relation" in err

    def test_math_failure_exit_two(self, capsys, monkeypatch):
        import oracles
        from qrel import relations

        def broken(max_n=None):
            rep = relations.RelationReport("eichler", 1, 1, "all n")
            oracles.record(rep, 1, 0, 1)
            return rep

        monkeypatch.setattr(relations, "check_eichler", broken)
        code, out, _ = run(capsys, "verify", "eichler")
        assert code == 2 and "fail" in out

    def test_perturbed_g7_fails_like_golden(self, capsys, monkeypatch):
        # a(11) of g7 raised by 1: cor_ii must fail at n = 11 alone, as the
        # point-count g7 of commit 0c5a295 did (its report is the golden,
        # "elapsed_ms" line dropped), which shows that cor_ii reads g7
        from qrel import forms
        g7 = forms.g7

        def perturbed(T):
            g = g7(T)
            return forms.PartialSeries({**g.coeffs, 11: g.coeffs.get(11, 0) + 1},
                                       g.defined, g.trunc)

        monkeypatch.setattr(forms, "g7", perturbed)
        code, out, _ = run(capsys, "verify", "cor_ii", "--max", "500", "--json")
        assert code == 2
        out = re.sub(r'(?m)^ *"elapsed_ms": \d+,\n', "", out)
        with open(os.path.join(GOLDEN, "verify_cor_ii_max500_g7_a11_plus1.json"),
                  encoding="utf-8") as f:
            assert out == f.read()

    @pytest.mark.parametrize("argv", [["verify", "eichler", "--max", "0"],
                                      ["verify", "eichler", "--max", "-5"],
                                      ["verify-all", "--max", "0"]])
    def test_nonpositive_max_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "at least 1" in err

    @pytest.mark.parametrize("argv", [["verify", "hap_table", "--max", "1"],
                                      ["verify-all", "--max", "1"]])
    def test_range_end_below_first_index_rejected(self, capsys, argv):
        # hap_table starts at the prime 2, so --max 1 leaves it nothing to
        # check
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "hap_table starts at 2" in err and "got 1" in err

    def test_fixed_range_check_rejects_max(self, capsys):
        code, out, err = run(capsys, "verify", "identities", "--max", "5")
        assert code == 1 and out == ""
        assert "identities has fixed parameter ranges" in err
        code, out, _ = run(capsys, "verify", "identities")
        assert code == 0 and "[0,0]" in out and " pass" in out

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"])
        capsys.readouterr()
        assert exc.value.code == 1


class TestVerifyAll:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--max", "40")
        assert code == 0
        lines = out.strip().splitlines()
        from qrel import relations
        assert len(lines) == len(relations.relation_ids())
        assert all(" pass" in line for line in lines)

    def test_json_list(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--max", "30", "--json")
        docs = json.loads(out)
        assert code == 0
        assert [d["relation"] for d in docs][:2] == ["eichler", "cohen"]

    # Recorded with `python -m qrel.cli ARGV`, each "elapsed_ms" line
    # dropped from the JSON: the verify-all outputs from commit 1356505,
    # the scaled prop72 and cor_ii reports (the two checks built on
    # D^{(p,a)}_k) from d443076, the scaled cor_i report from 48eb039.
    # The CLI output must stay byte-identical to these, timing aside.
    @pytest.mark.parametrize("argv, golden", [
        (["verify-all"], "verify_all.txt"),
        (["verify-all", "--json"], "verify_all.json"),
        (["verify-all", "--max", "40"], "verify_all_max40.txt"),
        (["verify-all", "--max", "40", "--json"], "verify_all_max40.json"),
        (["verify", "prop72", "--max", "1500", "--json"],
         "verify_prop72_max1500.json"),
        (["verify", "cor_ii", "--max", "2000", "--json"],
         "verify_cor_ii_max2000.json"),
        (["verify", "cor_i", "--max", "3000", "--json"],
         "verify_cor_i_max3000.json")])
    def test_output_matches_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        out = re.sub(r'(?m)^ *"elapsed_ms": \d+,\n', "", out)
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as f:
            assert out == f.read()

    # Recorded with `COLUMNS=80 python -m qrel.cli [SUBCOMMAND] --help` from
    # commit 0d3a4a2, whose verify help was built from relation_ids() when
    # the parser was made.
    @pytest.mark.parametrize("argv, golden", [([], "help.txt"),
                                              (["verify"], "help_verify.txt"),
                                              (["series"], "help_series.txt")])
    def test_help_matches_golden(self, capsys, monkeypatch, argv, golden):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--help"])
        assert exc.value.code == 0
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as f:
            assert capsys.readouterr().out == f.read()

    def test_verify_help_lists_the_registry(self, capsys, monkeypatch):
        from qrel import relations
        monkeypatch.setitem(relations._REGISTRY, "zz_extra", None)
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"one of: {', '.join(relations.relation_ids())} " in help_text
        assert relations.relation_ids()[-1] == "zz_extra"


# Runs qrel.cli.main(ARGV) in a fresh interpreter and prints the qrel
# modules it loaded and whether dataclasses and array were imported.
FOOTPRINT = """
import contextlib, io, json, sys
from qrel import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(json.loads(sys.argv[1]))
    except SystemExit:
        pass
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "qrel"),
                  "dataclasses" in sys.modules, "array" in sys.modules]))
"""


# The class number checks run on relations, arith, classnum and slots alone,
# in both formats.
CLASS_NUMBER_IDS = ("eichler", "cohen", "kronecker_hurwitz", "trace1_nu1",
                    "trace4_nu1", "hap_table")
CLASS_NUMBER_ABSENT = {"forms", "holproj", "qseries", "scalars", "congruence",
                       "identities", "pell"}
# The indefinite theta series run on holproj, qseries, scalars and arith (its
# characters, not the class number table of classnum), and load pell for a
# non-square s*t only; the eta-products run on forms, qseries, scalars and
# slots.
INDEF_ABSENT = {"brackets", "slots", "forms", "relations", "classnum"}
SQUARE_ABSENT = INDEF_ABSENT | {"pell"}
ETA_ABSENT = {"arith", "classnum", "holproj", "brackets", "relations"}
# Runs a command under tracemalloc and prints its traced peak in bytes.
IMPORT_PEAK = """
import __future__, argparse, contextlib, fractions, gettext, io, locale, sys
import tracemalloc
tracemalloc.start()
from qrel import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
"""
QREL_MODULES = {name[:-3] for name in os.listdir(os.path.dirname(qrel.__file__))
                if name.endswith(".py")} - {"__init__", "cli"}


class TestImportFootprint:
    """Each command imports only the qrel modules it runs."""

    @pytest.mark.parametrize("argv, absent", [
        (["--help"], None),
        (["series", "--name", "lambda:1:13:5:5:2", "--terms", "50",
          "--format", "csv"], INDEF_ABSENT),
        (["series", "--name", "lambda:1:2:1:1:0", "--terms", "5"], INDEF_ABSENT),
        (["series", "--name", "lambda:4:9:1:1:1", "--terms", "5",
          "--format", "json"], SQUARE_ABSENT),
        (["series", "--name", "delta:1:1:-4:-4:0", "--format", "csv"],
         SQUARE_ABSENT),
        (["series", "--name", "delta:1:53:-4:-4:1", "--terms", "5"],
         INDEF_ABSENT),
        (["series", "--name", "delta:1:1:-4:-4:1", "--terms", "5",
          "--format", "json"], SQUARE_ABSENT),
        (["series", "--name", "Delta", "--terms", "5"], ETA_ABSENT),
        (["series", "--name", "eta2_12", "--terms", "5", "--format", "csv"],
         ETA_ABSENT),
        (["series", "--name", "bracket:H:theta:3/2:1/2:1", "--terms", "5"],
         {"holproj", "relations"}),
        (["hurwitz", "--max", "50", "--out", "{tmp}"], QREL_MODULES - {"classnum"}),
        (["verify", "eichler", "--max", "50"], CLASS_NUMBER_ABSENT),
        *[(["verify", rid, "--max", "50"], CLASS_NUMBER_ABSENT)
          for rid in CLASS_NUMBER_IDS[1:]],
        *[(["verify", rid, "--max", "50", "--json"], CLASS_NUMBER_ABSENT)
          for rid in CLASS_NUMBER_IDS],
        (["verify", "cor_i", "--max", "50"],
         {"forms", "holproj", "qseries", "scalars", "identities"}),
        (["verify", "identities"], {"congruence", "forms"}),
        (["verify", "prop72", "--max", "50"],
         {"forms", "brackets", "identities", "pell"}),
        (["verify-all", "--max", "40", "--json"], {"pell"})],
        ids=["help", "lambda-csv", "lambda-text", "lambda-json", "delta-csv",
             "delta-text", "delta-json", "catalog", "eta2_12", "bracket",
             "hurwitz", "verify",
             *[f"verify-{rid}" for rid in CLASS_NUMBER_IDS[1:]],
             *[f"verify-{rid}-json" for rid in CLASS_NUMBER_IDS],
             "verify-cor_i", "verify-identities", "verify-prop72", "verify-all"])
    def test_modules_loaded(self, tmp_path, argv, absent):
        argv = [a.format(tmp=tmp_path / "h.csv") for a in argv]
        src = os.path.dirname(os.path.dirname(qrel.__file__))
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        loaded, dataclasses_loaded, array_loaded = json.loads(proc.stdout)
        if absent is None:      # nothing but the front end
            assert loaded == ["qrel", "qrel.cli"]
        else:
            assert not {f"qrel.{m}" for m in absent} & set(loaded)
        if absent is INDEF_ABSENT:      # the non-square s*t ids
            assert "qrel.pell" in loaded
        assert not dataclasses_loaded
        # the 12 H table alone needs array: the characters of the
        # indefinite series import arith without loading it
        if absent is None or absent is INDEF_ABSENT or absent is SQUARE_ABSENT:
            assert not array_loaded

    def test_lambda_import_traced_peak(self, tmp_path):
        # Every qrel module compiled from source (an empty bytecode cache,
        # none written), the standard library imported before tracing: on
        # Python 3.11, series lambda:1:13:5:5:2 peaked at 1.05 MiB traced
        # with the 12 H table in arith and the eta products in qseries, and
        # at 0.86 MiB once neither is compiled for it.
        src = os.path.dirname(os.path.dirname(qrel.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PEAK, "series", "--name",
             "lambda:1:13:5:5:2", "--terms", "50", "--format", "csv"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
                 "PYTHONPYCACHEPREFIX": str(tmp_path)})
        assert proc.returncode == 0, proc.stderr
        peak = int(proc.stdout)
        assert peak < 0.95 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


class TestNamespace:
    def test_all_names_resolve(self):
        for name in qrel.__all__:
            assert getattr(qrel, name) is not None
            assert name in dir(qrel)

    def test_names_are_the_defining_modules_objects(self):
        from qrel import brackets, holproj, pell, relations
        assert qrel.pell_orbit is pell.pell_orbit is holproj.pell_orbit
        assert qrel.kappa is brackets.kappa
        assert holproj.kappa is brackets.kappa
        assert qrel.RelationReport is relations.RelationReport
        assert qrel.holproj is holproj

    def test_holproj_forwards_to_the_defining_modules(self):
        from importlib import import_module
        from qrel import holproj
        assert set(holproj._MOVED.values()) == {"brackets", "pell", "scalars"}
        for name, module in holproj._MOVED.items():
            defining = vars(import_module(f"qrel.{module}"))
            assert name not in vars(holproj)
            assert getattr(holproj, name) is defining[name], name

    def test_class_number_table_is_one_object(self):
        from qrel import arith, classnum
        assert arith._MOVED == ("HurwitzCache", "hurwitz_cache")
        for name in arith._MOVED:
            assert name not in vars(arith)
            assert getattr(arith, name) is vars(classnum)[name], name
        assert arith.hurwitz_cache() is classnum.hurwitz_cache()
        # the module is not named hurwitz, so importing it leaves the
        # package's function in place
        assert qrel.hurwitz is classnum.hurwitz and qrel.hurwitz(23) == 3

    def test_aliases_are_the_ones_the_gate_and_tracer_read(self):
        # a forwarded name stays only while the acceptance gate or the
        # benchmark tracer reads it through the old module
        from qrel import arith, holproj
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        gate, tracer = (
            open(os.path.join(root, path), encoding="utf-8").read()
            for path in ("tests/test_acceptance.py", "perfbench/tracer.py"))
        for name in holproj._MOVED:
            assert f"hp.{name}" in gate, name
        for name in arith._MOVED:
            assert (re.search(rf"from qrel\.arith import .*\b{name}\b", gate)
                    or f'"{name}"' in tracer), name

    def test_eta_products_live_in_forms(self):
        # Delta and eta(2 tau)^12 are the only eta products; the general
        # builder and its Euler function are gone from the package
        from qrel import qseries
        assert {"delta12", "eta2_pow12", "_q_jacobi_power"} <= set(vars(forms))
        for name in ("eta_product", "_jacobi_cube", "_euler_function"):
            assert not hasattr(forms, name) and not hasattr(qseries, name), name
        with pytest.raises(AttributeError, match="eta_product"):
            forms.eta_product([(1, 24)], 10)

    def test_star_import(self):
        namespace = {}
        exec("from qrel import *", namespace)
        assert set(qrel.__all__) <= set(namespace)

    def test_relation_families_resolve(self):
        # in a fresh interpreter, where only the package's __getattr__ loads them
        src = os.path.dirname(os.path.dirname(qrel.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import qrel; print(qrel.congruence.__name__, "
                                   "qrel.identities.__name__, *dir(qrel))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        names = proc.stdout.split()
        assert names[:2] == ["qrel.congruence", "qrel.identities"], proc.stderr
        assert {"congruence", "identities"} <= set(names[2:])

    def test_unknown_attribute(self):
        from qrel import holproj
        with pytest.raises(AttributeError, match="no_such_name"):
            qrel.no_such_name
        with pytest.raises(AttributeError, match="qrel.holproj.*no_such_name"):
            holproj.no_such_name
        from qrel import arith
        with pytest.raises(AttributeError, match="qrel.arith.*no_such_name"):
            arith.no_such_name


QREL_SOURCES = sorted(
    os.path.join(os.path.dirname(qrel.__file__), name)
    for name in os.listdir(os.path.dirname(qrel.__file__))
    if name.endswith(".py"))


def parse_source(path: str):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


class TestStdlibOnly:
    """qrel's runtime needs only the standard library (dependencies = [])."""

    @pytest.mark.parametrize("path", QREL_SOURCES, ids=os.path.basename)
    def test_absolute_imports_name_stdlib_modules(self, path):
        tree = parse_source(path)
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert names
        assert [n for n in names
                if n.split(".")[0] not in sys.stdlib_module_names] == []


def floating_point_use(node) -> str | None:
    """What node uses of floating point: a float or complex literal, the
    name float, math.pi, or cmath; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return repr(node.value)
    if isinstance(node, ast.Name) and node.id == "float":
        return "float"
    if (isinstance(node, ast.Attribute) and node.attr == "pi"
            and isinstance(node.value, ast.Name) and node.value.id == "math"):
        return "math.pi"
    if isinstance(node, ast.ImportFrom) and (node.module == "cmath" or (
            node.module == "math" and "pi" in {a.name for a in node.names})):
        return f"from {node.module} import"
    if isinstance(node, ast.Import) and "cmath" in {a.name for a in node.names}:
        return "import cmath"
    return None


class TestExactOnly:
    """Everything qrel computes is exact: no floating point in its source."""

    @pytest.mark.parametrize("path", QREL_SOURCES, ids=os.path.basename)
    def test_no_floating_point(self, path):
        assert [(use, node.lineno) for node in ast.walk(parse_source(path))
                if (use := floating_point_use(node))] == []

    def test_lint_sees_each_use(self):
        for code in ("x = 0.5", "y = 2j", "float(x)", "math.pi",
                     "from math import isqrt, pi", "import cmath",
                     "from cmath import sqrt"):
            assert any(map(floating_point_use, ast.walk(ast.parse(code)))), code
        assert not any(map(floating_point_use, ast.walk(ast.parse(
            "from math import isqrt\nx = Fraction(1, 2) + 3 // 2"))))
