"""Traced runs: timing wrappers around qrel's functions, and the per-layer
metrics computed from what they record.

    python3 perfbench/tracer.py TRACE_FILE -- ARGS...

behaves like ``python3 -m qrel.cli ARGS...`` (same stdout, same exit code)
and writes a JSON trace to TRACE_FILE.  The wrappers live here, not in
qrel: each public function of qrel's modules, plus the methods listed in
METHODS, is replaced by a wrapper under every module name that holds it
(``relations.hurwitz_cache``, ``forms.ec_ap``, ``qrel.pell_orbit``, ...).

A wrapper pushes a frame, calls the original and on return records a span
(id, parent id, name, start, end) and charges the frame's self time (its
duration minus the time of the wrapped calls it made) to its module.  The
root frame is ``cli.main``, so the module self times add up to the
command's run time minus interpreter start and exit, the import of
qrel.cli (import_s) and the tracer's own imports, set-up and write-out
(tracer_s).  Spans are kept in memory, at most SPAN_CAP per command, and
written out when the command ends; the aggregates count every call.
"""

from __future__ import annotations

import time

# Taken before the other imports, which count as the tracer's own time.
_STARTED = time.perf_counter()

import bisect
import fractions
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys

SPAN_CAP = 20_000
MODULES = ("cli", "relations", "forms", "holproj", "qseries", "arith", "scalars")

# Module-level functions reported under a shared name; any other wrapped
# function is keyed "<module>.<name>".
GROUPS = {
    "arith.divisors": "arith.divisor",
    "cli._emit_series": "cli.emit",
    "holproj.indefinite_double_sum": "holproj.double_sum",
    "holproj.lambda_indef": "holproj.indef",
    "holproj.delta_indef": "holproj.indef",
    "qseries._invert_unit_series": "qseries.invert",
    **{f"holproj.{name}": "holproj.poly" for name in
       ("poly_add", "poly_scale", "poly_mul", "poly_pow", "poly_eval", "p_poly")},
}
# Private functions that are layer boundaries all the same.
PRIVATE = {"cli._emit_series", "qseries._invert_unit_series"}
# Thin delegates too hot to time; their callers absorb their cost.
SKIP = {"arith.hurwitz"}

_QUADEXT_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "inverse", "__truediv__",
                "__rtruediv__", "__pow__", "conjugate", "norm", "sign")
# (module, class, method names, key or None for "<module>.<class>.<method>")
METHODS = (
    ("arith", "HurwitzCache", ("_bulk_fill",), "arith.hurwitz_fill"),
    ("arith", "HurwitzCache", ("save",), "arith.hurwitz_save"),
    ("arith", "HurwitzCache", ("ensure", "load", "build"), None),
    ("qseries", "QSeries", ("__mul__",), "qseries.mul"),
    ("qseries", "QSeries", ("__pow__",), "qseries.pow"),
    ("qseries", "QSeries", ("__init__", "__add__", "__sub__", "__neg__", "scale",
                            "d_operator", "u_op", "v_op", "sieve", "twist",
                            "truncate", "to_csv_lines"), None),
    ("scalars", "QuadExt", _QUADEXT_OPS, "scalars.quadext"),
    ("scalars", "PiScalar", _QUADEXT_OPS, "scalars.piscalar"),
    ("relations", "RelationReport", ("to_dict", "to_json", "summary_line"), None),
)

RELATION_IDS = ("eichler", "cohen", "kronecker_hurwitz", "trace1_nu1",
                "trace1_nu2", "trace1_nu3", "trace1_nu4", "trace1_nu5",
                "trace4_nu1", "trace4_nu2", "hap_table", "cor_i", "cor_ii",
                "prop72", "identities")
FORM_BUILDERS = ("hurwitz_series", "eisenstein_g2", "delta12", "eta2_pow12",
                 "theta_congruence", "g7")

clock = time.perf_counter


class Recorder:
    """Frames, spans and counters of one traced command."""

    def __init__(self):
        self.stack = [[0.0, 0]]     # [time of wrapped callees, span id]
        self.stats: dict[str, list] = {}   # key -> [calls, inclusive s, depth, extra]
        self.counts: dict[str, int] = {}
        self.self_s = {m: 0.0 for m in MODULES}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.patched: dict[str, list[str]] = {}
        self._ids = itertools.count(1)

    def timed(self, fn, key, module, extra=None, key_of=None):
        """Wrap fn in a frame charged to module.  Inclusive time is added
        only when the outermost call of key returns, so recursion and
        nested calls of the same group are not counted twice."""
        stack, stats, self_s, spans, ids = (self.stack, self.stats, self.self_s,
                                            self.spans, self._ids)

        def traced(*args, **kwargs):
            k = key_of(args, kwargs) if key_of else key
            st = stats.get(k) or stats.setdefault(k, [0, 0.0, 0, 0])
            st[0] += 1
            st[2] += 1
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st[2] -= 1
                dur = t1 - t0
                if not st[2]:
                    st[1] += dur
                self_s[module] += dur - frame[0]
                parent[0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent[1], k, t0, t1))
                else:
                    self.dropped += 1
            if extra is not None:
                st[3] += extra(args, result)
            return result

        return functools.wraps(fn)(traced)

    def counted(self, fn, name):
        counts = self.counts
        counts[name] = 0

        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(count)

    def replace(self, original, wrapper, label: str) -> None:
        """Put wrapper wherever a qrel module holds original."""
        where = []
        for name, mod in list(sys.modules.items()):
            if name != "qrel" and not name.startswith("qrel."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    where.append(f"{name.removeprefix('qrel.')}.{attr}")
        self.patched[label] = where

    def to_json(self) -> dict:
        return {"stats": {k: {"calls": v[0], "s": v[1], "extra": v[3]}
                          for k, v in self.stats.items()},
                "counts": self.counts, "self_s": self.self_s,
                "spans": self.spans, "spans_dropped": self.dropped,
                "patched": self.patched}


def _pairs(args, result) -> int:
    """Coefficient products a QSeries multiplication computed."""
    a, b = args
    if not hasattr(b, "coeffs"):
        return 0
    t = min(a.trunc, b.trunc)
    eb = sorted(n for n in b.coeffs if n <= t)
    return sum(bisect.bisect_right(eb, t - n) for n in a.coeffs if n <= t)


EXTRAS = {
    "arith.hurwitz_fill": lambda args, result: args[1],
    "arith.hurwitz_save": lambda args, result: os.path.getsize(result),
    "holproj.pell_orbit": lambda args, result: len(result.fundamental_solutions),
    "qseries.mul": _pairs,
}


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def install(rec: Recorder) -> None:
    for short in MODULES:
        mod = importlib.import_module(f"qrel.{short}")
        for name, obj in list(vars(mod).items()):
            label = f"{short}.{name}"
            if (not _is_function(obj) or obj.__module__ != mod.__name__
                    or label in SKIP or (name.startswith("_") and label not in PRIVATE)):
                continue
            if label == "relations.run_check":
                wrapper = rec.timed(
                    obj, None, short,
                    extra=lambda args, result: result.checked,
                    key_of=lambda args, kwargs: "relations." + (
                        args[0] if args else kwargs["relation_id"]))
            else:
                key = GROUPS.get(label, label)
                wrapper = rec.timed(obj, key, short, EXTRAS.get(key))
            rec.replace(obj, wrapper, label)
    for short, cls_name, names, key in METHODS:
        cls = getattr(importlib.import_module(f"qrel.{short}"), cls_name)
        for name in names:
            fn = vars(cls).get(name)
            if not inspect.isfunction(fn):
                continue
            k = key or f"{short}.{cls_name}.{name}"
            setattr(cls, name, rec.timed(fn, k, short, EXTRAS.get(k)))
    hurwitz_cache = importlib.import_module("qrel.arith").HurwitzCache
    hurwitz_cache.get = rec.counted(hurwitz_cache.get, "arith.hurwitz_get")
    fraction_new = fractions.Fraction.__new__
    fractions.Fraction.__new__ = staticmethod(
        rec.counted(fraction_new, "scalars.fraction_new"))


# ---------------------------------------------------------------------------
# Per-layer metrics


def _metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    s, n = "s", "count"
    names = [
        ("arith.hurwitz_fill.s", s, "lower"), ("arith.hurwitz_fill.n", n, "lower"),
        ("arith.hurwitz_get.calls", n, "lower"),
        ("arith.divisor.calls", n, "lower"), ("arith.divisor.s", s, "lower"),
        ("arith.hurwitz_save.s", s, "lower"), ("arith.hurwitz_save.bytes", "bytes", "lower"),
        ("arith.ec_ap.s", s, "lower"), ("arith.self_s", s, "lower"),
        ("scalars.fraction_new.calls", n, "lower"),
        ("scalars.quadext.calls", n, "lower"), ("scalars.quadext.s", s, "lower"),
        ("scalars.self_s", s, "lower"),
    ]
    for rid in RELATION_IDS:
        names += [(f"relations.{rid}.s", s, "lower"),
                  (f"relations.{rid}.checked", n, "higher")]
    names += [
        ("relations.self_s", s, "lower"),
        ("qseries.mul.calls", n, "lower"), ("qseries.mul.pairs", n, "lower"),
        ("qseries.mul.s", s, "lower"), ("qseries.pow.s", s, "lower"),
        ("qseries.eta_product.s", s, "lower"), ("qseries.invert.s", s, "lower"),
        ("qseries.self_s", s, "lower"),
    ]
    names += [(f"forms.{b}.s", s, "lower") for b in FORM_BUILDERS]
    names += [
        ("forms.self_s", s, "lower"),
        ("holproj.pell_orbit.calls", n, "lower"), ("holproj.pell_orbit.s", s, "lower"),
        ("holproj.pell_orbit.solutions", n, "higher"),
        ("holproj.double_sum.s", s, "lower"), ("holproj.indef.s", s, "lower"),
        ("holproj.lambda_pa.s", s, "lower"), ("holproj.d_pa_series.s", s, "lower"),
        ("holproj.poly.s", s, "lower"), ("holproj.rankin_cohen.s", s, "lower"),
        ("holproj.self_s", s, "lower"),
        ("cli.import_s", s, "lower"), ("cli.emit_s", s, "lower"),
        ("cli.stdout_bytes", "bytes", "lower"), ("cli.cpu_s", s, "lower"),
        ("cli.self_s", s, "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.accounted_ratio", "ratio", "higher"),
    ]
    return names


PER_LAYER = _metric_names()


def per_layer_metrics(traces: list[dict], untraced: list, traced: list) -> dict:
    """Per-layer values of one traced pass.

    traces are the TRACE_FILE contents of the traced pass's commands;
    untraced and traced are the Outcomes of the two passes.  CPU time and
    stdout size come from the untraced pass, where no wrapper runs.
    """
    stats: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    self_s = {m: 0.0 for m in MODULES}
    import_s = tracer_s = 0.0
    for tr in traces:
        import_s += tr["import_s"]
        tracer_s += tr["tracer_s"]
        for k, v in tr["stats"].items():
            acc = stats.setdefault(k, [0, 0.0, 0])
            acc[0] += v["calls"]
            acc[1] += v["s"]
            acc[2] += v["extra"]
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for m, v in tr["self_s"].items():
            self_s[m] += v

    def calls(k):
        return stats.get(k, (0, 0.0, 0))[0]

    def secs(k):
        return stats.get(k, (0, 0.0, 0))[1]

    def extra(k):
        return stats.get(k, (0, 0.0, 0))[2]

    traced_wall = sum(o.wall_s for o in traced)
    untraced_wall = sum(o.wall_s for o in untraced)
    values = {
        "arith.hurwitz_fill.s": secs("arith.hurwitz_fill"),
        "arith.hurwitz_fill.n": extra("arith.hurwitz_fill"),
        "arith.hurwitz_get.calls": counts.get("arith.hurwitz_get", 0),
        "arith.divisor.calls": calls("arith.divisor"),
        "arith.divisor.s": secs("arith.divisor"),
        "arith.hurwitz_save.s": secs("arith.hurwitz_save"),
        "arith.hurwitz_save.bytes": extra("arith.hurwitz_save"),
        "arith.ec_ap.s": secs("arith.ec_ap"),
        "scalars.fraction_new.calls": counts.get("scalars.fraction_new", 0),
        "scalars.quadext.calls": calls("scalars.quadext"),
        "scalars.quadext.s": secs("scalars.quadext"),
        "qseries.mul.calls": calls("qseries.mul"),
        "qseries.mul.pairs": extra("qseries.mul"),
        "qseries.mul.s": secs("qseries.mul"),
        "qseries.pow.s": secs("qseries.pow"),
        "qseries.eta_product.s": secs("qseries.eta_product"),
        "qseries.invert.s": secs("qseries.invert"),
        "holproj.pell_orbit.calls": calls("holproj.pell_orbit"),
        "holproj.pell_orbit.s": secs("holproj.pell_orbit"),
        "holproj.pell_orbit.solutions": extra("holproj.pell_orbit"),
        "holproj.double_sum.s": secs("holproj.double_sum"),
        "holproj.indef.s": secs("holproj.indef"),
        "holproj.lambda_pa.s": secs("holproj.lambda_pa"),
        "holproj.d_pa_series.s": secs("holproj.d_pa_series"),
        "holproj.poly.s": secs("holproj.poly"),
        "holproj.rankin_cohen.s": secs("holproj.rankin_cohen"),
        "cli.import_s": import_s,
        "cli.emit_s": secs("cli.emit"),
        "cli.stdout_bytes": sum(len(o.stdout) for o in untraced),
        "cli.cpu_s": sum(o.cpu_s for o in untraced),
        "trace.overhead_ratio": traced_wall / untraced_wall if untraced_wall else 0.0,
        "trace.accounted_ratio": ((sum(self_s.values()) + import_s + tracer_s)
                                  / traced_wall if traced_wall else 0.0),
    }
    for rid in RELATION_IDS:
        values[f"relations.{rid}.s"] = secs(f"relations.{rid}")
        values[f"relations.{rid}.checked"] = extra(f"relations.{rid}")
    for b in FORM_BUILDERS:
        values[f"forms.{b}.s"] = secs(f"forms.{b}")
    for m in MODULES:
        values[f"{m}.self_s"] = self_s[m]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric median over several per_layer_metrics() results."""
    return {name: {"value": statistics.median(s[name]["value"] for s in samples),
                   "unit": samples[0][name]["unit"]} for name in samples[0]}


# ---------------------------------------------------------------------------
# The traced command


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_FILE -- QREL_ARGS...", file=sys.stderr)
        return 1
    trace_file, args = argv[1], argv[3:]
    t0 = clock()
    import qrel.cli
    t1 = clock()
    rec = Recorder()
    install(rec)
    t2 = clock()
    try:
        code = qrel.cli.main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    t3 = clock()
    with open(trace_file, "w") as fh:
        json.dump({"argv": args, "exit_code": code, "import_s": t1 - t0,
                   **rec.to_json()}, fh)
        # The tracer's own time: its imports, installing the wrappers and
        # writing the line above.
        tracer_s = (t0 - _STARTED) + (t2 - t1) + (clock() - t3)
        fh.write("\n" + json.dumps({"tracer_s": tracer_s}) + "\n")
    return code


def read_trace(path) -> dict:
    with open(path) as fh:
        body, tail = fh.read().splitlines()
    return {**json.loads(body), **json.loads(tail)}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
