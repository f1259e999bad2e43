"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records run.py appends to --results.  Untraced records
are paired by (workload, seed); make them by running both checkouts with
the same seeds, alternating which side runs first.  For every workload and
end-to-end metric of BENCHMARK.json it prints one verdict:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  not worse, but the spread of either side (interquartile range
              over median) is wider than the bound, and not every change
              run beats every parent run;
  unchanged   otherwise.

A workload whose change runs fail more commands than the parent's is
reported as worse as well.  The exit code is 1 when anything is worse,
else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[tuple[str, int], dict]:
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[(rec["workload"], rec["seed"])] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, int]:
    """The verdict for one workload and metric, and the change's wins;
    parent[i] and change[i] come from the same seed."""
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and sign * (pm - cm) > p3 - p1):
        return "improved", wins
    if sign * (cm - pm) > bound * abs(pm):
        return "worse", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved", wins
    return "unchanged", wins


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(argv[1]), load(argv[2])
    worse = False
    print(f"{'workload':<16} {'metric':<12} {'pairs':>5} {'wins':>4} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  verdict")
    for wl in (w["name"] for w in spec["workloads"]):
        seeds = sorted(s for (w, s) in parent if w == wl and (w, s) in change)
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            lower = metric["better"] == "lower"
            if seeds:
                p = [parent[(wl, s)]["metrics"][name]["value"] for s in seeds]
                c = [change[(wl, s)]["metrics"][name]["value"] for s in seeds]
                v, wins = verdict(p, c, bound, lower)
                pq, cq = _fmt(quartiles(p)), _fmt(quartiles(c))
            else:
                v, wins, pq, cq = "unresolved", 0, "-", "-"
            worse |= v == "worse"
            print(f"{wl:<16} {name:<12} {len(seeds):>5} {wins:>4} {pq:>34} "
                  f"{cq:>34}  {v} ({unit}, bound {bound:.0%})")
        failed = [sum(runs[(wl, s)]["failed"] for s in seeds) for runs in (parent, change)]
        if failed[1] > failed[0]:
            worse = True
            print(f"{wl:<16} failed commands: parent {failed[0]}, change {failed[1]}  worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
