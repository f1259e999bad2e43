"""qrel's benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a checkout; it imports nothing from src/ itself
and drives the CLI as ``python3 -m qrel.cli`` with PYTHONPATH=src, one
command at a time.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
wall_s is scaled to a nominal host speed, measured by calibration
chunks run after each timed command (see Run.scale()).
The full record of the run (drawn parameters, every command's exit code,
time and failure) is appended to --results.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import harness
import tracer
from workloads import WORKLOADS, commands

WORK_DIR = harness.BENCH_DIR / ".work"
SETUP_REPEATS = 11
# Commands stop being started this long after the run began, so that a
# run exits within 180 s even when a command hangs.
RUN_DEADLINE_S = 165.0
# After each timed command the benchmark calibrates for this share of the
# command's wall time, and the time one calibration chunk takes on the
# host that wall_s is scaled to (see Run.scale()).
CALIBRATION_SHARE = 0.5
CALIBRATION_NOMINAL_S = 0.05


def calibration_chunk() -> None:
    """A fixed mix of Fraction, dict and int work, the kinds of work qrel's
    hot loops do, about 0.05 s on the host the benchmark was written on.
    It runs in the benchmark's own process and calls no qrel code, so no
    change to qrel moves it."""
    total, table = Fraction(0), {}
    for i in range(1, 8000):
        total += Fraction(i % 89, i % 97 + 1)
        table[i * 7919 % 10007] = total.numerator % 1000
    x = 0
    for i in range(160000):
        x += i * i % 7


class Run:
    """The passes, set-up probes and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.cmds, self.params = commands(workload, seed)
        self.expect = harness.load_expectations()
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs: list[bytes] | None = None
        self.log: dict = {"setup": [], "passes": [], "calibration": []}

    def calibrate(self, timed_s: float) -> None:
        """Run calibration chunks for CALIBRATION_SHARE of timed_s, at
        least one, and log how many ran in how many seconds."""
        seconds = min(CALIBRATION_SHARE * timed_s, self.deadline - time.monotonic())
        chunks, t0 = 0, time.perf_counter()
        while True:
            calibration_chunk()
            chunks += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        self.log["calibration"].append([chunks, elapsed])

    def scale(self) -> float:
        """The factor that turns this run's times into times on the
        nominal host.  The shared host the benchmark was written on
        changed speed by up to a third over minutes, longer than a run, and
        the calibration chunks slowed with it.  They run right after the
        timed work, in proportion to it, so their mean time tracks the
        host's speed while that work ran."""
        chunks = sum(c for c, _ in self.log["calibration"])
        seconds = sum(s for _, s in self.log["calibration"])
        return CALIBRATION_NOMINAL_S * chunks / seconds

    def _fail(self, outcome: harness.Outcome, why: str) -> None:
        outcome.failure = why
        self.failures.append(f"{outcome.key}: {why}")

    def setup_once(self) -> float:
        """Fresh cache directory plus interpreter start and import qrel."""
        t0 = time.perf_counter()
        cache = Path(tempfile.mkdtemp(dir=self.work))
        mkdir_s = time.perf_counter() - t0
        outcome = harness.spawn(harness.cli_argv(("--help",)), cwd=self.work,
                                cache_dir=cache, key="--help",
                                timeout=min(harness.COMMAND_TIMEOUT_S,
                                            self.deadline - time.monotonic()))
        self.attempted += 1
        why = harness.check_help(outcome)
        if why:
            self._fail(outcome, why)
        self.log["setup"].append(outcome.summary())
        return mkdir_s + outcome.wall_s

    def one_pass(self, trace: bool = False,
                 calibrate: bool = False) -> tuple[list, list[dict]]:
        """Run every command once in a fresh cache directory, each followed
        by calibration when calibrate is set.  Returns the outcomes and,
        when traced, the traces."""
        pass_dir = Path(tempfile.mkdtemp(dir=self.work))
        cache = pass_dir / "cache"
        cache.mkdir()
        outcomes, traces = [], []
        for i, cmd in enumerate(self.cmds):
            trace_file = pass_dir / f"trace-{i}.json" if trace else None
            outcomes.append(harness.run_command(cmd, cwd=pass_dir, cache_dir=cache,
                                                deadline=self.deadline,
                                                trace_file=trace_file))
            if calibrate:
                self.calibrate(outcomes[-1].wall_s)
            if trace_file is not None and trace_file.exists():
                traces.append(dict(tracer.read_trace(trace_file), command=i))
        outputs = [harness.normalized(o.stdout, cache) for o in outcomes]
        for i, (cmd, outcome) in enumerate(zip(self.cmds, outcomes)):
            self.attempted += 1
            why = harness.check(cmd, outcome, cache, self.expect)
            if not why and self.first_outputs is not None \
                    and outputs[i] != self.first_outputs[i]:
                why = "output changed between passes"
            if why:
                self._fail(outcome, why)
        if self.first_outputs is None:
            self.first_outputs = outputs
        self.log["passes"].append({"traced": trace,
                                   "commands": [o.summary() for o in outcomes]})
        shutil.rmtree(pass_dir, ignore_errors=True)
        return outcomes, traces

    def time_left(self, need: float) -> bool:
        return time.monotonic() + need < self.deadline


def _repeat(seconds: float, run: Run, step) -> None:
    """Call step() at least once, and again while another call is expected
    to end within seconds of the first and before the run's deadline."""
    t0 = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)
        elapsed, need = time.perf_counter() - t0, statistics.median(took)
        if elapsed + need > seconds or not run.time_left(need):
            return


def run_end_to_end(run: Run, seconds: float) -> dict:
    """wall_s is the wall time of one pass: the commands' total wall time
    over the run divided by the number of passes, scaled by run.scale().
    A mean, not a median, because the calibration ran for a fixed share
    of that same total time; in four sets of five to ten verify_default
    runs the mean's spread was the lower in each.  The unscaled value
    goes to the record's log.  setup_s is not scaled: its probes are
    short, and scaling them by the speed of the whole run made their
    spread wider."""
    setup = [run.setup_once() for _ in range(SETUP_REPEATS)]
    passes = []
    _repeat(seconds, run, lambda: passes.append(run.one_pass(calibrate=True)[0]))
    wall = sum(o.wall_s for outcomes in passes for o in outcomes) / len(passes)
    rss = statistics.median(max(o.maxrss_kb for o in outcomes) for outcomes in passes)
    run.log["unscaled_wall_s"] = wall
    return {"wall_s": {"value": wall * run.scale(), "unit": "s"},
            "peak_rss_mb": {"value": rss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"}}


def run_traced(run: Run, seconds: float, trace_out: Path) -> dict:
    """Untraced and traced passes in turn; per-layer values are medians
    over the pairs."""
    samples, spans = [], []

    def pair():
        plain, _ = run.one_pass()
        traced, traces = run.one_pass(trace=True)
        samples.append(tracer.per_layer_metrics(traces, plain, traced))
        for tr in traces:
            spans.extend((len(samples), tr["command"], *span) for span in tr["spans"])

    _repeat(seconds, run, pair)
    with open(trace_out, "w") as fh:
        fh.write("pair\tcommand\tspan\tparent\tname\tstart\tend\n")
        for span in spans:
            fh.write("\t".join(map(str, span)) + "\n")
    return tracer.median_metrics(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 results: Path) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    run = Run(workload, seed, work, time.monotonic() + RUN_DEADLINE_S)
    try:
        if trace:
            trace_out = WORK_DIR / f"spans-{workload}-seed{seed}.tsv"
            metrics = run_traced(run, seconds, trace_out)
        else:
            metrics = run_end_to_end(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "params": run.params,
              "commands": [c.key for c in run.cmds],
              "correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "failures": run.failures,
              "metrics": metrics, "python": platform.python_version(),
              "time": time.strftime("%Y-%m-%dT%H:%M:%S"), **run.log}
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def _print_human(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"params {json.dumps(record['params'])}")
    codes = [[c["exit_code"] for c in p["commands"]] for p in record["passes"]]
    print(f"  exit codes by pass {json.dumps(codes)}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    ratio = record["failed"] / record["attempted"]
    print(f"  failed_ratio {ratio:.4f} ({record['failed']}/{record['attempted']})")
    if "unscaled_wall_s" in record:
        chunks = sum(c for c, _ in record["calibration"])
        chunk_s = sum(s for _, s in record["calibration"]) / chunks
        print(f"  unscaled wall_s {record['unscaled_wall_s']:.6g} s; calibration "
              f"{chunks} chunks of {chunk_s:.4g} s")
    for name, m in record["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (default: 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=WORK_DIR / "results.jsonl",
                        help="append the full record of each run here")
    args = parser.parse_args(argv)
    missing = [p for p in (harness.SRC / "qrel" / "cli.py", harness.DIGESTS)
               if not p.is_file()]
    if missing:
        print(f"run.py: missing {', '.join(map(str, missing))}; run from the "
              "root of a qrel checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        records = [run_workload(w, args.seed, args.seconds, False, args.results)
                   for w in WORKLOADS]
        print(f"{'workload':<16} {'setup_s [s]':>12} {'wall_s [s]':>11} "
              f"{'peak_rss_mb [MB]':>17} {'failed_ratio [1]':>17}")
        for r in records:
            m = r["metrics"]
            print(f"{r['workload']:<16} {m['setup_s']['value']:>12.4f} "
                  f"{m['wall_s']['value']:>11.3f} {m['peak_rss_mb']['value']:>17.2f} "
                  f"{r['failed'] / r['attempted']:>17.4f}")
        for r in records:
            for failure in r["failures"]:
                print(f"FAILED {r['workload']}: {failure}")
        return 0 if all(r["correct"] for r in records) else 1
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.results)
    _print_human(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
