"""Running qrel CLI commands as child processes, and the correctness gate.

Each command runs in its own process with PYTHONPATH pointing at the
checkout's src/ and QREL_CACHE_DIR at a fresh directory, started by
launch.py, which reports its wall time, CPU time and peak RSS.  The
launcher kills and reaps a command that outlives its timeout, so a hang
is a failure, not a stalled run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launch.py"
DIGESTS = BENCH_DIR / "digests.json"

COMMAND_TIMEOUT_S = 60.0
LAUNCHER_GRACE_S = 10.0
_ELAPSED = re.compile(rb'"elapsed_ms": \d+')


@dataclass
class Outcome:
    """What one command did.  exit_code is None when it was killed at its
    timeout or never started because the run's deadline had passed."""

    key: str
    exit_code: int | None
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    artifact: bytes = b""   # the Hurwitz CSV a "hurwitz" command wrote
    failure: str = ""       # empty when the command passed the gate

    def summary(self) -> dict:
        return {"command": self.key, "exit_code": self.exit_code,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "maxrss_kb": self.maxrss_kb, "failure": self.failure}


def spawn(argv: list[str], *, cwd: Path, cache_dir: Path, timeout: float,
          key: str) -> Outcome:
    """Run argv through launch.py, which kills it after timeout seconds,
    with stdout captured.  The wall time is the launcher's, from spawn to
    exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC), QREL_CACHE_DIR=str(cache_dir))
    if timeout <= 0:
        return Outcome(key, None, 0.0, 0.0, 0, b"", failure="run deadline passed")
    with tempfile.TemporaryDirectory(dir=cwd) as tmp, \
            open(Path(tmp) / "stdout", "w+b") as out:
        report = Path(tmp) / "launch"
        proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(LAUNCHER), repr(timeout), str(report),
             "--", *argv],
            stdout=out, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
            cwd=cwd, env=env, start_new_session=True)
        try:
            proc.wait(timeout + LAUNCHER_GRACE_S)
        except BaseException as exc:
            # Not reaped yet, so the group id is still the launcher's.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
        out.seek(0)
        stdout = out.read()
        try:
            code, wall, cpu, rss = report.read_text().split()
        except (OSError, ValueError):
            return Outcome(key, None, 0.0, 0.0, 0, stdout,
                           failure=f"launcher failed (exit code {proc.returncode})")
    if code == "timeout":
        return Outcome(key, None, float(wall), float(cpu), int(rss), stdout,
                       failure=f"timeout after {timeout:.1f} s")
    return Outcome(key, int(code), float(wall), float(cpu), int(rss), stdout)


def cli_argv(args: tuple[str, ...], trace_file: Path | None = None) -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "qrel.cli", *args]
    return [sys.executable, str(TRACER), str(trace_file), "--", *args]


def run_command(cmd: Command, *, cwd: Path, cache_dir: Path, deadline: float,
                trace_file: Path | None = None) -> Outcome:
    timeout = min(COMMAND_TIMEOUT_S, deadline - time.monotonic())
    outcome = spawn(cli_argv(cmd.args, trace_file), cwd=cwd, cache_dir=cache_dir,
                    timeout=timeout, key=cmd.key)
    if cmd.kind == "hurwitz":
        try:
            outcome.artifact = (cache_dir / "hurwitz.csv").read_bytes()
        except OSError:
            outcome.artifact = b""
    return outcome


# ---------------------------------------------------------------------------
# Correctness gate


def load_expectations(path: Path = DIGESTS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalized(stdout: bytes, cache_dir: Path) -> bytes:
    """Output with timing fields and the per-pass cache path taken out;
    this must not change from pass to pass."""
    return _ELAPSED.sub(b'"elapsed_ms": -', stdout).replace(
        str(cache_dir).encode(), b"$QREL_CACHE_DIR")


def _check_report(report, relation: str, want_range: list[int]) -> str:
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if report.get("relation") != relation:
        return f"report names relation {report.get('relation')!r}, wanted {relation!r}"
    if report.get("status") != "pass":
        return f"{relation}: status {report.get('status')!r}"
    if report.get("range") != want_range or want_range[0] > want_range[1]:
        return f"{relation}: range {report.get('range')} instead of {want_range}"
    return ""


def check(cmd: Command, outcome: Outcome, cache_dir: Path, expect: dict) -> str:
    """Why the command's result is wrong, or "" when it is right."""
    if outcome.failure:
        return outcome.failure
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}"
    if cmd.kind in ("series", "hurwitz"):
        want = expect["digests"].get(cmd.key)
        if want is None:
            return "no recorded digest for this command"
        if cmd.kind == "hurwitz":
            if outcome.stdout != f"{cache_dir / 'hurwitz.csv'}\n".encode():
                return "hurwitz did not print the cache path"
            got = sha256(outcome.artifact)
        else:
            got = sha256(outcome.stdout)
        return "" if got == want else "output differs from the recorded digest"
    try:
        parsed = json.loads(outcome.stdout)
    except ValueError:
        return "output is not JSON"
    ranges = expect["default_ranges"]
    if cmd.kind == "verify":
        relation, max_n = cmd.args[1], int(cmd.args[3])
        return _check_report(parsed, relation, [ranges[relation][0], max_n])
    if cmd.kind == "verify_all":
        if not isinstance(parsed, list) or len(parsed) != len(ranges):
            return "verify-all did not report every relation once"
        for report, (relation, want) in zip(parsed, ranges.items()):
            failure = _check_report(report, relation, want)
            if failure:
                return failure
        return ""
    raise ValueError(f"unknown command kind {cmd.kind!r}")


def check_help(outcome: Outcome) -> str:
    if outcome.failure:
        return outcome.failure
    if outcome.exit_code != 0 or not outcome.stdout.startswith(b"usage: qrel"):
        return f"qrel --help failed (exit code {outcome.exit_code})"
    return ""
