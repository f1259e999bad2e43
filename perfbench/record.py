"""Record the outputs the correctness gate compares against.

    python3 perfbench/record.py

Runs every series and hurwitz command any seed can produce, plus
verify-all at its default ranges, on the code in src/ and writes
digests.json: the SHA-256 of each series output and of each Hurwitz CSV,
and the range each relation reports by default.  Run it only on code whose
output is known to be right (the committed file comes from qrel 1.0.0);
a change that alters CLI output fails the gate until this is re-run.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import harness
from workloads import VERIFY_ALL, reachable_commands


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="record-", dir=harness.BENCH_DIR))
    digests, ranges = {}, {}
    try:
        for cmd in [VERIFY_ALL] + reachable_commands():
            cache = Path(tempfile.mkdtemp(dir=work))
            out = harness.run_command(cmd, cwd=work, cache_dir=cache,
                                      deadline=time.monotonic() + 600)
            if out.exit_code != 0:
                print(f"{cmd.key}: exit code {out.exit_code}", file=sys.stderr)
                return 1
            if cmd is VERIFY_ALL:
                ranges = {r["relation"]: r["range"] for r in json.loads(out.stdout)}
            else:
                data = out.artifact if cmd.kind == "hurwitz" else out.stdout
                digests[cmd.key] = harness.sha256(data)
            print(f"{out.wall_s:7.2f} s  {cmd.key}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(harness.DIGESTS, "w") as fh:
        json.dump({"default_ranges": ranges, "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
