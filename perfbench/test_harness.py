"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/test_harness.py

Run from the root of a qrel checkout.  It checks that seeds are
reproducible and covered by digests.json, that the correctness gate
rejects perturbed, mis-ranged and vacuous outputs, that a hung command is
killed and counted as a failure, that times are scaled by the mean
calibration chunk, and that a traced command prints what the untraced
one prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (ST_POOL, WORKLOADS, Command, commands,  # noqa: E402
                       reachable_commands, series, verify)

SEED0 = {
    "verify_default": ["verify-all --json"],
    "classnum_scaled": ["hurwitz --max 16000", "verify eichler --max 8000 --json",
                        "verify cohen --max 8000 --json",
                        "verify kronecker_hurwitz --max 4000 --json"],
    "qseries_dense": ["series --name Delta --terms 3000 --format csv",
                      "series --name eta2_12 --terms 8000 --format csv",
                      "verify cor_i --max 3000 --json",
                      "verify trace4_nu2 --max 3001 --json"],
    "indef_pell": ["series --name lambda:1:73:1:1:0 --terms 10 --format csv",
                   "series --name lambda:1:53:1:1:0 --terms 60 --format csv",
                   "series --name delta:1:53:-4:-4:1 --terms 60 --format csv",
                   "series --name lambda:1:13:5:5:2 --terms 1500 --format csv"],
}


class TempDirCase(unittest.TestCase):
    def setUp(self):
        harness.BENCH_DIR.joinpath(".work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=harness.BENCH_DIR / ".work"))
        self.cache = self.work / "cache"
        self.cache.mkdir()

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_cmd(self, cmd: Command, seconds: float = 60.0, trace_file=None):
        return harness.run_command(cmd, cwd=self.work, cache_dir=self.cache,
                                   deadline=time.monotonic() + seconds,
                                   trace_file=trace_file)


class Seeds(unittest.TestCase):
    def test_seed_zero_is_the_reference_workload(self):
        for workload, keys in SEED0.items():
            self.assertEqual([c.key for c in commands(workload, 0)[0]], keys)

    def test_same_seed_same_commands(self):
        for workload in WORKLOADS:
            for seed in (1, 7, 12345):
                self.assertEqual(commands(workload, seed), commands(workload, seed))

    def test_draws_stay_in_range(self):
        for seed in range(1, 60):
            shifts = commands("classnum_scaled", seed)[1]["shift_percent"]
            self.assertTrue(all(-5 <= k <= 5 for k in shifts))
            st = commands("indef_pell", seed)[1]["st"]
            self.assertTrue(set(st) <= set(ST_POOL))
            self.assertFalse({61, 109} & set(st))

    def test_every_reachable_output_has_a_digest(self):
        digests = harness.load_expectations()["digests"]
        reachable = {c.key for c in reachable_commands()}
        self.assertEqual(reachable, set(digests))
        for workload in WORKLOADS:
            for seed in range(200):
                for c in commands(workload, seed)[0]:
                    if c.kind in ("series", "hurwitz"):
                        self.assertIn(c.key, reachable)

    def test_benchmark_json_names_the_harness_metrics(self):
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracer.PER_LAYER))


class Gate(TempDirCase):
    def test_perturbed_series_output_fails(self):
        cmd = series("H", 4)
        out = self.run_cmd(cmd)
        expect = {"digests": {cmd.key: harness.sha256(out.stdout)}, "default_ranges": {}}
        self.assertEqual(harness.check(cmd, out, self.cache, expect), "")
        out.stdout = out.stdout.replace(b"1,3", b"1,4", 1)
        self.assertIn("digest", harness.check(cmd, out, self.cache, expect))

    def test_unrecorded_series_fails(self):
        cmd = series("H", 4)
        out = self.run_cmd(cmd)
        expect = {"digests": {}, "default_ranges": {}}
        self.assertIn("no recorded digest", harness.check(cmd, out, self.cache, expect))

    def test_verify_range_and_status(self):
        cmd = verify("eichler", 101)
        out = self.run_cmd(cmd)
        expect = harness.load_expectations()
        self.assertEqual(harness.check(cmd, out, self.cache, expect), "")
        report = json.loads(out.stdout)
        for bad in ({"range": [1, 2000]}, {"range": [1, -5]}, {"status": "partial"},
                    {"relation": "cohen"}):
            out.stdout = json.dumps({**report, **bad}).encode()
            self.assertNotEqual(harness.check(cmd, out, self.cache, expect), "", bad)

    def test_nonzero_exit_fails(self):
        cmd = series("no_such_series", 4)
        out = self.run_cmd(cmd)
        self.assertEqual(out.exit_code, 1)
        self.assertIn("exit code 1", harness.check(cmd, out, self.cache, {}))

    def test_timing_fields_are_normalized(self):
        a = b'{"elapsed_ms": 12, "x": "%s/hurwitz.csv"}' % str(self.cache).encode()
        b = b'{"elapsed_ms": 345, "x": "$QREL_CACHE_DIR/hurwitz.csv"}'
        self.assertEqual(harness.normalized(a, self.cache),
                         harness.normalized(b, self.cache))


class Timeout(TempDirCase):
    def test_hang_is_killed_and_counted(self):
        # pell_orbit scans ~2.3e8 values of n at st = 61; this does not end
        # on its own within minutes.
        cmd = series("lambda:1:61:1:1:0", 3)
        t0 = time.monotonic()
        out = self.run_cmd(cmd, seconds=1.0)
        self.assertLess(time.monotonic() - t0, 10)
        self.assertIsNone(out.exit_code)
        self.assertIn("timeout", harness.check(cmd, out, self.cache, {"digests": {}}))

    def test_passed_deadline_starts_nothing(self):
        out = self.run_cmd(series("H", 4), seconds=-1.0)
        self.assertIsNone(out.exit_code)
        self.assertIn("deadline", out.failure)


class Calibration(unittest.TestCase):
    def test_times_are_scaled_by_the_mean_calibration_chunk(self):
        r = run.Run("verify_default", 0, Path("."), time.monotonic() + 60)
        r.calibrate(0.0)
        self.assertEqual(r.log["calibration"][0][0], 1)
        nominal = run.CALIBRATION_NOMINAL_S
        r.log["calibration"] = [[10, 30 * nominal], [30, 50 * nominal]]
        self.assertEqual(r.scale(), 0.5)


class Traced(TempDirCase):
    def test_traced_output_matches_and_self_times_add_up(self):
        cmd = verify("eichler", 301)
        plain = self.run_cmd(cmd)
        trace_file = self.work / "trace.json"
        traced = self.run_cmd(cmd, trace_file=trace_file)
        self.assertEqual(harness.normalized(plain.stdout, self.cache),
                         harness.normalized(traced.stdout, self.cache))
        tr = tracer.read_trace(trace_file)
        self.assertIn("relations.sigma_k", tr["patched"]["arith.sigma_k"])
        self.assertIn("cli.hurwitz_cache", tr["patched"]["arith.hurwitz_cache"])
        ids = {span[0] for span in tr["spans"]}
        self.assertTrue(all(span[1] == 0 or span[1] in ids for span in tr["spans"]))
        self.assertGreater(tr["stats"]["relations.eichler"]["extra"], 0)
        metrics = tracer.per_layer_metrics([tr], [plain], [traced])
        self.assertEqual([*metrics], [name for name, _, _ in tracer.PER_LAYER])
        self.assertGreater(metrics["arith.hurwitz_get.calls"]["value"], 0)
        # What the module self times leave out is interpreter start-up and
        # exit, tens of milliseconds.
        accounted = metrics["trace.accounted_ratio"]["value"] * traced.wall_s
        self.assertLessEqual(accounted, traced.wall_s)
        self.assertLess(traced.wall_s - accounted, 0.5)


if __name__ == "__main__":
    unittest.main()
