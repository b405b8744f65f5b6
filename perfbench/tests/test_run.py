"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench/tests

The forced-rejection test builds and runs perfbench_driver (as run.py
does); the others are pure Python.
"""

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402


def campaign_op(seed, csv_text="point,metric\n0,1\n", json_text='{"a":1}'):
    return {"cls": "campaign", "preset": "fig3-imd-timing", "seed": seed,
            "trials": 180, "chunk_size": 1, "trial_count": 180,
            "wall_ms": 50.0 + seed, "end_ms": 50.0 * seed, "traced": False,
            "outcome": "ok", "detail": "", "bytes": 0,
            "csv": csv_text, "json": json_text}


def document(ops, workload="fig3-sharded"):
    return {"stamp": {}, "workload": workload, "seed": 1, "trace": 0,
            "window_s": 10.0, "pool_wraps": 0, "fd_capped": False,
            "peak_rss_kb": 4096,
            "setup_s": [0.01, 0.02, 0.03], "layers": {}, "ops": ops}


def golden_for(ops):
    golden = {}
    for op in ops:
        key = run.golden_key(op["preset"], op["trials"], op["chunk_size"])
        csv_text, json_text = run.op_reports(op)
        golden.setdefault(key, {})[str(op["seed"])] = run.report_digest(
            csv_text, json_text)
    return golden


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_p90_needs_one_hundred_operations(self):
        ops = [campaign_op(s) for s in range(1, 100)]
        with self.assertRaises(run.BenchError):
            run.summarize(document(ops), golden_for(ops))
        ops.append(campaign_op(100))
        result, _ = run.summarize(document(ops), golden_for(ops))
        self.assertTrue(result["correct"])


class GoldenCheck(unittest.TestCase):
    def test_single_flipped_report_byte_fails_the_run(self):
        ops = [campaign_op(s) for s in range(1, 101)]
        golden = golden_for(ops)
        for field in ("csv", "json"):
            for position in (0, 5):
                mutated = copy.deepcopy(ops)
                text = mutated[41][field]
                flipped = chr(ord(text[position]) ^ 0x01)
                mutated[41][field] = text[:position] + flipped + text[position + 1:]
                result, lines = run.summarize(document(mutated), golden)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertTrue(any("differ" in line for line in lines))

    def test_service_report_frame_is_checked(self):
        op = campaign_op(3)
        golden = golden_for([op])
        frame = {"type": "report", "id": 1, "csv": op.pop("csv"),
                 "json": op.pop("json")}
        op["report_frame"] = json.dumps(frame, separators=(",", ":"))
        self.assertIsNone(run.check_op(op, golden))
        frame["csv"] = frame["csv"].replace("1", "2", 1)
        op["report_frame"] = json.dumps(frame)
        self.assertIn("differ", run.check_op(op, golden))

    def test_unknown_seed_has_no_reference(self):
        op = campaign_op(3)
        self.assertIn("no serial reference", run.check_op(op, {}))


class Refusal(unittest.TestCase):
    STAMP = {"build_type": "Release", "sanitize": "OFF", "native": "OFF",
             "ndebug": True}

    def test_release_build_is_accepted(self):
        self.assertIsNone(run.refusal(self.STAMP))

    def test_other_flavors_are_refused(self):
        for field, value in (("build_type", "Debug"),
                             ("build_type", "RelWithDebInfo"),
                             ("sanitize", "address"), ("sanitize", "thread"),
                             ("native", "ON"), ("ndebug", False)):
            stamp = dict(self.STAMP, **{field: value})
            self.assertIsNotNone(run.refusal(stamp), (field, value))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in spec[key]],
                table)


class ErrorRate(unittest.TestCase):
    def test_rejected_frame_counts_as_failed(self):
        ops = [campaign_op(s) for s in range(1, 102)]
        golden = golden_for(ops)
        ops[7].update(outcome="rejected", detail='{"type":"rejected"}')
        result, lines = run.summarize(document(ops), golden)
        self.assertEqual((result["attempted"], result["failed"]), (101, 1))
        self.assertFalse(result["correct"])
        self.assertTrue(any("error_rate 0.0099" in line for line in lines))

    def test_reused_seed_fails_the_run(self):
        # A seed drawn twice could be served from a warm cache; the driver
        # reports a wrapped pool as a failed check.
        ops = [campaign_op(s) for s in range(1, 101)]
        golden = golden_for(ops)
        ops.append({"cls": "check", "outcome": "pool_wrap",
                    "detail": "1 pool(s) ran out of seeds"})
        result, _ = run.summarize(document(ops), golden)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])

    def test_benchmark_command_takes_no_driver_flags(self):
        with self.assertRaises(SystemExit), \
                contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "serve-mixed",
                      "--serve-max-active", "1"])

    def test_forced_rejection_by_the_service(self):
        # One active request and no queue: a closed-loop client that
        # submits while another client's request runs is refused.
        driver = run.build(run.build_dir())
        args = type("Args", (), {
            "workload": "serve-mixed", "seed": 5, "seconds": 2, "trace": 0})
        doc = run.run_driver(driver, args, run.build_dir() / "out",
                             ["--serve-max-active", "1",
                              "--serve-max-queue", "0"])
        golden = json.loads(run.GOLDEN.read_text())
        rejected = sum(op["outcome"] == "rejected" for op in doc["ops"])
        self.assertGreater(rejected, 0)
        result, _ = run.summarize(doc, golden)
        self.assertEqual(result["failed"], rejected)
        self.assertEqual(result["attempted"], len(doc["ops"]))
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
