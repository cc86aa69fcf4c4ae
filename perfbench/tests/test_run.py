"""Tests of run.py's result-format check (python3 -m unittest, from perfbench/)."""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

EXPECTED = {"latency_ms": "ms", "setup_s": "s"}


def line(**over):
    r = {"correct": True, "attempted": 1000, "failed": 0,
         "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"},
                     "setup_s": {"value": 0.8127, "unit": "s"}}}
    r.update(over)
    return json.dumps(r)


class CheckResult(unittest.TestCase):
    def test_accepts_a_well_formed_line(self):
        r = run.check_result(line(), EXPECTED)
        self.assertEqual(r["metrics"]["setup_s"]["value"], 0.8127)

    def test_rejects_extra_or_missing_keys(self):
        with self.assertRaises(ValueError):
            run.check_result(json.dumps({"correct": True, "attempted": 1, "failed": 0}), EXPECTED)
        bad = json.loads(line())
        bad["note"] = "x"
        with self.assertRaises(ValueError):
            run.check_result(json.dumps(bad), EXPECTED)

    def test_rejects_zero_attempts_and_non_integers(self):
        for over in ({"attempted": 0}, {"attempted": 1.5}, {"failed": True}, {"correct": 1}):
            with self.assertRaises(ValueError, msg=over):
                run.check_result(line(**over), EXPECTED)

    def test_metric_names_units_and_values_must_match(self):
        with self.assertRaises(ValueError):
            run.check_result(line(metrics={"latency_ms": {"value": 1, "unit": "ms"}}), EXPECTED)
        with self.assertRaises(ValueError):
            run.check_result(line(metrics={"latency_ms": {"value": 1, "unit": "s"},
                                           "setup_s": {"value": 1, "unit": "s"}}), EXPECTED)
        with self.assertRaises(ValueError):
            run.check_result(line(metrics={"latency_ms": {"value": None, "unit": "ms"},
                                           "setup_s": {"value": 1, "unit": "s"}}), EXPECTED)

    def test_rejects_non_json(self):
        with self.assertRaises(ValueError):
            run.check_result("perfbench: done", EXPECTED)

    def test_expected_metrics_follow_the_trace_flag(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertIn("setup_s", run.expected_metrics(spec, 0))
        self.assertIn("hwsim.accesses_per_lookup", run.expected_metrics(spec, 1))


if __name__ == "__main__":
    unittest.main()
