"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

A seconds-long tiny-scale run of every workload (inc4, a short trace,
width 0.02), untraced and traced, must emit every metric BENCHMARK.json
names with its unit and pass every oracle; and the compare mode must flag
exactly one pair as worse when one workload's wall_s is made 20% slower in
a copy of a recorded result set.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402

SPEC = json.load(open("BENCHMARK.json"))
RECORDED = os.path.join(HERE, "testdata", "recorded.jsonl")


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    if r.returncode != 0:
        raise AssertionError("%s trace %d exited %d:\n%s" % (workload, trace, r.returncode, r.stderr))
    return json.loads(r.stdout.strip().splitlines()[-1])


class TinyRun(unittest.TestCase):
    def check(self, trace, names):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                r = run(w["name"], trace)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r["metrics"]), {m["name"] for m in names})
                for m in names:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))
                    if not trace:
                        self.assertGreater(got["value"], 0, m["name"])

    def test_untraced_emits_every_end_to_end_metric(self):
        self.check(0, SPEC["end_to_end"])

    def test_traced_emits_every_per_layer_metric(self):
        self.check(1, SPEC["per_layer"])


class Compare(unittest.TestCase):
    def test_twenty_percent_slower_wall_is_flagged(self):
        with open(RECORDED) as f:
            rows = [json.loads(l) for l in f if l.strip()]
        slowed = rows[0]["workload"]
        with tempfile.TemporaryDirectory() as d:
            new = os.path.join(d, "new.jsonl")
            with open(new, "w") as f:
                for r in rows:
                    if r["workload"] == slowed:
                        r["metrics"]["wall_s"]["value"] *= 1.2
                    f.write(json.dumps(r) + "\n")
            old, new = compare.load(RECORDED), compare.load(new)
        worse = []
        for w in SPEC["workloads"]:
            for m in SPEC["end_to_end"]:
                key = (w["name"], m["name"])
                if key in old and compare.verdict(old[key], new[key], m["better"], m["bound"]) == "worse":
                    worse.append(key)
        self.assertEqual(worse, [(slowed, "wall_s")])


if __name__ == "__main__":
    unittest.main()
