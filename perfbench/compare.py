"""Compare two recorded result sets (JSONL written by run.py --record).

For each workload x end-to-end metric it prints the median and quartiles of
each side and a verdict, using the bounds in BENCHMARK.json:

  worse       the new median is worse than the old by more than the bound,
              and the spread of both sides is within the bound (or every new
              run reads worse than every old run)
  better      the new side wins at least 9 of 10 index-aligned pairs (ties
              count for neither) and the medians differ by more than the old
              side's own interquartile distance
  unresolved  anything else
"""

import json
import statistics


def load(path):
    """{(workload, metric): [values in run order]} over untraced runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if r.get("trace"):
                continue
            for name, m in r["metrics"].items():
                runs.setdefault((r["workload"], name), []).append(m["value"])
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(old, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0  # positive = new is worse
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    spread = max((o3 - o1) / abs(om) if om else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    worse_by = sign * (nm - om) / abs(om) if om else 0.0
    all_worse = all(sign * (n - o) > 0 for n in new for o in old)
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -sign * (nm - om) > (o3 - o1):
        return "better"
    return "unresolved"


def main(spec, old_path, new_path):
    old, new = load(old_path), load(new_path)
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-15s %-12s %-40s %-40s %s" % ("workload", "metric", "old q1/median/q3",
                                           "new q1/median/q3", "verdict"))
    flagged = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in old or key not in new:
                continue
            v = verdict(old[key], new[key], m["better"], m["bound"])
            flagged += v == "worse"
            fmt = lambda xs: "%.4g/%.4g/%.4g (n=%d)" % (quartiles(xs) + (len(xs),))
            print("%-15s %-12s %-40s %-40s %s" % (w, m["name"], fmt(old[key]), fmt(new[key]), v))
    return 1 if flagged else 0
