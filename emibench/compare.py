#!/usr/bin/env python3
"""Compare two emibench result sets, workload by workload.

    python3 emibench/compare.py BASE.json NEW.json

Each input is a result set written by `run.py --all` or a runs.jsonl of
single-run records. For every workload x end-to-end metric named in
BENCHMARK.json it prints both sides' median and quartiles (untraced runs
only) and the move of the median in the metric's worse direction, as a
share of the base median. A move beyond the metric's bound is flagged
REGRESSION (or IMPROVED the other way). A metric is marked unresolved
instead when either side has fewer than MIN_RUNS untraced runs or a
quartile spread (q3 - q1 over the median) wider than the metric's bound:
then the noise is not known to be smaller than the move.

Exit status: 0 when nothing regressed, 1 when a metric regressed or a
workload or metric is missing from either set.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fewest untraced runs per side for a verdict: with fewer, the quartiles
# say nothing about run-to-run spread.
MIN_RUNS = 3


def load_runs(path):
    with open(path) as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"runs"' in text:
        try:
            return json.loads(text)["runs"]
        except json.JSONDecodeError:
            pass
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def values(runs, workload, metric):
    out = []
    for r in runs:
        if r.get("workload") != workload or r.get("trace", 0) != 0:
            continue
        m = r.get("metrics", {}).get(metric)
        if m is not None:
            out.append(float(m["value"]))
    return out


def summary(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(q1, q2, q3):
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = load_runs(args.base)
    new = load_runs(args.new)

    missing = []
    regressed = []
    print("%-12s %-18s %-5s %11s %11s %11s | %11s %11s %11s %8s  %s"
          % ("workload", "metric", "unit", "base q1", "median", "q3",
             "new q1", "median", "q3", "move", "verdict"))
    for wl in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = values(base, wl, name), values(new, wl, name)
            if not a or not b:
                side = "base" if not a else "new"
                missing.append("%s/%s missing from %s" % (wl, name, side))
                continue
            a1, a2, a3 = summary(a)
            b1, b2, b3 = summary(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            move = sign * (b2 - a2) / a2 if a2 else float("inf")
            worst = max(spread(a1, a2, a3), spread(b1, b2, b3))
            if min(len(a), len(b)) < MIN_RUNS:
                verdict = "unresolved (%d/%d runs < %d)" % (len(a), len(b), MIN_RUNS)
            elif worst > bound:
                verdict = "unresolved (spread %.3f > bound %.3f)" % (worst, bound)
            elif move > bound:
                verdict = "REGRESSION (bound %.3f)" % bound
                regressed.append("%s/%s" % (wl, name))
            elif move < -bound:
                verdict = "IMPROVED (bound %.3f)" % bound
            else:
                verdict = "within bound %.3f" % bound
            print("%-12s %-18s %-5s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g %+8.3f  %s"
                  % (wl, name, m["unit"], a1, a2, a3, b1, b2, b3, move, verdict))
    for msg in missing:
        print("MISSING: " + msg)
    if regressed:
        print("regressed: " + ", ".join(regressed))
    return 1 if missing or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
