#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the EMI design flow.

One run (the form a harness drives):

    python3 emibench/run.py --workload design-flow --seed 7 --seconds 20 --trace 0

builds emibench/ (CMake, into .bench_build/emibench) from the sources in
this checkout, runs one workload in one process, checks its outputs and
prints every metric by name with its unit on stderr. The last line of
stdout is one JSON object with exactly the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (which also writes a Chrome trace to .bench_build/traces/).
Each run is appended, with its provenance, to .bench_build/results/runs.jsonl.

Every workload, untraced and traced, into one result set:

    python3 emibench/run.py --all [--seeds 1,2,3] [--seconds 20]

prints the median and quartiles of every metric per workload, the failed
ratio and the tracing overhead, and writes the result set that
emibench/compare.py reads to .bench_build/results/set-<timestamp>.json.

Run from the root of a source checkout. Every file it writes stays inside
that checkout; outside it, it reads only the cgroup CPU quota for the
provenance.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "emibench")
BINARY = os.path.join(BUILD_DIR, "emibench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then an incremental build; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("emibench: no program sources (src/CMakeLists.txt) in this checkout")
        sys.exit(2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "emibench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("emibench: build step failed: " + " ".join(cmd))
            sys.exit(proc.returncode or 1)


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def cgroup_cpu_quota():
    """CPU quota of this cgroup in CPUs (v2 cpu.max or v1 cfs), if set and readable."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
            quota = int(f.read())
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
            period = int(f.read())
        return None if quota < 0 else quota / period
    except (OSError, ValueError):
        return None


def provenance(info):
    flags = info.get("cxx_flags", "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "cxx_flags": flags.strip(),
        "sanitizer": info.get("sanitizer"),
        "werror": "-Werror" in flags,
        "git_commit": git_commit(),
        "python": platform.python_version(),
    }


def run_one(workload, seed, seconds, trace):
    """Run the binary once; returns its record (dict) or None on failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD_ROOT, "traces",
                                  "%s-seed%d.json" % (workload, seed))
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("emibench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("emibench: %s exited with %d" % (workload, proc.returncode))
        return None
    rec = json.loads(lines[-1])
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
               trace_file=trace_path, provenance=provenance(rec.get("info", {})))
    return rec


def append_run(rec):
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "results", "runs.jsonl"), "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")


def print_record(rec):
    ratio = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    log("%s seed=%d trace=%d: correct=%s attempted=%d failed=%d failed_ratio=%g"
        % (rec["workload"], rec["seed"], rec["trace"], rec["correct"],
           rec["attempted"], rec["failed"], ratio))
    for name, m in rec["metrics"].items():
        log("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))


def contract_line(rec):
    return json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")})


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args, spec):
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    ok = True
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            for seed in seeds:
                rec = run_one(wl, seed, args.seconds, trace)
                if rec is None:
                    return 1
                append_run(rec)
                print_record(rec)
                ok = ok and rec["correct"] and rec["failed"] == 0
                runs.append(rec)
    prov = dict(runs[0]["provenance"])
    result_set = {
        "schema": "emibench-results/1",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "provenance": prov,
        "seconds": args.seconds,
        "seeds": seeds,
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "runs": runs,
    }
    out = os.path.join(BUILD_ROOT, "results",
                       "set-%s.json" % datetime.datetime.now().strftime("%Y%m%d-%H%M%S"))
    with open(out, "w") as f:
        json.dump(result_set, f, indent=1, sort_keys=True)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("%-12s %-34s %-6s %14s %14s %14s" % ("workload", "metric", "unit", "q1",
                                              "median", "q3"))
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            sel = [r for r in runs if r["workload"] == wl and r["trace"] == trace]
            for name, m in sel[0]["metrics"].items():
                q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in sel])
                print("%-12s %-34s %-6s %14.6g %14.6g %14.6g"
                      % (wl, name, m["unit"], q1, q2, q3))
            if trace == 0:
                att = sum(r["attempted"] for r in sel)
                fail = sum(r["failed"] for r in sel)
                print("%-12s %-34s %-6s %14s %14.6g %14s"
                      % (wl, "failed_ratio", "-", "", fail / att, ""))
        untraced = [r["end_to_end"]["latency_p50_ms"]["value"] for r in runs
                    if r["workload"] == wl and r["trace"] == 0]
        traced = [r["end_to_end"]["latency_p50_ms"]["value"] for r in runs
                  if r["workload"] == wl and r["trace"] == 1]
        print("%-12s %-34s %-6s %14s %14.6g %14s"
              % (wl, "trace_overhead_p50_ms", "ms", "",
                 statistics.median(traced) - statistics.median(untraced), ""))
    print("result set: " + out)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--seeds", default="1,2,3",
                    help="comma-separated seeds for --all (compare.py needs at least 3)")
    args = ap.parse_args()

    os.chdir(ROOT)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    build()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.all:
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %r" % args.workload)
    rec = run_one(args.workload, args.seed, args.seconds, args.trace == 1)
    if rec is None:
        return 1
    append_run(rec)
    print_record(rec)
    print(contract_line(rec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
