#!/usr/bin/env python3
"""Builds and runs the dgsim benchmark (see perfbench/README.md).

One workload, one process; the last line of stdout is the JSON result:

    python3 perfbench/run.py --workload paper-testbed --seed 1 --seconds 10 --trace 0

Every workload, each in its own process, untraced and traced, printing
every metric with its unit:

    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

Run-to-run spread of the end-to-end metrics over N seeds per workload:

    python3 perfbench/run.py --spread 10 [--workloads a,b] [--out FILE]

The driver is built from the enclosing checkout's sources into
.bench_build/perfbench with CMake.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

# The seed every documented figure uses, and the seed kept back for
# confirming a claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242

# A run must end within 180 s; leave room for the no-op build check.
DRIVER_TIMEOUT_S = 165


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; build output goes to
    stderr so stdout stays the result channel."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("error: build step failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace):
    """Runs one driver process.  Returns (returncode, stdout lines)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACES, workload + ".csv")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, ["# driver timed out after %d s" % DRIVER_TIMEOUT_S]
    return p.returncode, p.stdout.splitlines()


def parse_result(lines, trace, bench):
    """Parses and checks the driver's result line against BENCHMARK.json."""
    if not lines:
        raise ValueError("driver printed nothing")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(want.items()) ^ set(got.items())))
    return result


def single(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        sys.exit("error: --workload must be one of " + ", ".join(names))
    build()
    rc, lines = run_driver(args.workload, args.seed, args.seconds, args.trace)
    for line in lines[:-1]:
        print(line)
    try:
        result = parse_result(lines, args.trace, bench)
    except ValueError as e:
        sys.exit("error: %s (driver exit %d)" % (e, rc))
    print(json.dumps(result))
    return 0 if rc == 0 and result["correct"] else 1


def run_all(args, bench):
    build()
    status = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            rc, lines = run_driver(w["name"], args.seed, args.seconds, trace)
            try:
                r = parse_result(lines, trace, bench)
            except ValueError as e:
                print("%s trace=%d: error: %s" % (w["name"], trace, e))
                status = 1
                continue
            ok = rc == 0 and r["correct"]
            status |= 0 if ok else 1
            print("== %s (trace %d, seed %d): correct=%s attempted=%d "
                  "failed=%d, %.1f s" % (w["name"], trace, args.seed,
                                         r["correct"], r["attempted"],
                                         r["failed"], time.monotonic() - t0))
            for name, m in r["metrics"].items():
                print("  %-34s %20.6f %s" % (name, m["value"], m["unit"]))
    return status


def spread(args, bench):
    """Runs N seeds per workload and prints, for each end-to-end metric,
    the quartiles and the interquartile range as a share of the median."""
    build()
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "runs": args.spread, "workloads": {}}
    status = 0
    for name in names:
        values = {m: [] for m in bounds}
        for i in range(args.spread):
            seed = args.seed + i
            rc, lines = run_driver(name, seed, args.seconds, 0)
            try:
                r = parse_result(lines, 0, bench)
            except ValueError as e:
                print("%s seed %d: error: %s" % (name, seed, e))
                return 1
            if rc != 0 or not r["correct"] or r["failed"]:
                print("%s seed %d: rc=%d correct=%s failed=%d"
                      % (name, seed, rc, r["correct"], r["failed"]))
                status = 1
            for m in bounds:
                values[m].append(r["metrics"][m]["value"])
        report["workloads"][name] = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            report["workloads"][name][m] = {
                "values": vs, "median": med, "q1": q1, "q3": q3,
                "iqr_share": share}
            print("%-14s %-12s median %14.6f  IQR/median %.4f  (bound %.2f)"
                  % (name, m, med, share, bounds[m]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--spread", type=int, metavar="N",
                    help="run N seeds per workload, untraced")
    ap.add_argument("--workloads", help="comma list for --spread")
    ap.add_argument("--out", help="JSON report path for --spread")
    args = ap.parse_args()
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.all:
        return run_all(args, bench)
    if args.spread:
        return spread(args, bench)
    if not args.workload:
        ap.error("--workload, --all or --spread is required")
    return single(args, bench)


if __name__ == "__main__":
    sys.exit(main())
