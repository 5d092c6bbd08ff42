#!/usr/bin/env python3
"""Checks the benchmark's determinism from outside.

For every workload, one seed must give one fingerprint (simulated event
count, layer counters and sojourn sums) across separate processes, and the
traced trials must match the untraced ones: "trace on == trace off".
Every run must also pass its correctness checks with no failed operation.

    python3 perfbench/test_fingerprints.py [--seed N] [--workloads a,b]

Exits 0 when every workload passes.
"""

import argparse
import sys

import run


def fingerprints(lines):
    prefix = "# fingerprint "
    return [l[len(prefix):] for l in lines if l.startswith(prefix)]


def check(workload, seed, bench):
    """Two untraced processes and one traced process, each as short as the
    driver allows: two trials of input 0, the traced process's second one
    traced.  Returns a list of problems."""
    problems, seen = [], []
    for trace in (0, 0, 1):
        rc, lines = run.run_driver(workload, seed, 0.1, trace)
        try:
            r = run.parse_result(lines, trace, bench)
        except ValueError as e:
            return ["trace=%d: %s" % (trace, e)]
        if rc != 0 or not r["correct"] or r["failed"]:
            problems.append("trace=%d: rc=%d correct=%s failed=%d"
                            % (trace, rc, r["correct"], r["failed"]))
        prints = fingerprints(lines)
        if len(prints) != 2:
            problems.append("trace=%d: %d trials" % (trace, len(prints)))
        seen += prints
    if len(set(seen)) != 1:
        problems.append("fingerprints differ:\n  " + "\n  ".join(seen))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--workloads", help="comma list (default: all)")
    args = ap.parse_args()
    bench = run.spec()
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    run.build()
    failed = 0
    for name in names:
        problems = check(name, args.seed, bench)
        print("%s %s seed %d" % ("FAIL" if problems else "ok", name, args.seed))
        for p in problems:
            print("  " + p)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
