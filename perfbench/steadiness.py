#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics repeat within their bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]
                                    [--seed-base 1000] [--save FILE]
                                    [--compare FILE]

Runs each workload --runs times through perfbench/run.py, each time with
another seed, and prints for every end-to-end metric of BENCHMARK.json
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median beside the metric's bound. A spread is "steady" below
a third of the bound; setup_s is listed but exempt. It also checks that
every run is correct and fails the same share of its operations.

--save writes the per-run results as JSON; --compare reads such a file
from an earlier set and reports, per metric, how far this set's median
moved in the metric's worse direction, against the bound. Exits 1 when a
run fails, a spread or a median shift exceeds its bound, or the failed
shares differ.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    ok = True
    saved = {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed_base + i, spec["run_seconds"])
            if r is None or not r["correct"]:
                print("%s seed %d: run failed or incorrect: %s"
                      % (workload, args.seed_base + i, r))
                ok = False
                continue
            results.append(r)
        saved[workload] = results
        if len(results) < 2:
            continue
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        print("\n%s: %d runs, failed share %s"
              % (workload, len(results),
                 ", ".join(str(s) for s in sorted(shares))))
        if len(shares) != 1:
            ok = False
        print("  %-16s %12s %12s %12s %8s %7s  %s"
              % ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3, sp = spread(values)
            exempt = m["name"] == "setup_s"
            verdict = ("exempt" if exempt else
                       "steady" if sp < m["bound"] / 3 else
                       "within bound" if sp <= m["bound"] else "TOO WIDE")
            if verdict == "TOO WIDE":
                ok = False
            line = "  %-16s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s" % (
                m["name"], q1, med, q3, 100 * sp, 100 * m["bound"], verdict)
            before = earlier.get(workload)
            if before:
                old = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in before)
                worse = (med - old) / old
                if m["better"] == "higher":
                    worse = -worse
                line += "; vs earlier median %.6g: %+.2f%% worse" % (
                    old, 100 * worse)
                if worse > m["bound"]:
                    ok = False
                    line += " EXCEEDS BOUND"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
