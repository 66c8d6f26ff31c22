#!/usr/bin/env python3
"""Build the fedcl benchmark from source and run one workload.

    python3 perfbench/run.py --workload cdp-cnn --seed 42 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the fedcl libraries plus the benchmark binary) in
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild only what
changed. The binary's stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Build logs and progress go
to stderr. --trace 1 runs the traced variant and writes its span file to
<build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cdp-cnn", "sdp-virtual", "decay-serving")
BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
# A run, build included, is meant to end within 180 s; the binary is
# stopped after this long.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return REPO_ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    if not (REPO_ROOT / "src" / "fl" / "trainer.h").is_file():
        fail("fedcl sources not found under %s/src" % REPO_ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "fedcl_perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build tree.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: %s" % " ".join(cmd))
    return out / "fedcl_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
