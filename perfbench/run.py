#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

    python3 perfbench/run.py --workload <cold-compile|serve-edit|signoff>
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and compiles the
desyn library from src/ plus the driver, in Release, into .bench_build/ (the
repository's own build files are not used); later runs only relink what
changed. The driver's report goes to stdout; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
metrics are the per-layer ones, and the span file is written to
.bench_build/trace-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold-compile", "serve-edit", "signoff")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure (once) and build the driver; build logs go to stderr."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 0 < args.seconds <= 3600:
        ap.error("--seconds must be in (0, 3600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no desyn sources under {root}/src: run from a full checkout")
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["--trace",
                os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    # The driver's unix socket is created relative to its working directory.
    proc = subprocess.Popen(cmd, cwd=out_dir)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
