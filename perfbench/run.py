#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles ../src)
into the directory named by CARGO_TARGET_DIR, or .bench_build when it
is unset; later runs only rebuild what changed. The apbench binary then
runs the workload and prints its metrics; the last line of standard
output is the result JSON. A traced run also writes its spans to
.bench_out/trace-<workload>-seed<n>.json. Workloads and metrics are
described in perfbench/NOTES.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure (once) and build apbench; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "apbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "apbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--doctor", action="store_true",
                    help="corrupt the host reference; the run must fail")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found under "
              + ROOT, file=sys.stderr)
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    if args.doctor:
        cmd.append("--doctor")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
