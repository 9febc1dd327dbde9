#!/usr/bin/env python3
"""Whole-stack benchmark entry point.

Builds the stack and the b2bench program from source (Release, into
$CARGO_TARGET_DIR or .bench_build, relative to the current directory), then
runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is b2bench's JSON result. Build output
goes to standard error. The exit code is non-zero when the build fails or
any unit's output is wrong. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["soak-pipelined-long", "soak-isa-adversarial", "check-fleet",
             "vc-discharge"]
# Tune on the default seed; confirm a claimed gain on the held-out seed too.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def build(src, out):
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", src, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "b2bench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(out, "b2bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    try:
        exe = build(src, os.path.abspath(out))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([exe, "--workload", a.workload,
                           "--seed", str(a.seed),
                           "--seconds", str(a.seconds),
                           "--trace", str(a.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
