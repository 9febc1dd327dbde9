#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed and prints, for each metric, the median of
the per-run values and the distance between their first and third quartile
(statistics.quantiles, n=4) as a share of that median:

    python3 perfbench/spread.py --workload check-fleet --seeds 1-10 \
        --seconds 30 [--trace 0|1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values = {}
    for s in seeds(a.seeds):
        start = time.monotonic()
        out = subprocess.run([sys.executable, run, "--workload", a.workload,
                              "--seed", str(s), "--seconds", str(a.seconds),
                              "--trace", str(a.trace)],
                             stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {s}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s} ({time.monotonic() - start:.1f} s): " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            file=sys.stderr)
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        print(f"{name:32s} median {med:<14.6g} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
