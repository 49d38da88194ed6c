#!/usr/bin/env python3
"""Run ecobench over several seeds (and optionally several checkouts, interleaved).

    python3 ecobench/sweep.py --out DIR [--seeds 1-10] [--workloads a,b]
                              [--seconds 20] [--trace 0] [--root PATH ...]

Writes the standard output of every run to DIR/<side>/<workload>_seed<n>.out,
where <side> is "0", "1", ... in the order the --root checkouts are given
(default: this checkout only). With two or more roots the runs alternate
between them and the order flips on every seed, so slow drift on the host
falls on both sides alike. Compare two sides with ecobench/compare.py. A run
that exits non-zero is reported and the sweep goes on.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analytic_serial", "analytic_parallel", "eco_stream")


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--root", action="append",
                    help="checkout to run (repeatable); default: this one")
    args = ap.parse_args()

    roots = [os.path.abspath(r) for r in (args.root or [os.path.dirname(HERE)])]
    failures = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads.split(","):
            order = list(enumerate(roots))
            if i % 2:
                order.reverse()
            for side, root in order:
                out_dir = os.path.join(args.out, str(side))
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(out_dir, "%s_seed%d.out" % (workload, seed))
                cmd = [sys.executable, os.path.join(root, "ecobench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace]
                with open(path, "w") as f:
                    rc = subprocess.run(cmd, cwd=root, stdout=f).returncode
                print("side %d %s seed %d -> %s (exit %d)"
                      % (side, workload, seed, path, rc), file=sys.stderr)
                failures += rc != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
