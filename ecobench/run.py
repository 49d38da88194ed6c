#!/usr/bin/env python3
"""Build the ecoDB benchmark from this checkout's sources and run one workload.

    python3 ecobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The engine library and the benchmark are
compiled by ecobench/CMakeLists.txt into $CARGO_TARGET_DIR/ecobench-<tag>
(default .bench_build/ecobench-<tag>), where <tag> is a hash of this
checkout's absolute path, so checkouts sharing one CARGO_TARGET_DIR never
share a build tree. Build output goes to stderr, so the benchmark's own
output is all that reaches stdout: a "# source" line naming this checkout
and a digest of its src/ tree and of the benchmark's sources, CMakeLists.txt
and this script (ecobench/compare.py reads it), then the benchmark's lines, the last of which is the JSON result. A
traced run writes its Chrome trace-event JSON to <build>/traces/. Exits
non-zero, without a result, when the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytic_serial", "analytic_parallel", "eco_stream")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tag = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    return os.path.join(base, "ecobench-" + tag)


def program_files():
    """The files the measured program and its build are made from."""
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)
    for name in sorted(os.listdir(HERE)):
        if name.endswith((".cc", ".h")) or name in ("CMakeLists.txt", "run.py"):
            yield os.path.join(HERE, name)


def source_digest():
    """SHA-1 over the relative paths and contents of program_files()."""
    h = hashlib.sha1()
    for path in program_files():
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(out_dir, "ecobench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("ecobench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s_seed%d.json" % (args.workload, args.seed))]
    print("# source " + json.dumps({"root": ROOT, "digest": source_digest()}))
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
