#!/usr/bin/env python3
"""Compare two sets of ecobench runs, workload by workload and metric by metric.

    python3 ecobench/compare.py BASE_DIR NEW_DIR [--same-source]
                                [--benchmark BENCHMARK.json]

Each directory holds one file per run: the standard output of ecobench/run.py
(a "# source {...}" line, a "# config {...}" line, metric lines, and the JSON
result as the last line; ecobench/sweep.py writes such directories). The
comparison is refused (exit 2) when the two sides differ in scale factor or
any other workload parameter, in the set of seeds, in host CPU count or in
tracing; when the runs of one side were built from different sources; and
when both sides were built from the same sources (the "# source" digest of
src/ and ecobench/), unless --same-source asks for such an A/A comparison
of one program with itself. Otherwise it prints, for
every workload and metric, each side's median and quartiles, and flags a
metric only when the new median is worse than the base median by more than
the metric's bound in BENCHMARK.json. Per-layer metrics (traced runs) have no
bound and are never flagged. A run with a wrong answer, or a different share
of failed operations between the sides, is flagged too. Exit status: 1 when
anything is flagged, else 0. Uses only the Python standard library.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_PREFIX = "# config "
SOURCE_PREFIX = "# source "


def load_run(path):
    config, source, result = None, None, None
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    for line in lines:
        if line.startswith(CONFIG_PREFIX):
            config = json.loads(line[len(CONFIG_PREFIX):])
        elif line.startswith(SOURCE_PREFIX):
            source = json.loads(line[len(SOURCE_PREFIX):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if (config is None or source is None or not isinstance(result, dict)
            or "metrics" not in result):
        raise ValueError("%s: not an ecobench run log" % path)
    config["source"] = source
    return config, result


def load_side(directory):
    """Returns {workload: [(config, result), ...]} for every run log."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            config, result = load_run(path)
            runs.setdefault(config["workload"], []).append((config, result))
    if not runs:
        raise ValueError("%s: no run logs" % directory)
    return runs


def fingerprint(runs):
    """What must match between the sides, per workload."""
    configs = [c for c, _ in runs]
    keys = {json.dumps({"params": c["params"], "nproc": c["nproc"],
                        "trace": c["trace"]}, sort_keys=True) for c in configs}
    return keys, sorted(c["seed"] for c in configs)


def sources(runs_by_workload):
    """The set of source digests of one side's runs."""
    return {c["source"]["digest"] for runs in runs_by_workload.values()
            for c, _ in runs}


def refusal(base, new, same_source):
    bsrc, nsrc = sources(base), sources(new)
    if len(bsrc) != 1 or len(nsrc) != 1:
        return "the runs of one side were built from different sources"
    if (bsrc == nsrc) != same_source:
        return ("both sides were built from the same sources (pass "
                "--same-source for an A/A comparison)" if not same_source
                else "--same-source given, but the sides' sources differ")
    if sorted(base) != sorted(new):
        return "workloads differ: %s vs %s" % (sorted(base), sorted(new))
    for w in sorted(base):
        bkeys, bseeds = fingerprint(base[w])
        nkeys, nseeds = fingerprint(new[w])
        if len(bkeys) != 1 or len(nkeys) != 1:
            return "%s: runs within one side differ in parameters" % w
        if bkeys != nkeys:
            return "%s: parameters differ:\n  base %s\n  new  %s" % (
                w, bkeys.pop(), nkeys.pop())
        if bseeds != nseeds:
            return "%s: seeds differ: %s vs %s" % (w, bseeds, nseeds)
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(runs):
    attempted = sum(r["attempted"] for _, r in runs)
    return sum(r["failed"] for _, r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--same-source", action="store_true",
                    help="compare two run sets of one program (A/A)")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    try:
        base, new = load_side(args.base), load_side(args.new)
    except (OSError, ValueError) as e:
        print("compare: %s" % e, file=sys.stderr)
        return 2
    why = refusal(base, new, args.same_source)
    if why:
        print("compare: refusing to compare: %s" % why, file=sys.stderr)
        return 2

    for side, runs in (("base", base), ("new", new)):
        src = next(iter(runs.values()))[0][0]["source"]
        print("%s: %s (sources %s)" % (side, src["root"], src["digest"][:12]))
    flagged = 0
    for w in sorted(base):
        cfg = base[w][0][0]
        print("== %s  (%d runs/side, seeds %s, params %s, nproc %d)" % (
            w, len(base[w]), fingerprint(base[w])[1],
            json.dumps(cfg["params"], sort_keys=True), cfg["nproc"]))
        for side, runs in (("base", base[w]), ("new", new[w])):
            bad = [c["seed"] for c, r in runs if not r["correct"]]
            if bad:
                print("  FLAG %s: wrong answers on seeds %s" % (side, bad))
                flagged += 1
        bshare, nshare = failed_share(base[w]), failed_share(new[w])
        if bshare != nshare:
            print("  FLAG failed share %.6g -> %.6g" % (bshare, nshare))
            flagged += 1
        print("  %-36s %-9s %14s %14s %14s | %14s %14s %14s  %8s" % (
            "metric", "unit", "base q1", "base median", "base q3",
            "new q1", "new median", "new q3", "change"))
        names = [n for n in base[w][0][1]["metrics"] if n in defs]
        for name in names:
            d = defs[name]
            bvals = [r["metrics"][name]["value"] for _, r in base[w]]
            nvals = [r["metrics"][name]["value"] for _, r in new[w]
                     if name in r["metrics"]]
            if len(nvals) != len(bvals):
                print("  FLAG %s missing from some new runs" % name)
                flagged += 1
                continue
            bq, nq = quartiles(bvals), quartiles(nvals)
            change = (nq[1] / bq[1] - 1.0) if bq[1] else 0.0
            worse = change if d["better"] == "lower" else -change
            mark = ""
            if "bound" in d and worse > d["bound"]:
                mark = "  FLAG worse by more than %.0f%%" % (100 * d["bound"])
                flagged += 1
            print("  %-36s %-9s %14.6g %14.6g %14.6g | %14.6g %14.6g %14.6g  %+7.1f%%%s"
                  % (name, d["unit"], bq[0], bq[1], bq[2], nq[0], nq[1], nq[2],
                     100 * change, mark))
    print("%d flag(s)" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
