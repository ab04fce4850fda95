#!/usr/bin/env python3
"""Compare two run records written by ``perfbench/run.py``.

    python3 perfbench/ledger.py exact TRACED_A.json TRACED_B.json
    python3 perfbench/ledger.py overhead TRACED.json UNTRACED.json

``exact`` checks count-exactness between two traced runs of the same
workload and seed: every span both runs made (in order) must repeat its
``jobs``, ``stages`` and ``exchanges``. It lists each layer whose counts
differ; only the layers it reports exact may back a count-based claim.

``overhead`` states the tracing overhead: per op, the traced time over
the untraced time of the same workload and seed, and the ratio of the
summed op times.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

COUNTS = ("jobs", "stages", "exchanges")


def exact(a: dict, b: dict) -> dict[str, list]:
    """Per layer, the (span index, count, a, b) of every mismatch."""
    diffs: dict[str, list] = defaultdict(list)
    for i, (sa, sb) in enumerate(zip(a["spans"], b["spans"])):
        if sa["name"] != sb["name"] or sa.get("op_name") != sb.get("op_name"):
            break  # the runs diverged (a different number of cycles)
        for key in COUNTS:
            if sa.get(key, 0) != sb.get(key, 0):
                diffs[sa["name"]].append((i, key, sa.get(key, 0), sb.get(key, 0)))
    return diffs


def op_times(record: dict) -> dict[str, float]:
    by_op = defaultdict(list)
    for s in record["samples"]:
        if s["ok"]:
            by_op[s["op"]].append(s["seconds"])
    return {op: statistics.median(v) for op, v in by_op.items()}


def overhead(traced: dict, untraced: dict) -> dict:
    t, u = op_times(traced), op_times(untraced)
    common = sorted(set(t) & set(u))
    return {
        "per_op": {op: t[op] / u[op] - 1 for op in common},
        "total": sum(t[op] for op in common) / sum(u[op] for op in common) - 1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("exact", "overhead"))
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    a, b = (json.load(open(p)) for p in (args.a, args.b))
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("the records are of different workloads or seeds", file=sys.stderr)
        return 2
    if args.mode == "exact":
        if not (a["trace"] and b["trace"]):
            print("exact needs two traced records", file=sys.stderr)
            return 2
        diffs = exact(a, b)
        layers = sorted({s["name"] for s in a["spans"]})
        for layer in layers:
            d = diffs.get(layer)
            print(f"{layer:<32} " + ("exact" if not d else
                  f"INEXACT in {len(d)} spans, e.g. span {d[0][0]} {d[0][1]}: {d[0][2]} vs {d[0][3]}"))
        return 0
    if not a["trace"] or b["trace"]:
        print("overhead needs a traced and an untraced record, in that order", file=sys.stderr)
        return 2
    o = overhead(a, b)
    for op, r in o["per_op"].items():
        print(f"{op:<28} {100 * r:+7.1f}%")
    print(f"{'all ops':<28} {100 * o['total']:+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
