#!/usr/bin/env python3
"""Summarise a scg_bench Chrome trace-event file by span name.

    python3 benchmark/trace_summary.py FILE

For every span name it prints the count, the total time and the self time:
a span's duration minus the part of it covered by its child spans (spans
with the same id whose "parent" names it).  It then checks that along every
root span (a request, a simulation) the self times of the root and all its
descendants add up to the root's duration within 5%.  Exits 1 when a root
fails that check, 2 when the file is not a trace this tool understands.
"""

import json
import sys
from collections import defaultdict

TOLERANCE = 0.05


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"trace_summary: {path}: {e}") from None
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        raise SystemExit(f"trace_summary: {path}: no traceEvents list")
    spans = []
    for i, e in enumerate(events):
        try:
            start = float(e["ts"])
            dur = float(e["dur"])
            spans.append({"name": str(e["name"]), "start": start,
                          "end": start + dur, "id": e["args"]["id"],
                          "parent": e["args"].get("parent")})
        except (KeyError, TypeError, ValueError):
            raise SystemExit(
                f"trace_summary: {path}: event {i} lacks name/ts/dur/args.id"
            ) from None
    return spans


def covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarise(spans):
    """Returns ({name: [count, total, self]}, [(root, self_sum)])."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["id"], s["parent"])].append(s)

    def self_time(s):
        kids = children.get((s["id"], s["name"]), [])
        dur = s["end"] - s["start"]
        return dur - covered(s["start"], s["end"],
                             [(k["start"], k["end"]) for k in kids])

    def tree_self(s):
        kids = children.get((s["id"], s["name"]), [])
        return self_time(s) + sum(tree_self(k) for k in kids)

    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = by_name[s["name"]]
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += self_time(s)
    roots = [(s, tree_self(s)) for s in spans
             if s["parent"] is None and (s["id"], s["name"]) in children]
    return dict(by_name), roots


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans = load(argv[1])
    by_name, roots = summarise(spans)
    print(f"{'span':<24} {'count':>9} {'total_ms':>12} {'self_ms':>12} "
          f"{'self_us_mean':>13}")
    for name, (count, total, self) in sorted(by_name.items(),
                                             key=lambda kv: -kv[1][2]):
        print(f"{name:<24} {count:>9} {total / 1e3:>12.3f} {self / 1e3:>12.3f} "
              f"{self / count:>13.3f}")

    bad = []
    for root, self_sum in roots:
        dur = root["end"] - root["start"]
        if dur > 0 and abs(self_sum - dur) > TOLERANCE * dur:
            bad.append((root, self_sum, dur))
    print(f"\n{len(roots)} root spans checked: self times add up to the "
          f"root duration within {TOLERANCE:.0%} on {len(roots) - len(bad)}")
    for root, self_sum, dur in bad[:10]:
        print(f"  {root['name']} id={root['id']}: self sum {self_sum:.3f} us "
              f"vs duration {dur:.3f} us")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
