#!/usr/bin/env python3
"""Compare two sets of scg_bench result files.

    python3 benchmark/compare.py A.json... -- B.json... [--claim WORKLOAD:METRIC]

Result files are the documents `run.sh --out FILE` writes; each must report
`"correct": true`.  For every workload x metric the tool prints each set's
median and quartiles.  The rules apply to the end-to-end metrics of
BENCHMARK.json, each with its bound; a metric with an absolute floor below
(set-up, which takes microseconds) may also move by that much:

* Without --claim, A and B are runs of the same commit and must agree: the
  medians differ by at most the bound, and each set's interquartile range
  is within the bound; a wider spread is "unresolved".
* With --claim, A is the parent and B the change, paired in the order given
  (run them alternately).  The claimed end-to-end metric must win at least
  9 of every 10 pairs (ties count for neither) and the medians must differ
  by more than the parent's interquartile range.  Every other metric must
  not be worse than the parent's median by more than its bound; where a
  spread is wider than the bound it is "unresolved" unless every B run
  beats every A run.  The claim also fails when B's runs failed more
  operations than A's.

Exit status: 0 when every rule holds, 1 when one fails, 2 on malformed input
(the message names the offending file) or on a claim this tool cannot judge.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Set-up is meant to catch work moved into it, not microsecond noise: its
# bound is max(bound x median, 5 ms).
FLOOR = {"setup_s": 0.005}


class Malformed(Exception):
    pass


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: {e}") from None


def load_bounds(path):
    """{metric: (bound, better)} for the end-to-end metrics."""
    doc = load_json(path)
    try:
        return {m["name"]: (float(m["bound"]), m["better"])
                for m in doc["end_to_end"]}
    except (KeyError, TypeError, ValueError):
        raise Malformed(f"{path}: end_to_end entries need name, bound, better") from None


def load_result(path):
    """(workload, failed, {metric: value}) from one result document."""
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("workload"), str):
        raise Malformed(f"{path}: not a result document (no workload)")
    if doc.get("correct") is not True:
        raise Malformed(f"{path}: the run failed its correctness checks")
    failed = doc.get("failed")
    if isinstance(failed, bool) or not isinstance(failed, int):
        raise Malformed(f"{path}: no whole-number failed count")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise Malformed(f"{path}: no metrics object")
    values = {}
    for name, m in metrics.items():
        value = m.get("value") if isinstance(m, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise Malformed(f"{path}: metric {name} has no numeric value")
        values[name] = float(value)
    return doc["workload"], failed, values


def group(paths):
    """({(workload, metric): [values in the order given]}, total failed)."""
    out, failed = {}, 0
    for p in paths:
        workload, n, values = load_result(p)
        failed += n
        for name, v in values.items():
            out.setdefault((workload, name), []).append(v)
    return out, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def allowed(metric, median, bound):
    """How far a metric may move from `median` before a rule fails."""
    return max(bound * abs(median), FLOOR.get(metric, 0.0))


def too_wide(metric, values, bound):
    q1, med, q3 = quartiles(values)
    return q3 - q1 > allowed(metric, med, bound)


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def agreement_verdict(metric, pa, pb, bound):
    if too_wide(metric, pa, bound) or too_wide(metric, pb, bound):
        return "unresolved"
    ma, mb = quartiles(pa)[1], quartiles(pb)[1]
    return "disagree" if abs(mb - ma) > allowed(metric, ma, bound) else "agree"


def change_verdict(key, pa, pb, bound, better, claim):
    ma, mb = quartiles(pa)[1], quartiles(pb)[1]
    if key == claim:
        n = min(len(pa), len(pb))
        wins = sum(beats(pb[i], pa[i], better) for i in range(n))
        q1, _, q3 = quartiles(pa)
        won = (n >= 10 and wins >= 0.9 * n and beats(mb, ma, better)
               and abs(mb - ma) > q3 - q1)
        return ("claim met" if won else "claim not met"), f"wins {wins}/{n}"
    if too_wide(key[1], pa, bound) or too_wide(key[1], pb, bound):
        all_better = all(beats(x, y, better) for x in pb for y in pa)
        return ("better" if all_better else "unresolved"), ""
    worse = (mb - ma) if better == "lower" else (ma - mb)
    return ("regression" if worse > allowed(key[1], ma, bound) else "ok"), ""


def main(argv):
    args = list(argv[1:])
    claim = None
    if "--claim" in args:
        i = args.index("--claim")
        value = args[i + 1] if i + 1 < len(args) else ""
        if ":" not in value:
            print("compare.py: --claim takes WORKLOAD:METRIC", file=sys.stderr)
            return 2
        claim = tuple(value.split(":", 1))
        del args[i:i + 2]
    if "--" not in args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = args.index("--")
    a_paths, b_paths = args[:cut], args[cut + 1:]
    if not a_paths or not b_paths:
        print("compare.py: each side needs at least one result file", file=sys.stderr)
        return 2
    try:
        bounds = load_bounds(BENCHMARK)
        (a, a_failed), (b, b_failed) = group(a_paths), group(b_paths)
    except Malformed as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    keys = set(a) & set(b)
    more_failed = False
    if claim is None:
        rows = {key: (agreement_verdict(key[1], a[key], b[key], bounds[key[1]][0]), "")
                for key in keys if key[1] in bounds}
        failed = any(v != "agree" for v, _ in rows.values())
    else:
        # Gains are justified by end-to-end metrics; a layer metric has no
        # direction or bound here to judge a claim by.
        if claim[1] not in bounds:
            print(f"compare.py: {claim[1]} is not an end-to-end metric of "
                  f"{Path(BENCHMARK).name}", file=sys.stderr)
            return 2
        if claim not in keys:
            print(f"compare.py: claimed {claim[0]}:{claim[1]} is missing from "
                  "a set", file=sys.stderr)
            return 2
        rows = {key: change_verdict(key, a[key], b[key], *bounds[key[1]], claim)
                for key in keys if key[1] in bounds}
        more_failed = b_failed > a_failed
        failed = more_failed or any(v in ("regression", "claim not met")
                                    for v, _ in rows.values())

    print(f"{'workload':<14} {'metric':<32} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B-A':>8} {'bound':>6}  verdict")
    for key in sorted(set(a) | set(b)):
        def cell(side):
            if key not in side:
                return "-"
            q1, med, q3 = quartiles(side[key])
            return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(side[key])}"
        delta = ""
        if key in keys and quartiles(a[key])[1]:
            ma, mb = quartiles(a[key])[1], quartiles(b[key])[1]
            delta = f"{(mb - ma) / abs(ma):+.1%}"
        bound = f"{bounds[key[1]][0]:.2f}" if key[1] in bounds else ""
        verdict, note = rows.get(key, ("", ""))
        print(f"{key[0]:<14} {key[1]:<32} {cell(a):>34} {cell(b):>34} "
              f"{delta:>8} {bound:>6}  {verdict} {note}".rstrip())
    if more_failed:
        print(f"\nB failed {b_failed} operations and A {a_failed}: a gain does "
              "not count when more operations fail")
    print("\nFAIL" if failed else "\nPASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
