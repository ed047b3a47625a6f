#!/usr/bin/env python3
"""Compare a freshly generated bench JSON against a committed baseline.

Usage:
    compare_bench.py BASELINE FRESH [--tolerance 0.5]

Both files are objects of named arrays of flat rows (the bench/json_out.hpp
format, e.g. bench/baseline_engine.json).  Rows are matched by their
identity fields (name / workload / k / pairs / flows / threads).  Two kinds
of checks run on every matched row:

  * Invariants must be byte-equal: correctness flags (hops_agree,
    paths_identical, sim_identical) and deterministic outputs (hop,
    cycle, packet, latency-percentile and event-core counters).  These
    depend only on the seeded workload, never on machine speed.
  * Rates (fields ending in _rps or _speedup) must not regress:
    fresh >= tolerance * baseline.  The default tolerance is deliberately
    loose because CI hardware differs from the machine that wrote the
    baseline; the gate exists to catch order-of-magnitude regressions and
    broken correctness flags, not 10% jitter.

Rows present only in the fresh file are ignored (new benches may land
before their baseline is regenerated); rows present only in the baseline
fail, since silently dropping a measurement is how regressions hide.

Exits 0 when everything passes, 1 with a per-row report otherwise.
"""

import argparse
import json
import sys

IDENTITY_FIELDS = ("name", "workload", "policy", "k", "pairs", "flows",
                   "threads", "link_kills", "links_failed",
                   "family", "kind", "rate", "outages", "slow_links",
                   # Serving cells (bench/baseline_serve.json).
                   "workers", "mode", "linger_us", "offered", "concurrency",
                   "qps", "rate_limit")
INVARIANT_FIELDS = {
    "hops_agree",
    "paths_identical",
    "sim_identical",
    "total_hops",
    "completion_cycles",
    "packets",
    # Simulator counters (bench/baseline_{sim,fault,chaos}.json): the event
    # core is single-threaded and seeded, so hop, percentile and
    # event-queue counts are exact integers.  route_chunks depends only on
    # the packet count and chunk size.  The telemetry's wall-clock splits
    # (routing_ns, transit_ns) are not here.
    "offchip_hops",
    "events",
    "queue_peak",
    "route_chunks",
    "p50_latency",
    "p99_latency",
    # cache_hits is deliberately absent: concurrent chunks can both miss
    # the same relative permutation, so the hit count varies with the
    # machine's core count.
    # Chaos campaign cells (bench/baseline_chaos.json): the single-threaded
    # event core is fully seeded, so every integer counter in the
    # degradation surface is deterministic.  Floats (delivered_fraction,
    # latency averages) are deliberately excluded — cross-compiler printf
    # formatting of doubles is not part of the contract.
    "count",
    "delivered",
    "dropped",
    "timeouts",
    "retransmissions",
    "truncated",
    "violations",
    "checks",
    "fully_repaired",
    "exact_match",
    "fault_free_delivered",
    "quarantines",
    "readmissions",
    # Serving invariants: offered == delivered + shed (conservation),
    # sampled words byte-equal to scalar route() (words_ok), and the
    # overload cell really shed (shed_nonzero).  All three are pass/fail
    # flags computed by bench_serve itself, independent of machine speed.
    "conservation",
    "words_ok",
    "shed_nonzero",
    # Kernel microbenches (bench/baseline_kernels.json): every SIMD tier
    # must be byte-identical to the scalar reference on the bench inputs.
    # The dispatch tier itself is stamped into the "meta" object (skipped
    # below), not a row field — tiers differ across machines by design.
    "identical",
}


def structure_error(label, path, data):
    """One-line description of the first structural problem, or None.

    The expected shape is an object of named row arrays (plus free-form
    non-array sections such as "meta").  Anything else used to surface as
    an AttributeError traceback deep inside compare(); name the offending
    file instead.
    """
    if not isinstance(data, dict):
        return (f"compare_bench: {label} file '{path}' is malformed: top "
                f"level is {type(data).__name__}, expected an object of "
                f"row arrays")
    for section, rows in data.items():
        if not isinstance(rows, list):
            continue  # meta-style sections are fine; compare() skips them
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                return (f"compare_bench: {label} file '{path}' is "
                        f"malformed: {section}[{i}] is "
                        f"{type(row).__name__}, expected an object")
    return None


def row_key(row):
    return tuple((f, row[f]) for f in IDENTITY_FIELDS if f in row)


def fmt_key(section, key):
    ident = ", ".join(f"{f}={v}" for f, v in key)
    return f"{section}[{ident}]"


def compare(baseline, fresh, tolerance):
    failures = []
    for section, base_rows in baseline.items():
        # Skip non-array sections ("meta") BEFORE keying the fresh side:
        # iterating a fresh dict here yields its keys, and a key containing
        # an identity field as a substring (e.g. the "k" in "kernel_tier")
        # used to crash row_key with a string-index TypeError.
        if not isinstance(base_rows, list):
            continue
        fresh_section = fresh.get(section, [])
        if not isinstance(fresh_section, list):
            failures.append(
                f"{section}: fresh section is "
                f"{type(fresh_section).__name__}, expected an array")
            continue
        fresh_rows = {row_key(r): r for r in fresh_section}
        for base_row in base_rows:
            key = row_key(base_row)
            where = fmt_key(section, key)
            fresh_row = fresh_rows.get(key)
            if fresh_row is None:
                failures.append(f"{where}: missing from fresh results")
                continue
            for field, base_val in base_row.items():
                if field not in fresh_row:
                    failures.append(f"{where}.{field}: field missing")
                    continue
                fresh_val = fresh_row[field]
                if field in INVARIANT_FIELDS:
                    if fresh_val != base_val:
                        failures.append(
                            f"{where}.{field}: {fresh_val} != baseline "
                            f"{base_val} (must be identical)")
                elif field.endswith("_rps") or field.endswith("_speedup"):
                    if fresh_val < tolerance * base_val:
                        failures.append(
                            f"{where}.{field}: {fresh_val:.3g} < "
                            f"{tolerance:g} x baseline {base_val:.3g}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="minimum fresh/baseline ratio for rate fields "
                             "(default %(default)s)")
    args = parser.parse_args()

    # A missing file means the gate never ran — fail loudly instead of
    # tracebacking (or worse, "passing" an empty comparison).
    for label, path in (("baseline", args.baseline), ("fresh", args.fresh)):
        try:
            with open(path) as f:
                data = json.load(f)
        except FileNotFoundError:
            print(f"compare_bench: {label} file '{path}' does not exist; "
                  f"regenerate it (run the bench binary) before gating")
            return 1
        except json.JSONDecodeError as e:
            print(f"compare_bench: {label} file '{path}' is not valid "
                  f"JSON: {e}")
            return 1
        error = structure_error(label, path, data)
        if error is not None:
            print(error)
            return 1
        if label == "baseline":
            baseline = data
        else:
            fresh = data

    failures = compare(baseline, fresh, args.tolerance)
    if failures:
        print(f"compare_bench: {len(failures)} regression(s) vs "
              f"{args.baseline}:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"compare_bench: {args.fresh} is within tolerance "
          f"{args.tolerance:g} of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
