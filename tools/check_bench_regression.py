#!/usr/bin/env python3
"""Enforce the bench_micro perf ledger.

Compares a freshly produced BENCH_micro.json against the committed baseline
and fails (exit 1) when any gated metric regresses by more than the
threshold.  The baseline file carries a cross-PR "history" array (one
flattened {sha, metrics} row per committed run, appended by the bench
writer); when present, the gate compares against the LAST committed history
row — the most recent like-for-like run — and falls back to the flat
"entries" array for pre-history baselines.  The fresh side always reads its
current "entries".

Gated metrics are throughput rates (useful_propagations_per_sec,
nodes_per_sec, residue_nodes_per_sec) plus the headline ratios: the fraction
of the Table-I workload the presolve stages settle before search
(presolve_decided_fraction), the diversified portfolio's wall-time ratio
against the post-hoc best fixed value order (portfolio_vs_best_order), the
conflict-analysis nogood shrink ratio on the pipeline residue
(nogood_shrink_ratio), the backjump-lane vs decision-set nodes-to-verdict
ratio (backjump_nodes_per_verdict_ratio, lower is better —
non-chronological backjumping must keep beating the decision-set baseline
per decisive answer), the fault-injection
hardening tax on a fault-free run (residue_faultfree_overhead), and the
serving layer's repeat-mix throughput, cache hit ratio, and latency
percentiles (serve_requests_per_sec, serve_cache_hit_ratio,
serve_p50_us/serve_p99_us — the percentiles gate lower-is-better), and
the distributed fleet's two-worker wall-clock speedup on an
overrun-dominated shard workload (shard_scaling_2w, which additionally
carries an ABSOLUTE floor of 1.6x: the fleet must overlap overruns, not
merely avoid regressing a committed number).  The
ratio metrics gate in the LOWER-is-better direction: they may shrink
freely but must not creep back towards (or past) 1.0.  Plain wall-clock
totals stay advisory because they are budget- and machine-shaped rather
than throughput-shaped.

residue_faultfree_overhead carries its own tight threshold (0.02): its
baseline sits at ~1.0 by construction, so the general 30% band would let
the hardened layer quietly charge a third of residue throughput.  The
override keeps the armed-idle/disarmed ratio pinned under ~2% growth.

Usage: check_bench_regression.py <fresh.json> <baseline.json> [threshold]

threshold is the maximum tolerated fractional drop (default 0.30: fail
below 70% of the committed rate; for lower-is-better metrics, fail above
1/70% ~ 143% of the committed value).  Entries present in the baseline must
exist in the fresh output — a silently dropped workload would otherwise
retire its ledger line.
"""

import json
import sys

GATED_METRICS = (
    "useful_propagations_per_sec",
    "nodes_per_sec",
    "presolve_decided_fraction",
    "portfolio_vs_best_order",
    "residue_nodes_per_sec",
    "nogood_shrink_ratio",
    "backjump_nodes_per_verdict_ratio",
    "residue_faultfree_overhead",
    "serve_requests_per_sec",
    "serve_cache_hit_ratio",
    "serve_p50_us",
    "serve_p99_us",
    "shard_scaling_2w",
)

# Metrics where smaller values are better; their regression test inverts.
LOWER_IS_BETTER = frozenset({
    "nogood_shrink_ratio",
    "backjump_nodes_per_verdict_ratio",
    "residue_faultfree_overhead",
    "serve_p50_us",
    "serve_p99_us",
})

# Per-metric threshold overrides: metrics whose baseline is a ratio pinned
# near 1.0 need a far tighter band than throughput rates, while the serving
# percentiles are single-digit microseconds where scheduler noise alone can
# move a handful of µs — their band is loose (2x ceiling), which still
# catches the failure they gate (a solve or a lock sneaking onto the cache
# hit path costs 100x, not 2x).
THRESHOLD_OVERRIDES = {
    "residue_faultfree_overhead": 0.02,
    "serve_p50_us": 0.50,
    "serve_p99_us": 0.50,
}

# Metrics that must clear a fixed bar in the FRESH output regardless of
# what any baseline says — a drifting baseline must not be able to ratchet
# these down.  shard_scaling_2w is the distributed layer's reason to
# exist: two workers must overlap an overrun-dominated workload by >=1.6x.
ABSOLUTE_FLOORS = {
    "shard_scaling_2w": 1.6,
}


def load_entries(path):
    with open(path) as fh:
        data = json.load(fh)
    return {entry["name"]: entry for entry in data.get("entries", [])}


def load_baseline(path):
    """Baseline entries: the last committed history row when the file has
    a usable one (keys are flattened "<entry>.<metric>"; neither part
    contains a dot, so rsplit is unambiguous), else the flat entries
    array.  A missing or empty "history", or a malformed last row, is a
    stated fallback — never a stack trace: pre-history baselines and
    hand-edited files still gate against their entries."""
    with open(path) as fh:
        data = json.load(fh)
    history = data.get("history")
    if not history:
        print(f"note: baseline {path} has no history rows; "
              "comparing against its flat entries")
        return {entry["name"]: entry for entry in data.get("entries", [])}
    last = history[-1]
    metrics = last.get("metrics") if isinstance(last, dict) else None
    if not isinstance(metrics, dict) or not metrics:
        print(f"note: baseline {path} last history row has no metrics; "
              "comparing against its flat entries")
        return {entry["name"]: entry for entry in data.get("entries", [])}
    entries = {}
    for key, value in metrics.items():
        if "." not in key:
            print(f"note: skipping malformed history key {key!r} "
                  "(expected '<entry>.<metric>')")
            continue
        name, metric = key.rsplit(".", 1)
        entries.setdefault(name, {"name": name})[metric] = value
    return entries


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__)
        return 2
    fresh = load_entries(argv[1])
    try:
        baseline = load_baseline(argv[2])
    except FileNotFoundError:
        print(f"note: baseline {argv[2]} does not exist; nothing committed "
              "to gate against — only absolute floors apply")
        baseline = {}
    threshold = float(argv[3]) if len(argv) == 4 else 0.30

    failures = []

    # Absolute floors judge the fresh output alone, baseline or not.
    for name, entry in sorted(fresh.items()):
        for metric, floor in ABSOLUTE_FLOORS.items():
            if metric not in entry:
                continue
            value = float(entry[metric])
            failed = value < floor
            status = "FAIL" if failed else "ok"
            print(f"{status:4s} {name}.{metric}: {value:.3g} vs absolute "
                  f"floor {floor:.3g}")
            if failed:
                failures.append(
                    f"{name}.{metric}: {value:.3g} is below the absolute "
                    f"floor {floor:.3g}")
    for name, base in sorted(baseline.items()):
        new = fresh.get(name)
        if new is None:
            failures.append(f"{name}: entry missing from fresh output")
            continue
        for metric in GATED_METRICS:
            if metric not in base:
                continue
            if metric not in new:
                failures.append(f"{name}.{metric}: metric missing")
                continue
            old_rate, new_rate = float(base[metric]), float(new[metric])
            if old_rate <= 0:
                continue
            ratio = new_rate / old_rate
            band = THRESHOLD_OVERRIDES.get(metric, threshold)
            if metric in LOWER_IS_BETTER:
                # Invert: shrinking further is fine, growing past the same
                # fractional band regresses.
                failed = ratio > 1.0 / (1.0 - band)
                bound = f"ceiling {1.0 / (1.0 - band):.2f}x"
            else:
                failed = ratio < 1.0 - band
                bound = f"floor {1.0 - band:.2f}x"
            status = "FAIL" if failed else "ok"
            print(f"{status:4s} {name}.{metric}: {new_rate:.3g} vs "
                  f"{old_rate:.3g} committed ({ratio:.2f}x)")
            if failed:
                failures.append(
                    f"{name}.{metric}: {new_rate:.3g} is {ratio:.2f}x of the "
                    f"committed {old_rate:.3g} ({bound})")

    if failures:
        print("\nbench regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench regression gate passed "
          f"(threshold: >{(1.0 - threshold) * 100:.0f}% of committed rates)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
