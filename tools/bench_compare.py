#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh BENCH_*.json against its baseline.

The repo commits baseline RunReports (e.g. BENCH_campaign.json at the repo
root); CI regenerates the same report and runs this script over the pair.
Metrics fall into three rule classes:

  exact      correctness counters (verdict counts, rule histograms, states).
             These are deterministic functions of (seed, count, knobs,
             limits) — ANY drift is a regression and fails the gate.

  tolerance  throughput/latency numbers. A metric fails only when it is
             worse than baseline by more than its relative tolerance
             (default --default-tolerance, per-metric via --tolerance
             NAME=FRAC). "Worse" respects direction: higher elapsed_seconds
             is worse, lower scenarios_per_second is worse. Getting faster
             never fails.

  inform     environment- or run-dependent values (shard counts, disk-cache
             hits, parks, wall-clock). Printed in the diff, never gating.

A metric present in the baseline but missing from the fresh report fails
(schema shrank); metrics only in the fresh report are informational (schema
grew). Labels are compared exactly except those listed in INFORM_LABELS.

Usage:
  bench_compare.py BASELINE FRESH [--report DIFF.json]
                   [--tolerance NAME=FRAC]... [--default-tolerance FRAC]

Exit: 0 in-tolerance, 1 regression detected, 2 usage or unreadable input.
Stdlib only — the container installs nothing. docs/observability.md
documents the gate; .github/workflows/ci.yml wires it in.
"""

import argparse
import fnmatch
import json
import sys

# Metric name patterns (fnmatch) -> rule class. First match wins; anything
# unmatched defaults to "exact", so a newly added counter is gated until
# someone deliberately relaxes it here.
TOLERANCE_LOWER_IS_BETTER = ["elapsed_seconds", "*wall_seconds*", "*_ns", "*_seconds"]
TOLERANCE_HIGHER_IS_BETTER = ["scenarios_per_second", "*_per_second", "*speedup*"]
INFORM = [
    "shards",
    # Truth-cache hits from disk depend on what a prior run left behind;
    # loaded/stored only exist with a cache file, and parks depend on which
    # shard reaches a key first. Single flight makes truth_cache.misses the
    # number of distinct keys searched and memo_hits the rest of the
    # lookups, both independent of the shard count, so those two stay exact.
    "truth_cache.disk_*",
    "truth_cache.loaded",
    "truth_cache.stored",
    "truth_cache.parked",
    # wormsim_saturation: wall-clock rows are machine-dependent; the
    # deterministic sweep metrics (offered/delivered/latency/event counters)
    # stay exact-gated.
    "sweep.*wall_seconds",
    # wormsim_synth: verdicts, table kinds, CDG cyclicity, consistency and
    # obstruction sizes are deterministic and stay exact-gated; only the
    # per-instance wall-clock rows are machine-dependent.
    "synth.*wall_seconds",
    "total_wall_seconds",
    # bench_search --sched-report: wall-clock, speedup and worker-share rows
    # depend on the runner's core count and load; the deterministic search
    # outputs (sched.*.states / .deadlock / .exhausted) stay exact-gated —
    # they pin verdict-and-count identity across thread counts — and so
    # does sched.*.t1.table_peak_bytes, the memo footprint of one thread.
    "sched.*wall_seconds",
    "sched.*speedup*",
    "sched.*max_worker_share",
]
INFORM_LABELS = ["truth_cache"]

DEFAULT_TOLERANCE = 0.50  # generous: CI runners are noisy shared machines


def classify(name):
    for pattern in INFORM:
        if fnmatch.fnmatch(name, pattern):
            return "inform", 0
    for pattern in TOLERANCE_LOWER_IS_BETTER:
        if fnmatch.fnmatch(name, pattern):
            return "tolerance", +1  # larger value = worse
    for pattern in TOLERANCE_HIGHER_IS_BETTER:
        if fnmatch.fnmatch(name, pattern):
            return "tolerance", -1  # smaller value = worse
    return "exact", 0


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"bench_compare: {path}: {err}\n")
        sys.exit(2)
    if not isinstance(report.get("values"), dict):
        sys.stderr.write(f"bench_compare: {path}: no 'values' object\n")
        sys.exit(2)
    return report


def compare(baseline, fresh, tolerances, default_tolerance):
    """Returns (entries, failures). Each entry is a JSON-ready diff row."""
    entries = []
    failures = 0
    base_values = baseline["values"]
    fresh_values = fresh["values"]

    for label, base in sorted(baseline.get("labels", {}).items()):
        got = fresh.get("labels", {}).get(label)
        inform = any(fnmatch.fnmatch(label, p) for p in INFORM_LABELS)
        ok = inform or got == base
        entries.append(
            {
                "metric": f"labels.{label}",
                "rule": "inform" if inform else "exact",
                "baseline": base,
                "fresh": got,
                "ok": ok,
            }
        )
        failures += 0 if ok else 1

    for name, base in sorted(base_values.items()):
        rule, direction = classify(name)
        entry = {"metric": name, "rule": rule, "baseline": base}
        if name not in fresh_values:
            entry.update(fresh=None, ok=False, note="missing from fresh report")
            failures += 1
            entries.append(entry)
            continue
        got = fresh_values[name]
        entry["fresh"] = got
        if rule == "exact":
            entry["ok"] = got == base
        elif rule == "inform":
            entry["ok"] = True
        else:
            tol = tolerances.get(name, default_tolerance)
            entry["tolerance"] = tol
            if base == 0:
                entry["ok"] = True  # no baseline signal to regress against
            else:
                ratio = (got - base) / abs(base) * direction
                entry["worse_by"] = max(ratio, 0.0)
                entry["ok"] = ratio <= tol
        failures += 0 if entry["ok"] else 1
        entries.append(entry)

    for name in sorted(set(fresh_values) - set(base_values)):
        entries.append(
            {
                "metric": name,
                "rule": "inform",
                "baseline": None,
                "fresh": fresh_values[name],
                "ok": True,
                "note": "new metric (not in baseline)",
            }
        )
    return entries, failures


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_compare.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--report", metavar="FILE", help="write the full diff as JSON"
    )
    parser.add_argument(
        "--tolerance",
        metavar="NAME=FRAC",
        action="append",
        default=[],
        help="per-metric relative tolerance (e.g. scenarios_per_second=0.3)",
    )
    parser.add_argument(
        "--default-tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRAC",
        help=f"tolerance for unlisted perf metrics (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)

    tolerances = {}
    for item in args.tolerance:
        name, sep, frac = item.partition("=")
        if not sep:
            parser.error(f"--tolerance needs NAME=FRAC, got '{item}'")
        try:
            tolerances[name] = float(frac)
        except ValueError:
            parser.error(f"--tolerance {name}: '{frac}' is not a number")

    baseline = load_report(args.baseline)
    fresh = load_report(args.fresh)
    entries, failures = compare(
        baseline, fresh, tolerances, args.default_tolerance
    )

    for entry in entries:
        if entry["ok"] and entry["rule"] != "tolerance":
            continue  # keep the human output focused on perf + problems
        status = "ok  " if entry["ok"] else "FAIL"
        detail = f"baseline={entry['baseline']} fresh={entry.get('fresh')}"
        if "worse_by" in entry:
            detail += (
                f" worse_by={entry['worse_by']:.1%}"
                f" tolerance={entry['tolerance']:.0%}"
            )
        if "note" in entry:
            detail += f" ({entry['note']})"
        print(f"{status} [{entry['rule']:9}] {entry['metric']}: {detail}")

    verdict = {
        "baseline": args.baseline,
        "fresh": args.fresh,
        "failures": failures,
        "metrics": entries,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(verdict, handle, indent=2)
            handle.write("\n")

    total = len(entries)
    print(f"bench_compare: {total} metrics, {failures} regression(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
