#!/usr/bin/env python3
"""Diff two perf ledgers: ``python3 perfbench/compare.py OLD.json NEW.json``.

Each file is what ``run.py --out FILE`` writes — every invocation with
the same ``--out`` appends one run, so a file usually holds several.
One row per (metric, workload): both medians, OLD's quartiles, the
ratio with its base, and a verdict against the bound ``BENCHMARK.json``
fixes for that metric:

* ``REGRESSION`` — NEW's median is worse than OLD's by more than the
  bound (or NEW failed more jobs);
* ``unresolved`` — OLD's own runs spread (q3 - q1 over the median) wider
  than the bound, so the pair cannot be called either way — unless
  every NEW run is better than every OLD run;
* ``improved`` / ``unchanged`` otherwise.

Per-layer metrics (``--trace 1`` runs) are listed without a verdict:
they have no bound. Exits 1 on any regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from harness import quartiles as spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path) as handle:
        data = json.load(handle)
    return data["runs"] if "runs" in data else [data]


def collect(runs, section):
    """{workload: {metric: [value per run]}} plus failed shares."""
    values, failed = {}, {}
    for run in runs:
        for workload, entry in run["workloads"].items():
            if section not in entry:
                continue
            result = entry[section]
            failed.setdefault(workload, []).append(
                result["failed"] / result["attempted"])
            for metric, item in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    metric, []).append(item["value"])
    return values, failed


def verdict(old, new, better, bound):
    """Returns (status, worse_by) where worse_by > 0 means NEW is worse
    by that share of OLD's median."""
    q1, old_median, q3 = spread(old)
    new_median = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - old_median) / abs(old_median)
    if abs(old_median) and (q3 - q1) / abs(old_median) > bound:
        every_better = (max(new) < min(old) if better == "lower"
                        else min(new) > max(old))
        return ("improved" if every_better else "unresolved"), worse_by
    if worse_by > bound:
        return "REGRESSION", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    old_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    print(f"OLD {argv[0]}: {len(old_runs)} run(s), "
          f"commit {old_runs[0]['host'].get('commit')}")
    print(f"NEW {argv[1]}: {len(new_runs)} run(s), "
          f"commit {new_runs[0]['host'].get('commit')}")
    regressions = 0

    old, old_failed = collect(old_runs, "end_to_end")
    new, new_failed = collect(new_runs, "end_to_end")
    print(f"\n{'workload':22s}{'metric':24s}{'old median [q1..q3]':>38s}"
          f"{'new median':>14s}  {'ratio (base: old)':30s}verdict")
    for workload in old:
        if workload not in new:
            continue
        for spec in contract["end_to_end"]:
            name = spec["name"]
            if name not in old[workload] or name not in new[workload]:
                continue
            status, _worse = verdict(old[workload][name],
                                     new[workload][name],
                                     spec["better"], spec["bound"])
            q1, median, q3 = spread(old[workload][name])
            new_median = statistics.median(new[workload][name])
            ratio = (f"{new_median / median:.3f}x of {median:.4g} "
                     f"{spec['unit']}")
            print(f"{workload:22s}{name:24s}"
                  f"{median:14.4f} [{q1:.4f}..{q3:.4f}]".ljust(84)
                  + f"{new_median:14.4f}  {ratio:30s}"
                  f"{status} (bound {spec['bound']:.0%})")
            regressions += status == "REGRESSION"
        old_share = statistics.median(old_failed[workload])
        new_share = statistics.median(new_failed[workload])
        worse = new_share > old_share
        print(f"{workload:22s}{'failed_share':24s}{old_share:14.4f}"
              .ljust(84) + f"{new_share:14.4f}  "
              f"{'':30s}{'REGRESSION' if worse else 'unchanged'} "
              "(bound 0, absolute)")
        regressions += worse

    old, _ = collect(old_runs, "per_layer")
    new, _ = collect(new_runs, "per_layer")
    units = {spec["name"]: spec["unit"] for spec in contract["per_layer"]}
    for workload in old:
        if workload not in new:
            continue
        print(f"\nper-layer, {workload} (no bound; medians)")
        for name in units:
            if name not in old[workload] or name not in new[workload]:
                continue
            before = statistics.median(old[workload][name])
            after = statistics.median(new[workload][name])
            ratio = (f"{after / before:.3f}x of {before:.4g}"
                     if before else "base 0")
            print(f"  {name:46s}{before:14.4f}{after:14.4f} "
                  f"{units[name]:8s}{ratio}")

    if regressions:
        print(f"\n{regressions} regression(s)", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
