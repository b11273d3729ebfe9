"""Compare two result sets per workload and per metric.

Usage::

    python3 e2ebench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of runs as ``run.py`` leaves them (for
example a copy of ``e2ebench/results`` made on each commit).  Runs pair up
by workload and seed.  Every end-to-end metric gets a verdict by
:func:`e2ebench.stats.compare_metric` against the bound ``BENCHMARK.json``
fixes for it: gain, within bound, regression, unresolved, better in every
run, or too few pairs (under ten).  Per-layer metrics of traced runs are
listed as medians with their change.  A workload whose output digest
differs between the sets for the same seed is reported as "digest moved":
the change altered what the workload computes, so its timings compare
different work.  Exits 1 when any
metric regressed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(path) -> dict:
    """workload → trace → seed → list of summaries (in run order)."""
    from e2ebench.summarize import run_dirs

    runs: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for run_dir in run_dirs([path]):
        summary = json.loads((run_dir / "summary.json").read_text())
        provenance = summary["provenance"]
        trace = "per_layer" if "per_layer" in summary else "end_to_end"
        runs[provenance["workload"]][trace][provenance["seed"]].append(summary)
    return runs


def paired(parent: dict, change: dict) -> list[tuple[dict, dict]]:
    """Summaries of the seeds both sides ran, paired in run order."""
    pairs = []
    for seed in sorted(set(parent) & set(change)):
        pairs.extend(zip(parent[seed], change[seed]))
    return pairs


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from e2ebench import stats

    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    parent_set, change_set = load_set(args[0]), load_set(args[1])
    regressions = 0
    for workload in sorted(set(parent_set) & set(change_set)):
        pairs = paired(parent_set[workload]["end_to_end"],
                       change_set[workload]["end_to_end"])
        print(f"## {workload}: {len(pairs)} paired runs")
        moved = sorted({
            a["provenance"]["seed"] for a, b in pairs if a["digest"] != b["digest"]
        })
        if moved:
            print(f"  digest moved for seeds {moved}: the change alters the output")
        if pairs:
            print(f"  {'metric':20s} {'parent':>12s} {'change':>12s} "
                  f"{'worse by':>9s} {'wins':>6s}  verdict")
        for name, (_unit, better) in {**stats.END_TO_END, **stats.SERVE_ONLY}.items():
            # A serve-only percentile is left out of a run that lacks the
            # samples for it; such runs do not pair on that metric.
            values = [(a["end_to_end"][name]["value"], b["end_to_end"][name]["value"])
                      for a, b in pairs
                      if name in a["end_to_end"] and name in b["end_to_end"]]
            if not values:
                continue
            # Serve-only metrics have no bound: only a gain can be called.
            result = stats.compare_metric(
                [a for a, _b in values], [b for _a, b in values],
                better, bounds.get(name, math.inf),
            )
            regressions += result["verdict"] == "regression"
            print(f"  {name:20s} {result['parent_median']:12.6g} "
                  f"{result['change_median']:12.6g} {result['worse_by']:+9.2%} "
                  f"{result['wins']:>3d}/{result['pairs']:<2d}  {result['verdict']}"
                  + ("" if name in bounds else " (no bound)"))
        traced = paired(parent_set[workload]["per_layer"],
                        change_set[workload]["per_layer"])
        if traced:
            print(f"  per layer ({len(traced)} traced runs each):")
            for name in stats.PER_LAYER:
                before = statistics.median(a["per_layer"][name]["value"]
                                           for a, _b in traced)
                after = statistics.median(b["per_layer"][name]["value"]
                                          for _a, b in traced)
                if before or after:
                    change = f"{(after - before) / before:+.1%}" if before else "new"
                    print(f"    {name:30s} {before:12.6g} {after:12.6g} {change:>8s}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
