"""Order statistics, the raw → summary derivation and the compare rule.

Everything here is pure Python over plain lists and dicts, so the summary a
run prints can be re-derived later from its ``raw/`` files alone
(``python3 e2ebench/summarize.py``) and two result sets can be compared
without importing the system under test (``python3 e2ebench/compare.py``).
"""

from __future__ import annotations

import math
import statistics

from .tracing import ROOT

#: Percentiles a latency may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
MIN_TAIL_SAMPLES = 10

#: Paired runs the compare rule needs before it calls any verdict.
MIN_PAIRS = 10

#: End-to-end metrics: name → (unit, which direction is better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "scenario_s": ("s", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "request_p95_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Metrics only ``serve-replay`` has; summarised and compared, not bounded.
SERVE_ONLY = {
    "warm_start_s": ("s", "lower"),
    "correction_p50_ms": ("ms", "lower"),
    "correction_p90_ms": ("ms", "lower"),
    "correction_share": ("share", "lower"),
}

#: Latency metrics: name → (raw sample list, percentile).  Latencies pool
#: every repetition's samples; scalars are medians over repetitions.
_LATENCIES = {
    "request_p50_ms": ("request_latencies_s", 50.0),
    "request_p95_ms": ("request_latencies_s", 95.0),
    "correction_p50_ms": ("correction_latencies_s", 50.0),
    "correction_p90_ms": ("correction_latencies_s", 90.0),
}


def percentile(values, p: float) -> float:
    """The ``p``-th percentile of ``values`` (linear interpolation, as numpy)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the ``p``-th percentile."""
    # The epsilon absorbs float error: 10000 * (100 - 99.9) / 100 is 9.99…
    return math.floor(count * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ≥ ``MIN_TAIL_SAMPLES`` beyond it."""
    supported = [p for p in PERCENTILE_LADDER
                 if samples_beyond(count, p) >= MIN_TAIL_SAMPLES]
    return supported[-1] if supported else None


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


# ---------------------------------------------------------------------------
# raw → summary
# ---------------------------------------------------------------------------
def summarize(run_info: dict, reps: list[dict]) -> dict:
    """Derive a run's summary from its raw records.

    An untraced run gives the end-to-end metrics.  A traced run alternates
    untraced and traced repetitions: the traced ones give the per-layer
    metrics (medians across them), and the tracing overhead is measured
    against the untraced ones.  Besides each repetition's own checks,
    every repetition counts one check that its output digest equals the
    first repetition's, and every traced repetition counts its
    :func:`trace_checks`.
    """
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    checked = [check for rep in traced for check in trace_checks(rep["trace"])]
    failures = [failure for rep in reps for failure in rep["checks"]["failures"]]
    failures += [
        f"repetition {index} digest {rep['digest']} differs from "
        f"repetition 0's {reps[0]['digest']}"
        for index, rep in enumerate(reps) if rep["digest"] != reps[0]["digest"]
    ]
    failures += [
        f"trace check {check['name']}: observed {check['observed']}, "
        f"expected {check['expected']}"
        for check in checked if not check["ok"]
    ]
    attempted = (sum(rep["checks"]["attempted"] for rep in reps) + len(reps)
                 + len(checked))
    summary = {
        "provenance": run_info["provenance"],
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "digest": reps[0]["digest"],
    }
    if not run_info["trace"]:
        summary["end_to_end"] = end_to_end_metrics(untraced)
    elif traced:
        summary["per_layer"] = per_layer_metrics(traced, untraced)
        summary["trace_checks"] = checked
    return summary


def end_to_end_metrics(reps: list[dict]) -> dict:
    """name → ``{"value", "unit", "samples"}`` over untraced repetitions.

    Covers :data:`END_TO_END`, plus :data:`SERVE_ONLY` when the repetitions
    recorded it.  A serve-only percentile the pooled samples do not support
    is left out; an end-to-end one is an error.
    """
    wanted = dict(END_TO_END)
    if "correction_latencies_s" in reps[0]:
        wanted.update(SERVE_ONLY)
    metrics = {}
    for name, (unit, _better) in wanted.items():
        if name in _LATENCIES:
            key, p = _LATENCIES[name]
            pooled = [value for rep in reps for value in rep[key]]
            tail = tail_percentile(len(pooled))
            if tail is None or p > tail:
                if name in SERVE_ONLY:
                    continue
                raise ValueError(
                    f"{name}: {len(pooled)} samples support percentiles up to "
                    f"{tail}, not {p}"
                )
            value = percentile(pooled, p) * 1e3
            samples = len(pooled)
        elif name == "throughput_per_s":
            value = statistics.median(
                rep["work_items"] / rep["work_s"] for rep in reps
            )
            samples = len(reps)
        else:
            value = statistics.median(rep[name] for rep in reps)
            samples = len(reps)
        metrics[name] = {"value": value, "unit": unit, "samples": samples}
    return metrics


#: Layers in pipeline order; a span's layer is its name's first component.
#: ``client`` is the benchmark's own bookkeeping (``tracing.CLIENT``).
LAYERS = ("data", "core", "compile", "engine", "backtest", "parallel", "stream",
          "client")

#: Per-layer metric names, as ``--trace 1`` prints them.
PER_LAYER = (
    "data.build_taskset_s",
    "core.mutate_s", "core.prune_s", "core.redundant_share",
    "core.fingerprint_s", "core.fingerprint_hit_share", "core.candidates",
    "core.evaluations", "core.score_s", "core.cutoff_s", "core.cutoff_rejects",
    "engine.evaluate_batch_s", "engine.batch_size_mean",
    "engine.training_pass_s", "engine.inference_pass_s",
    "engine.step_bar_s", "engine.correct_s",
    "engine.stack_groups", "engine.stacked_programs",
    "compile.compile_program_s", "compile.programs",
    "backtest.portfolio_returns_s", "backtest.evaluate_s",
    "parallel.pool_start_s", "parallel.dispatch_s", "parallel.wait_s",
    "parallel.pool_close_s", "parallel.batches_retried",
    "stream.register_s", "stream.warm_start_s", "stream.on_bar_s",
    "stream.reveal_s", "stream.correct_bar_s", "stream.replayed_days",
    "stream.verify_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "obs.traced_s", "obs.unattributed_share", "obs.trace_overhead_share",
)

#: Per-layer ``<span name>_s`` metrics: the summed duration of that span.
_SPAN_TIMES = tuple(
    name for name in PER_LAYER
    if name.endswith("_s") and not name.endswith(".self_s")
    and name != "obs.traced_s"
)


def span_totals(trace: dict) -> tuple[dict, dict, dict, float]:
    """Inclusive time and count per span name, self time per layer.

    Only spans under the root span count.  A span's self time is its
    duration minus its direct children's; the root's self time is the
    unattributed time.  Returns ``(time, count, self_by_layer, root_s)``.
    """
    names, spans = trace["names"], trace["spans"]
    inside = [False] * len(spans)
    child_time = [0.0] * len(spans)
    root = None
    for index, (name, start, end, parent) in enumerate(spans):
        if root is None and names[name] == ROOT:
            root = index
        inside[index] = index == root or (parent >= 0 and inside[parent])
        if parent >= 0:
            child_time[parent] += end - start
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    self_time = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
    for index, (name, start, end, _parent) in enumerate(spans):
        if not inside[index]:
            continue
        name = names[name]
        times[name] = times.get(name, 0.0) + (end - start)
        counts[name] = counts.get(name, 0) + 1
        layer = "unattributed" if index == root else name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[index]
    _name, start, end, _parent = spans[root]
    return times, counts, self_time, end - start


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced repetition (``PER_LAYER`` order)."""
    times, calls, self_time, root_s = span_totals(trace)
    counts, telemetry = trace["counts"], trace["telemetry"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    candidates = telemetry.get("search.candidates", 0)
    values = {name: (times.get(name[:-2], 0.0), "s") for name in _SPAN_TIMES}
    values.update({
        "core.redundant_share": (ratio(counts.get("core.prune.redundant", 0),
                                       calls.get("core.prune", 0)), "share"),
        "core.fingerprint_hit_share": (
            ratio(counts.get("core.lookup.hits", 0), candidates), "share"),
        "core.candidates": (candidates, "count"),
        "core.evaluations": (telemetry.get("search.evaluations", 0), "count"),
        "core.cutoff_rejects": (counts.get("core.cutoff.rejects", 0), "count"),
        "engine.batch_size_mean": (
            ratio(counts.get("engine.batch.programs", 0),
                  counts.get("engine.batch.calls", 0)), "programs"),
        "engine.stack_groups": (
            telemetry.get("engine.fleet.stack_groups", 0)
            + counts.get("engine.stack_partition.groups", 0), "count"),
        "engine.stacked_programs": (
            telemetry.get("engine.fleet.stacked_programs", 0)
            + counts.get("engine.stack_partition.programs", 0), "count"),
        "compile.programs": (calls.get("compile.compile_program", 0), "count"),
        "parallel.batches_retried": (
            telemetry.get("pool.batches_retried", 0), "count"),
        "stream.replayed_days": (telemetry.get("stream.replay_days", 0), "days"),
        "obs.traced_s": (root_s, "s"),
        "obs.unattributed_share": (ratio(self_time["unattributed"], root_s),
                                   "share"),
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_time[layer], "s")
    return values


def trace_checks(trace: dict) -> list[dict]:
    """Checks of one traced repetition, each ``{name, observed, expected, ok}``.

    Every traced entry point was found, the wrapped call counts equal the
    program's own counters, and the root span's self time stays under 5 %.
    """
    _times, calls, self_time, root_s = span_totals(trace)
    telemetry = trace["telemetry"]
    checks = [
        ("prune calls = search.candidates", calls.get("core.prune", 0),
         telemetry.get("search.candidates", 0)),
        ("compile calls = compile.programs",
         calls.get("compile.compile_program", 0),
         telemetry.get("compile.programs", 0)),
    ]
    checks.append(("every traced entry point found",
                   trace["missing_targets"], []))
    result = [{"name": name, "observed": observed, "expected": expected,
               "ok": observed == expected}
              for name, observed, expected in checks]
    unattributed = self_time["unattributed"] / root_s
    result.append({"name": "unattributed share < 5%", "observed": unattributed,
                   "expected": 0.05, "ok": unattributed < 0.05})
    return result


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer medians across traced repetitions, plus tracing overhead."""
    per_rep = [layer_metrics(rep["trace"]) for rep in traced]
    metrics = {
        name: {"value": statistics.median(values[name][0] for values in per_rep),
               "unit": per_rep[0][name][1]}
        for name in PER_LAYER if name != "obs.trace_overhead_share"
    }
    overhead = 0.0
    if untraced:
        plain = statistics.median(rep["scenario_s"] for rep in untraced)
        with_trace = statistics.median(rep["scenario_s"] for rep in traced)
        overhead = (with_trace - plain) / plain
    metrics["obs.trace_overhead_share"] = {"value": overhead, "unit": "share"}
    return metrics


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _better(a: float, b: float, better: str) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if better == "lower" else b > a


def compare_metric(parent: list[float], change: list[float], better: str,
                   bound: float) -> dict:
    """Judge one metric on one workload by the paired-runs rule.

    ``parent`` and ``change`` are aligned run values (pair ``i`` ran with
    the same seed on both sides).  The change is a **gain** when it wins at
    least nine tenths of the pairs (ties count for neither side) and the
    medians differ by more than the parent's interquartile range.  When
    either side's spread exceeds ``bound`` the metric is **unresolved**
    unless every change run reads better than every parent run.  Otherwise
    it is a **regression** when the change's median is worse than the
    parent's by more than ``bound`` of the parent's median.  Fewer than :data:`MIN_PAIRS` pairs get no verdict
    but **too few pairs**.
    """
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if _better(a, b, better))
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    parent_iqr = q3 - q1
    if better == "lower":
        worse_by = (change_median - parent_median) / parent_median
    else:
        worse_by = (parent_median - change_median) / parent_median
    spread = max(relative_iqr(parent), relative_iqr(change))
    all_better = all(_better(a, b, better) for a in parent for b in change)
    if len(pairs) < MIN_PAIRS:
        verdict = "too few pairs"
    elif wins >= 0.9 * len(pairs) \
            and abs(change_median - parent_median) > parent_iqr \
            and _better(parent_median, change_median, better):
        verdict = "gain"
    elif spread > bound:
        verdict = "better in every run" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "verdict": verdict,
        "pairs": len(pairs),
        "wins": wins,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": parent_iqr,
        "worse_by": worse_by,
        "spread": spread,
    }
