"""Tests of the benchmark's own rules: percentiles, compare, digests, seeds."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from e2ebench import stats, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


class TestPercentileRule:
    @pytest.mark.parametrize("count, expected", [
        (19, None), (20, 50.0), (99, 75.0), (100, 90.0), (199, 90.0),
        (200, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, count, expected):
        assert stats.tail_percentile(count) == expected

    def test_percentile_interpolates_like_numpy(self):
        values = [random.Random(3).random() for _ in range(137)]
        for p in (0.0, 50.0, 90.0, 95.0, 100.0):
            assert stats.percentile(values, p) == pytest.approx(
                float(np.percentile(values, p)), abs=1e-15)

    def test_unsupported_tail_is_refused(self):
        rep = {"request_latencies_s": [0.001] * 150, "setup_s": 1.0,
               "scenario_s": 2.0, "work_items": 10, "work_s": 1.0,
               "peak_rss_mb": 100.0}
        with pytest.raises(ValueError, match="request_p95_ms"):
            stats.end_to_end_metrics([rep])
        rep["request_latencies_s"] = [0.001] * 200
        metrics = stats.end_to_end_metrics([rep])
        assert metrics["request_p95_ms"]["samples"] == 200
        assert set(metrics) == set(stats.END_TO_END)
        rep.update(correction_latencies_s=[0.01] * 99, warm_start_s=0.1,
                   correction_share=0.1)
        metrics = stats.end_to_end_metrics([rep])
        assert "correction_p50_ms" in metrics and "correction_p90_ms" not in metrics


class TestCompareRule:
    @staticmethod
    def noisy(center, spread, count=10, seed=0):
        rng = random.Random(seed)
        return [center * (1 + rng.uniform(-spread, spread)) for _ in range(count)]

    def test_clear_gain(self):
        parent = self.noisy(10.0, 0.02)
        change = [value * 0.8 for value in parent]
        result = stats.compare_metric(parent, change, "lower", 0.1)
        assert result["verdict"] == "gain" and result["wins"] == 10

    def test_gain_needs_nine_of_ten_pairs(self):
        parent = self.noisy(10.0, 0.02)
        change = [value * 0.9 for value in parent]
        change[0] = change[1] = parent[0] * 1.1
        result = stats.compare_metric(parent, change, "lower", 0.1)
        assert result["wins"] == 8
        assert result["verdict"] != "gain"

    def test_gain_needs_median_shift_beyond_parent_iqr(self):
        parent = self.noisy(10.0, 0.05)
        change = [value - 0.001 for value in parent]
        result = stats.compare_metric(parent, change, "lower", 0.1)
        assert result["wins"] == 10
        assert result["verdict"] == "within bound"

    def test_regression_beyond_bound(self):
        parent = self.noisy(10.0, 0.02)
        change = [value * 1.3 for value in parent]
        assert stats.compare_metric(parent, change, "lower", 0.1)["verdict"] == "regression"
        assert stats.compare_metric(parent, change, "lower", 0.4)["verdict"] == "within bound"

    def test_higher_is_better(self):
        parent = self.noisy(100.0, 0.02)
        assert stats.compare_metric(
            parent, [v * 1.25 for v in parent], "higher", 0.1)["verdict"] == "gain"
        assert stats.compare_metric(
            parent, [v * 0.75 for v in parent], "higher", 0.1)["verdict"] == "regression"

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = self.noisy(10.0, 0.5, seed=1)
        change = self.noisy(10.5, 0.5, seed=2)
        result = stats.compare_metric(parent, change, "lower", 0.1)
        assert result["spread"] > 0.1
        assert result["verdict"] == "unresolved"

    def test_wide_spread_but_every_change_run_better(self):
        parent = [10.0, 10.5, 13.0, 14.0, 10.2, 13.5, 11.0, 14.5, 12.0, 10.8]
        change = [5.0, 5.5, 6.5, 9.0, 5.2, 9.5, 6.0, 8.5, 7.0, 5.8]
        result = stats.compare_metric(parent, change, "lower", 0.05)
        assert result["verdict"] in ("gain", "better in every run")

    def test_fewer_than_ten_pairs_get_no_verdict(self):
        parent = self.noisy(10.0, 0.02, count=9)
        for factor in (0.5, 1.0, 2.0):
            result = stats.compare_metric(
                parent, [value * factor for value in parent], "lower", 0.1)
            assert result["verdict"] == "too few pairs"


class TestDigests:
    def test_digest_ignores_key_order_and_keeps_float_bits(self):
        assert workloads.digest({"a": 1.0, "b": [2, 3]}) == \
            workloads.digest({"b": [2, 3], "a": 1.0})
        assert workloads.digest([0.1 + 0.2]) != workloads.digest([0.3])

    def test_panels_digest_sees_one_bit(self):
        panels = {"x": np.arange(12.0).reshape(3, 4), "y": np.ones((3, 4))}
        before = workloads.panels_digest(panels)
        assert workloads.panels_digest(dict(reversed(panels.items()))) == before
        panels["y"][2, 3] = np.nextafter(1.0, 2.0)
        assert workloads.panels_digest(panels) != before

    def test_moved_digest_fails_the_run(self):
        rep = {"traced": False, "digest": "a",
               "checks": {"attempted": 3, "failed": 0, "failures": []}}
        run_info = {"provenance": {}, "trace": 1}
        same = stats.summarize(run_info, [rep, rep])
        assert same["failed"] == 0 and same["attempted"] == 8
        moved = stats.summarize(run_info, [rep, dict(rep, digest="b")])
        assert moved["failed"] == 1 and "digest" in moved["failures"][0]

    def test_fleet_digest_is_identical_across_fresh_processes(self):
        code = (
            "from e2ebench import workloads\n"
            "from repro.core import Dimensions\n"
            "from repro.core.cache import fingerprint\n"
            "from benchmarks.common import build_generation\n"
            "fleet = build_generation(Dimensions(13, 13), 12, seed=11, jitter_seed=5)\n"
            "print(workloads.digest([fingerprint(p) for p in fleet]))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=str(workloads.hash_seed("mine-serial", 9)),
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        digests = {
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout
            for _ in range(2)
        }
        assert len(digests) == 1 and len(digests.pop().strip()) == 64


class TestCorrectionSchedule:
    def test_same_seed_same_schedule(self):
        assert workloads.correction_schedule(7, 50) == workloads.correction_schedule(7, 50)
        assert workloads.correction_schedule(7, 50) != workloads.correction_schedule(8, 50)

    def test_prefix_stable_and_within_limits(self):
        schedule = workloads.correction_schedule(3, 100)
        assert schedule[:40] == workloads.correction_schedule(3, 100)[:40]
        depths = [depth for depth, _side, _scale in schedule]
        assert set(depths) == set(range(1, workloads.MAX_DEPTH + 1))
        assert [side for _depth, side, _scale in schedule[:6]] == \
            list(workloads.SIDES) * 2
        assert all(0.98 <= scale <= 1.02 for *_rest, scale in schedule)

    def test_mining_pins_the_hash_seed(self):
        assert {workloads.hash_seed("mine-serial", seed) for seed in range(5)} == \
            {workloads.MINE_HASH_SEED}
        assert workloads.hash_seed("serve-replay", 3) != workloads.hash_seed("serve-replay", 4)


class TestTraceArithmetic:
    def test_self_time_and_unattributed_share(self):
        trace = {
            "names": ["workload", "core.search", "engine.training_pass"],
            "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [2, 2.0, 3.0, 1],
                      [2, 20.0, 21.0, -1]],
            "counts": {}, "telemetry": {"search.candidates": 4},
            "missing_targets": [],
        }
        times, counts, self_time, root_s = stats.span_totals(trace)
        assert root_s == 10.0
        assert counts["engine.training_pass"] == 1  # the span outside root is ignored
        assert self_time["core"] == 3.0 and self_time["engine"] == 1.0
        metrics = stats.layer_metrics(trace)
        assert metrics["obs.unattributed_share"][0] == 0.6
        assert metrics["engine.training_pass_s"][0] == 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in stats.END_TO_END.items()
    ]
    assert [m["name"] for m in spec["per_layer"]] == list(stats.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestTraceChecksCount:
    @staticmethod
    def traced_rep(prunes=2, compiles=1, missing=()):
        # Back-to-back child spans that leave 1 % of the root unattributed.
        names = [1] * prunes + [2] * compiles
        spans = [[0, 0.0, len(names) / 0.99, -1]]
        spans += [[name, float(i), i + 1.0, 0] for i, name in enumerate(names)]
        return {
            "traced": True, "digest": "a", "scenario_s": 10.0,
            "checks": {"attempted": 1, "failed": 0, "failures": []},
            "trace": {
                "names": ["workload", "core.prune", "compile.compile_program"],
                "spans": spans, "counts": {},
                "telemetry": {"search.candidates": 2, "compile.programs": 1},
                "missing_targets": list(missing),
            },
        }

    def summarize(self, rep):
        run_info = {"provenance": {}, "trace": 1}
        return stats.summarize(run_info, [dict(rep, traced=False), rep])

    def test_clean_trace_passes_every_check(self):
        summary = self.summarize(self.traced_rep())
        assert summary["failed"] == 0
        # 2 own checks + 2 digest checks + 4 trace checks.
        assert summary["attempted"] == 8
        assert all(check["ok"] for check in summary["trace_checks"])

    def test_mismatched_call_count_fails_the_run(self):
        summary = self.summarize(self.traced_rep(prunes=1))
        assert summary["failed"] == 1
        assert "prune calls" in summary["failures"][0]

    def test_missing_target_fails_the_run(self):
        summary = self.summarize(self.traced_rep(missing=["core.mutate"]))
        assert summary["failed"] == 1
        assert "core.mutate" in summary["failures"][0]

    def test_unattributed_time_fails_the_run(self):
        rep = self.traced_rep()
        rep["trace"]["spans"][0][2] = 4.0
        summary = self.summarize(rep)
        assert summary["failed"] == 1
        assert "unattributed" in summary["failures"][0]

    def test_unwrapped_targets_are_reported(self, monkeypatch):
        monkeypatch.setattr(tracing, "TARGETS", (
            ("core.gone", "repro.core.pruning", "no_such_function", None),
            ("core.unimported", "repro.core.pruning", "prune_program",
             ("repro.core.no_such_module",)),
        ))
        assert tracing.install(tracing.SpanRecorder()) == [
            "core.gone", "core.unimported"]
