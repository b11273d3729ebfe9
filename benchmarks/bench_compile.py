#!/usr/bin/env python3
"""Benchmark: compiled-tape execution vs the reference interpreter.

Evaluates one fixed, deterministic list of candidate alphas twice — once on
``AlphaEvaluator(compiled=False)`` (the per-day, per-operation interpreter
loop) and once on ``AlphaEvaluator(compiled=True)`` (the
:mod:`repro.compile` pipeline: flat tape, pre-resolved dispatch, static
hoisting and fused batched inference) — and records:

* full-evaluation throughput (train + inference) for both paths;
* **inference-stage** throughput for both paths, measured as the difference
  between a run producing the valid+test splits and a run producing none
  (training always executes), which is the stage the fused batch targets;
* a hard **parity check**: every prediction array must be bit-for-bit
  identical between the two paths (the whole design contract);
* a hard **stress parity check** where range-proven sanitize elision is
  most likely to go wrong: features scaled near the clip bound and features
  with NaN/±inf cells, evaluated per program (``AlphaEvaluator.run``, a
  one-lane tape without an input range) and through ``FleetEngine.run``
  (stacked signature groups and one-lane tapes, bound with the task set's
  data bound), day loop and time-batched, against the interpreter.

Results are written to ``benchmarks/results/BENCH_compile.json`` (the
source of truth, with a copy at the repository root — see
``benchmarks/README.md``).  ``cpu_count`` is recorded so
single-core CI numbers are interpretable; the compiled speedup is
single-process by nature and does not depend on core count.

Run with::

    python benchmarks/bench_compile.py [--programs N] [--repeats R] [--smoke]

``--smoke`` shrinks the program list and skips nothing else — CI uses it as
a fast compile-parity gate (non-zero exit on any parity violation).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


import numpy as np

from common import (
    build_generation, build_programs, reports_identical, write_bench_json,
)
from repro.compile import compile_program
from repro.core import AlphaEvaluator, Dimensions
from repro.engine import FleetEngine
from repro.experiments.configs import SMOKE, make_taskset

#: Shared evaluator settings so both paths time identical work.
EVALUATOR_KWARGS = {"max_train_steps": SMOKE.max_train_steps}
EVALUATOR_SEED = 0
SPLITS = ("valid", "test")


def time_runs(evaluator, programs, splits, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock for running every program."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for program in programs:
            evaluator.run(program, splits=splits)
        best = min(best, time.perf_counter() - start)
    return best


def stress_tasksets(taskset) -> dict:
    """Task sets near the clip bound and with non-finite feature cells."""
    features = taskset.features.copy()
    cells = np.random.default_rng(0).integers(0, features.size, 300)
    features.flat[cells[0::3]] = np.nan
    features.flat[cells[1::3]] = np.inf
    features.flat[cells[2::3]] = -np.inf
    return {
        "near_clip": dataclasses.replace(taskset,
                                         features=taskset.features * 1e5),
        "non_finite": dataclasses.replace(taskset, features=features),
    }


def stress_parity(taskset, programs) -> dict[str, bool]:
    """Interpreter vs per-program and stacked paths, bitwise, per stress set."""
    verdicts = {}
    for name, variant in stress_tasksets(taskset).items():
        interpreter = AlphaEvaluator(
            variant, seed=EVALUATOR_SEED, compiled=False, **EVALUATOR_KWARGS
        )
        expected = [interpreter.run(program, splits=SPLITS)
                    for program in programs]
        identical = True
        for time_batched in (False, True):
            evaluator = AlphaEvaluator(variant, seed=EVALUATOR_SEED,
                                       time_batched=time_batched,
                                       **EVALUATOR_KWARGS)
            fleet = FleetEngine(evaluator, dedup=False)
            for index, program in enumerate(programs):
                fleet.add(program, name=f"p{index}")
            identical &= fleet.stack_groups >= 1
            runs = fleet.run(splits=SPLITS)
            for index, (program, panels) in enumerate(zip(programs, expected)):
                solo = evaluator.run(program, splits=SPLITS)
                identical &= all(
                    got[split].tobytes() == panels[split].tobytes()
                    for got in (runs[f"p{index}"], solo)
                    for split in SPLITS
                )
        verdicts[name] = bool(identical)
    return verdicts


def run_benchmark(num_programs: int = 32, repeats: int = 3) -> dict:
    taskset = make_taskset(SMOKE, use_cache=False)
    dims = Dimensions(taskset.num_features, taskset.window)
    programs = build_programs(dims, num_programs)
    fused_eligible = sum(
        1 for program in programs if compile_program(program).fused_inference
    )

    interpreter = AlphaEvaluator(
        taskset, seed=EVALUATOR_SEED, compiled=False, **EVALUATOR_KWARGS
    )
    compiled = AlphaEvaluator(
        taskset, seed=EVALUATOR_SEED, compiled=True, **EVALUATOR_KWARGS
    )

    # ----- parity: the hard contract --------------------------------------
    parity = True
    for program in programs:
        left = interpreter.run(program, splits=SPLITS)
        right = compiled.run(program, splits=SPLITS)
        for split in SPLITS:
            parity &= left[split].tobytes() == right[split].tobytes()
        parity &= reports_identical(
            interpreter.evaluate(program).report, compiled.evaluate(program).report
        )
    stress = stress_parity(taskset, build_generation(dims, num_programs))

    # ----- timing ----------------------------------------------------------
    interp_full = time_runs(interpreter, programs, SPLITS, repeats)
    compiled_full = time_runs(compiled, programs, SPLITS, repeats)
    # Training always runs; a no-split run isolates the inference stage.
    interp_train = time_runs(interpreter, programs, (), repeats)
    compiled_train = time_runs(compiled, programs, (), repeats)
    interp_inference = max(interp_full - interp_train, 1e-9)
    compiled_inference = max(compiled_full - compiled_train, 1e-9)

    def throughput(seconds: float) -> float:
        return round(len(programs) / seconds, 3)

    payload = {
        "benchmark": "compiled-tape execution vs interpreter",
        "scale": SMOKE.name,
        "num_programs": len(programs),
        "fused_eligible_programs": fused_eligible,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "interpreter": {
            "full_seconds": round(interp_full, 4),
            "full_candidates_per_second": throughput(interp_full),
            "inference_seconds": round(interp_inference, 4),
            "inference_candidates_per_second": throughput(interp_inference),
        },
        "compiled": {
            "full_seconds": round(compiled_full, 4),
            "full_candidates_per_second": throughput(compiled_full),
            "inference_seconds": round(compiled_inference, 4),
            "inference_candidates_per_second": throughput(compiled_inference),
        },
        "full_speedup": round(interp_full / compiled_full, 3),
        "inference_speedup": round(interp_inference / compiled_inference, 3),
        "bitwise_identical_to_interpreter": parity,
        "stress_bitwise_identical_to_interpreter": stress,
    }
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=32,
                        help="number of candidate alphas in the fixed budget")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best is reported)")
    parser.add_argument("--smoke", action="store_true",
                        help="small program list; used as the CI parity gate")
    args = parser.parse_args(argv)

    num_programs = 8 if args.smoke else args.programs
    repeats = 1 if args.smoke else args.repeats
    payload = run_benchmark(num_programs, repeats)
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)

    if not args.smoke:
        path = write_bench_json("compile", payload)
        print(f"\nsaved {path}")

    if not payload["bitwise_identical_to_interpreter"]:
        print("ERROR: compiled execution differs from the interpreter",
              file=sys.stderr)
        return 1
    failed = [name for name, ok in
              payload["stress_bitwise_identical_to_interpreter"].items()
              if not ok]
    if failed:
        print("ERROR: fleet execution differs from the interpreter on the "
              f"stress task sets {failed}", file=sys.stderr)
        return 1
    if args.smoke:
        print("\ncompile-parity smoke check passed "
              f"({payload['num_programs']} programs, "
              f"{payload['fused_eligible_programs']} fused-eligible; "
              "near-clip and non-finite stress task sets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
