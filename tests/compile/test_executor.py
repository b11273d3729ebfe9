"""Bitwise-parity tests for the compiled executor.

The contract under test is the hard one the search relies on: for every
program, ``AlphaEvaluator(compiled=True)`` produces predictions and fitness
reports that are *bit-for-bit* identical to the reference interpreter loop
(``compiled=False``) — including the fused batched inference path and the
per-day fallback.  A compiled program runs as a one-lane
:class:`~repro.compile.StackedAlpha`, on its own
(:class:`~repro.engine.CompiledBackend`) and inside a fleet (bound with the
task set's input range); both are held to the interpreter.
"""

import numpy as np
import pytest

from repro.compile import compile_program
from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    INPUT_MATRIX,
    LABEL,
    Mutator,
    Operand,
    Operation,
    PREDICTION,
    get_initialization,
)
from repro.engine import CompiledBackend, FleetEngine, InterpreterBackend

SPLITS = ("train", "valid", "test")

S2, S3, S4 = (Operand.scalar(i) for i in (2, 3, 4))


def make_evaluator(taskset, compiled, **kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("max_train_steps", 40)
    return AlphaEvaluator(taskset, compiled=compiled, **kwargs)


def assert_bitwise_equal(left: dict, right: dict):
    assert set(left) == set(right)
    for split in left:
        assert left[split].dtype == right[split].dtype
        assert left[split].tobytes() == right[split].tobytes(), split


def assert_reports_equal(left, right):
    assert left.is_valid == right.is_valid
    assert left.reason == right.reason
    same = (left.fitness == right.fitness) or (
        np.isnan(left.fitness) and np.isnan(right.fitness)
    )
    assert same
    assert np.array_equal(left.daily_ic_valid, right.daily_ic_valid)


class TestParity:
    def test_initializations_bitwise_identical(self, small_taskset, dims):
        for code in ("D", "NOOP", "R", "NN"):
            program = get_initialization(code, dims, seed=3)
            interpreted = make_evaluator(small_taskset, False).run(
                program, splits=("train", "valid", "test")
            )
            compiled = make_evaluator(small_taskset, True).run(
                program, splits=("train", "valid", "test")
            )
            assert_bitwise_equal(interpreted, compiled)

    def test_mutant_fuzz_bitwise_identical(self, small_taskset, dims):
        """Sixty mutated programs, covering fused and per-day inference."""
        mutator = Mutator(dims, seed=11)
        interpreter = make_evaluator(small_taskset, False)
        compiled_evaluator = make_evaluator(small_taskset, True)
        bases = [get_initialization(code, dims, seed=5) for code in ("D", "NN", "R")]
        program = bases[0]
        fused = not_fused = 0
        for step in range(60):
            program = mutator.mutate(bases[step % 3] if step % 7 == 0 else program)
            if compile_program(program).fused_inference:
                fused += 1
            else:
                not_fused += 1
            assert_bitwise_equal(
                interpreter.run(program), compiled_evaluator.run(program)
            )
        # the fuzz must exercise both inference paths to mean anything
        assert fused > 0 and not_fused > 0

    @pytest.mark.parametrize("time_batched", [False, True])
    def test_one_lane_matches_interpreter_on_mixed_bag(
        self, small_taskset, dims, time_batched
    ):
        """Initialisations and mutants, all three splits, through both the
        per-program backend and a one-program fleet (which binds the task
        set's input range), day loop and time-batched."""
        mutator = Mutator(dims, seed=11)
        bases = [get_initialization(code, dims, seed=11)
                 for code in ("D", "NN", "R")]
        bag = []
        while len(bag) < 24:
            program = bases[len(bag) % 3]
            for _ in range(len(bag) % 5):
                program = mutator.mutate(program)
            bag.append(program)
        interpreter = make_evaluator(small_taskset, False)
        compiled = make_evaluator(small_taskset, True,
                                  time_batched=time_batched)
        for program in bag:
            expected = interpreter.run(program, splits=SPLITS)
            assert_bitwise_equal(expected,
                                 compiled.run(program, splits=SPLITS))
            fleet = FleetEngine(compiled, dedup=False)
            fleet.add(program, name="solo")
            assert fleet.stack_groups == 0
            assert_bitwise_equal(expected, fleet.run(splits=SPLITS)["solo"])

    def test_reports_identical(self, small_taskset, dims):
        mutator = Mutator(dims, seed=23)
        interpreter = make_evaluator(small_taskset, False)
        compiled_evaluator = make_evaluator(small_taskset, True)
        program = get_initialization("NN", dims, seed=1)
        for _ in range(10):
            program = mutator.mutate(program)
            assert_reports_equal(
                interpreter.evaluate(program).report,
                compiled_evaluator.evaluate(program).report,
            )

    def test_use_update_ablation_identical(self, small_taskset, dims):
        program = get_initialization("NN", dims, seed=2)
        interpreted = make_evaluator(small_taskset, False, use_update=False).run(program)
        compiled = make_evaluator(small_taskset, True, use_update=False).run(program)
        assert_bitwise_equal(interpreted, compiled)

    def test_same_seed_required_for_parity(self, small_taskset, dims):
        """Stochastic initialisers derive from the evaluator seed, so parity
        holds per-seed (and differs across seeds)."""
        program = get_initialization("NN", dims, seed=2)
        a = make_evaluator(small_taskset, True, seed=1).run(program)
        b = make_evaluator(small_taskset, True, seed=2).run(program)
        assert not np.array_equal(a["valid"], b["valid"])


class TestFusedPath:
    def label_reader(self):
        """Predicts yesterday's label: forces the per-day inference loop."""
        return AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                               {"row": 0, "col": 0}),
                Operation.make("s_mul", (S2, LABEL), S3),
                Operation.make("s_add", (S2, S3), PREDICTION),
            ],
            update=[],
        )

    def accumulator(self):
        """Predict() accumulates into its own carried state across days."""
        return AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                               {"row": 0, "col": 0}),
                Operation.make("s_add", (S3, S2), S3),
                Operation.make("s_abs", (S3,), PREDICTION),
            ],
            update=[],
        )

    def test_label_reader_falls_back_and_matches(self, small_taskset):
        program = self.label_reader()
        assert not compile_program(program).fused_inference
        assert_bitwise_equal(
            make_evaluator(small_taskset, False).run(program),
            make_evaluator(small_taskset, True).run(program),
        )

    def test_accumulator_falls_back_and_matches(self, small_taskset):
        program = self.accumulator()
        assert not compile_program(program).fused_inference
        assert_bitwise_equal(
            make_evaluator(small_taskset, False).run(program),
            make_evaluator(small_taskset, True).run(program),
        )

    def test_fused_equals_per_day_execution(self, small_taskset, dims):
        """The fused batch reproduces the interpreter's day loop."""
        from repro.core import neural_network_alpha
        program = neural_network_alpha(dims)
        assert compile_program(program).fused_inference

        base = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        executor = CompiledBackend(program, base.make_context())
        executor.run_setup()
        features = small_taskset.split_features("valid")
        fused = executor.run_inference_batch(features)
        assert fused.shape == features.shape[:2]

        reference = InterpreterBackend(program, base.make_context())
        reference.run_setup()
        looped = np.zeros_like(fused)
        for day in range(features.shape[0]):
            reference.set_input(features[day])
            reference.run_predict()
            looped[day] = reference.prediction
        assert fused.tobytes() == looped.tobytes()

    def test_fused_rejected_when_ineligible(self, small_taskset):
        program = self.label_reader()
        base = AlphaEvaluator(small_taskset, seed=0)
        executor = CompiledBackend(program, base.make_context())
        with pytest.raises(ValueError):
            executor.run_inference_batch(small_taskset.split_features("valid"))


class TestStaticHoisting:
    def test_constant_chain_runs_once_but_matches(self, small_taskset):
        """A pure-constant chain in Predict() is hoisted to the prologue."""
        program = AlphaProgram(
            setup=[],
            predict=[
                Operation.make("s_const", (), S2, {"constant": 0.5}),
                Operation.make("s_sin", (S2,), S3),
                Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                               {"row": 1, "col": 1}),
                Operation.make("s_mul", (S3, S4), PREDICTION),
            ],
            update=[],
        )
        base = AlphaEvaluator(small_taskset, seed=0)
        executor = CompiledBackend(program, base.make_context())
        # the two constant instructions sit in the static prologue
        assert len(executor._static_tape) == 2
        assert len(executor._tapes["predict"]) == 2
        assert_bitwise_equal(
            make_evaluator(small_taskset, False).run(program),
            make_evaluator(small_taskset, True).run(program),
        )

    def test_redundant_program_still_degenerate(self, small_taskset):
        program = AlphaProgram(
            setup=[Operation.make("s_const", (), S2, {"constant": 1.0})],
            predict=[Operation.make("s_abs", (S2,), PREDICTION)],
            update=[],
        )
        result = make_evaluator(small_taskset, True).evaluate(program)
        reference = make_evaluator(small_taskset, False).evaluate(program)
        assert not result.is_valid and not reference.is_valid
        assert result.reason == reference.reason
