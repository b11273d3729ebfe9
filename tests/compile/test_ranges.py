"""Range-proven sanitize elision: the analysis, its guards, stress parity.

The range pass (:mod:`repro.compile.ranges`) decides per tape entry which
sanitize steps can still change a bit.  These tests pin its decisions on
small programs, the resume guard its soundness rests on, and — the hard
contract — bitwise parity with the interpreter where elision is most
likely to go wrong: features near the clip bound, non-finite feature cells,
a huge constant loaded from JSON, and online bars far outside the task set.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.compile import (
    CompiledAlpha,
    StackedAlpha,
    analyze_ranges,
    compile_program,
    data_bound,
    lower_program,
)
from repro.compile.ranges import CLIP, EXACT, FULL
from repro.config import make_rng
from repro.core import AlphaEvaluator, get_initialization
from repro.core.memory import INPUT_MATRIX, LABEL, PREDICTION, Operand
from repro.core.ops import CLIP_VALUE, sample_params
from repro.core.program import COMPONENTS, AlphaProgram, Operation
from repro.engine import FleetEngine, IncrementalExecutor
from repro.errors import ExecutionError
from repro.obs import TELEMETRY, telemetry_session

SPLITS = ("train", "valid", "test")
S2, S3, S4 = Operand.scalar(2), Operand.scalar(3), Operand.scalar(4)


def modes_of(program, ctx, input_range=None):
    return analyze_ranges([compile_program(program).ir], ctx, input_range).modes


def jitter(program, dims, rng, name):
    """The same tape with every parameter resampled (one stack group)."""
    child = program.copy(name=name)
    for component in COMPONENTS:
        operations = child.component(component)
        for index, operation in enumerate(operations):
            if operation.spec.param_names:
                operations[index] = Operation.make(
                    operation.spec.name, operation.inputs, operation.output,
                    sample_params(operation.spec, dims, rng),
                )
    return child


def generation(dims, mutator):
    """Initialisation alphas, mutants and param-jittered stack families."""
    rng = make_rng(5)
    programs = []
    for code in ("D", "NN", "R"):
        base = get_initialization(code, dims, seed=3)
        programs += [base.copy(name=f"{code}_0"),
                     jitter(base, dims, rng, f"{code}_1"),
                     mutator.mutate(mutator.mutate(base)).copy(name=f"{code}_m")]
    return programs


def huge_constant_program(dims):
    """A program whose s_const 1e300 only exists in its JSON payload."""
    program = AlphaProgram(
        setup=[Operation.make("s_const", (), S2, {"constant": 0.0})],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S3,
                           {"row": 1, "col": dims.window - 1}),
            Operation.make("s_const", (), S4, {"constant": 0.0}),
            Operation.make("s_mul", (S3, S4), S4),
            Operation.make("s_add", (S4, S3), PREDICTION),
        ],
        update=[Operation.make("s_sub", (LABEL, PREDICTION), S2)],
        name="huge_const",
    )
    payload = json.loads(program.to_json())
    for operation in payload["predict"]:
        if operation["op"] == "s_const":
            operation["params"]["constant"] = 1e300
    loaded = AlphaProgram.from_json(json.dumps(payload))
    assert any(op.param_dict.get("constant") == 1e300
               for op in loaded.component("predict"))
    return loaded


def assert_all_paths_match_interpreter(taskset, programs):
    """Interpreter vs compiled day loop / fused vs stacked, bitwise."""
    evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=40)
    interpreter = AlphaEvaluator(taskset, seed=0, max_train_steps=40,
                                 engine="interpreter")
    expected = {program.name: interpreter.run(program, splits=SPLITS)
                for program in programs}
    stack_groups = 0
    for stacked in (False, True):
        for time_batched in (False, True):
            fleet = FleetEngine(evaluator, dedup=False, stacked=stacked)
            for program in programs:
                fleet.add(program)
            stack_groups = max(stack_groups, fleet.stack_groups)
            runs = fleet.run(splits=SPLITS, time_batched=time_batched)
            for name, panels in expected.items():
                for split in SPLITS:
                    assert runs[name][split].tobytes() == \
                        panels[split].tobytes(), (
                            f"{name} diverged on {split} "
                            f"(stacked={stacked}, time_batched={time_batched})"
                        )
    assert stack_groups >= 2  # the jitter families really stacked


def sanitize_counts(taskset, programs):
    with telemetry_session():
        fleet = FleetEngine(AlphaEvaluator(taskset, seed=0, max_train_steps=40),
                            dedup=False)
        for program in programs:
            fleet.add(program)
        fleet.run(splits=("valid",))
        return {mode: TELEMETRY.counter(f"compile.sanitize.{mode}").value
                for mode in (EXACT, CLIP, FULL)}


class TestAnalysis:
    def test_raw_inputs_need_a_bound(self, evaluator):
        program = AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                               {"row": 0, "col": 0}),
                Operation.make("s_mul", (S2, S2), PREDICTION),
            ],
            update=[],
        )
        ctx = evaluator.make_context()
        assert modes_of(program, ctx)["predict"] == (FULL, CLIP)
        assert modes_of(program, ctx, (0.0, 3.0))["predict"] == (EXACT, EXACT)
        # a bound near the clip: the square leaves it, the read does not
        assert modes_of(program, ctx, (0.0, 1e5))["predict"] == (EXACT, CLIP)

    def test_prediction_input_is_unknown(self, evaluator):
        program = AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                               {"row": 0, "col": 0}),
                Operation.make("s_add", (S4, S3), PREDICTION),
            ],
            update=[
                Operation.make("s_abs", (PREDICTION,), S2),
                Operation.make("s_abs", (S2,), S3),
            ],
        )
        modes = modes_of(program, evaluator.make_context(), (0.0, 3.0))
        # carried s3 is only known to be sanitized: the sum may clip
        assert modes["predict"] == (EXACT, CLIP)
        # the prediction operand is restored unchecked by resume
        assert modes["update"] == (FULL, EXACT)

    def test_written_input_matrix_counts_as_clip_range(self, evaluator):
        program = AlphaProgram(
            setup=[],
            predict=[
                Operation.make("m_mul", (INPUT_MATRIX, INPUT_MATRIX),
                               INPUT_MATRIX),
                Operation.make("get_scalar", (INPUT_MATRIX,), PREDICTION,
                               {"row": 0, "col": 0}),
            ],
            update=[],
        )
        ctx = evaluator.make_context()
        # The lowered IR still exports the m0 write (dead-code elimination
        # drops it from executed tapes): m0 may then hold a sanitized write,
        # so the data bound no longer applies to it.
        modes = analyze_ranges([lower_program(program)], ctx, (0.0, 2.0)).modes
        assert modes["predict"] == (CLIP, EXACT)
        assert modes_of(program, ctx, (0.0, 2.0))["predict"] == (EXACT, EXACT)

    def test_nullary_without_proof_is_full(self, evaluator):
        def const(value):
            return AlphaProgram(
                setup=[Operation.make("s_const", (), S2, {"constant": value})],
                predict=[Operation.make("s_abs", (S2,), PREDICTION)],
                update=[],
            )

        ctx = evaluator.make_context()
        assert modes_of(const(0.5), ctx)["setup"] == (EXACT,)
        assert modes_of(const(1e300), ctx)["setup"] == (CLIP,)
        assert modes_of(const(float("nan")), ctx)["setup"] == (FULL,)

    def test_stacked_group_uses_the_hull_of_lane_parameters(self, evaluator):
        def const(value):
            return compile_program(AlphaProgram(
                setup=[Operation.make("s_const", (), S2, {"constant": value})],
                predict=[Operation.make("s_abs", (S2,), PREDICTION)],
                update=[],
            )).ir

        ctx = evaluator.make_context()
        assert analyze_ranges([const(0.5)], ctx).modes["setup"] == (EXACT,)
        assert analyze_ranges([const(0.5), const(1e300)],
                              ctx).modes["setup"] == (CLIP,)

    def test_modes_are_counted_once_per_bind(self, evaluator, dims):
        compiled = compile_program(get_initialization("NN", dims, seed=3))
        ctx = evaluator.make_context()
        expected = analyze_ranges([compiled.ir], ctx).counts()
        with telemetry_session():
            executor = CompiledAlpha(compiled, ctx)
            executor.run_setup()
            for day in range(3):
                executor.set_input(evaluator.taskset.split_features("train")[day])
                executor.run_predict()
                executor.run_update()
            counted = {mode: TELEMETRY.counter(f"compile.sanitize.{mode}").value
                       for mode in expected}
        assert counted == expected
        assert sum(counted.values()) == compiled.num_instructions


class TestDataBound:
    def test_bound_is_the_task_set_hull_with_zero(self, small_taskset):
        lo, hi = data_bound(small_taskset)
        assert lo <= 0.0 <= hi
        assert lo <= small_taskset.labels.min()
        assert hi >= small_taskset.features.max()

    def test_replace_recomputes_the_range(self, small_taskset):
        first = small_taskset.value_range
        scaled = dataclasses.replace(
            small_taskset, features=small_taskset.features * 1e5
        )
        assert scaled.value_range[1] > first[1] * 1e4
        assert small_taskset.value_range == first

    def test_unusable_ranges_give_no_bound(self, small_taskset):
        for factor in (1e7, np.inf):
            scaled = dataclasses.replace(
                small_taskset, features=small_taskset.features * factor
            )
            assert data_bound(scaled) is None
        holed = small_taskset.labels.copy()
        holed[3, 2] = np.nan
        assert data_bound(dataclasses.replace(small_taskset,
                                              labels=holed)) is None


def corrupted(state, operand, value):
    operands = dict(state.operands)
    operands[operand] = operands[operand].copy()
    operands[operand].flat[0] = value
    return dataclasses.replace(state, operands=operands)


class TestResumeGuard:
    @pytest.fixture()
    def warm_state(self, evaluator, dims):
        compiled = compile_program(get_initialization("NN", dims, seed=3))
        executor = CompiledAlpha(compiled, evaluator.make_context())
        executor.run_setup()
        executor.set_input(evaluator.taskset.split_features("train")[0])
        executor.run_predict()
        return compiled, executor.suspend()

    def carried_operand(self, state):
        return next(name for name in state.operands
                    if name not in ("m0", "s0", "s1"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 2 * CLIP_VALUE])
    def test_compiled_resume_refuses_impossible_operands(
        self, evaluator, warm_state, value
    ):
        compiled, state = warm_state
        bad = corrupted(state, self.carried_operand(state), value)
        with pytest.raises(ExecutionError, match="outside"):
            CompiledAlpha(compiled, evaluator.make_context()).resume(bad)

    @pytest.mark.parametrize("value", [np.nan, 2 * CLIP_VALUE])
    def test_stacked_resume_refuses_impossible_operands(
        self, evaluator, warm_state, value
    ):
        compiled, state = warm_state
        bad = corrupted(state, self.carried_operand(state), value)
        stacked = StackedAlpha([compiled, compiled], evaluator.make_context())
        with pytest.raises(ExecutionError, match="outside"):
            stacked.resume([state, bad])

    def test_raw_input_operands_are_not_checked_online(
        self, evaluator, warm_state
    ):
        compiled, state = warm_state
        for operand in ("m0", "s0", "s1"):
            odd = corrupted(state, operand, np.nan)
            CompiledAlpha(compiled, evaluator.make_context()).resume(odd)
            StackedAlpha([compiled], evaluator.make_context()).resume([odd])

    def test_bounded_binding_checks_raw_inputs(self, evaluator, warm_state):
        compiled, state = warm_state
        bound = data_bound(evaluator.taskset)
        outside = corrupted(state, "m0", bound[1] * 10)
        with pytest.raises(ExecutionError, match="outside"):
            CompiledAlpha(compiled, evaluator.make_context(),
                          input_range=bound).resume(outside)


class TestStressParity:
    def test_features_near_the_clip(self, small_taskset, dims, mutator):
        taskset = dataclasses.replace(
            small_taskset, features=small_taskset.features * 1e5
        )
        assert data_bound(taskset)[1] > 1e5
        programs = generation(dims, mutator)
        assert_all_paths_match_interpreter(taskset, programs)
        counts = sanitize_counts(taskset, programs)
        assert counts[EXACT] and counts[CLIP]

    def test_non_finite_feature_cells(self, small_taskset, dims, mutator):
        features = small_taskset.features.copy()
        rng = np.random.default_rng(0)
        cells = rng.integers(0, features.size, 400)
        features.flat[cells[0::4]] = np.nan
        features.flat[cells[1::4]] = np.inf
        features.flat[cells[2::4]] = -np.inf
        features.flat[cells[3::4]] = 3 * CLIP_VALUE
        taskset = dataclasses.replace(small_taskset, features=features)
        assert data_bound(taskset) is None
        programs = generation(dims, mutator)
        assert_all_paths_match_interpreter(taskset, programs)
        assert sanitize_counts(taskset, programs)[FULL]

    def test_huge_constant_from_json(self, small_taskset, dims, mutator):
        program = huge_constant_program(dims)
        twin = jitter(program, dims, make_rng(1), "huge_const_twin")
        programs = [program, twin] + generation(dims, mutator)[:6]
        assert_all_paths_match_interpreter(small_taskset, programs)


class TestOnlineBind:
    def test_bar_far_outside_the_task_set_matches_interpreter(
        self, small_taskset, dims, mutator
    ):
        # Near the clip, a bar 10x outside the task set's bound crosses
        # ±CLIP_VALUE: a binding that wrongly trusted the offline data bound
        # would skip clips the interpreter performs.
        taskset = dataclasses.replace(
            small_taskset, features=small_taskset.features * 1e5
        )
        programs = generation(dims, mutator)
        evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=40)
        fleet = FleetEngine(evaluator, dedup=False)
        references = {}
        for program in programs:
            member = fleet.add(program)
            reference = IncrementalExecutor(
                program, evaluator.make_context(), engine="interpreter"
            )
            reference.warm_start(
                taskset.split_features("train"),
                taskset.split_labels("train"),
                day_indices=evaluator.train_day_indices(),
            )
            references[member.key] = reference
        fleet.warm_start()
        assert fleet.stack_groups >= 2

        bound = max(abs(value) for value in data_bound(taskset))
        bars = taskset.split_features("valid")[:3] * 10
        labels = taskset.split_labels("valid")[:3] * 10
        assert np.abs(bars).max() > max(5 * bound, CLIP_VALUE)
        for bar, label in zip(bars, labels):
            served = fleet.step_bar(bar)
            for key, reference in references.items():
                assert served[key].tobytes() == reference.step(bar).tobytes()
                reference.reveal(label)
            fleet.reveal(label)
