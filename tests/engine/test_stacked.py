"""Stacked fleet kernels: signature grouping, bitwise parity, tape interop.

The stacked executor's contract is the repo-wide one — bitwise parity with
the reference interpreter, the oracle every test here compares against —
plus two subsystem-specific guarantees: programs group strictly by
:func:`~repro.compile.stacked.stack_signature` (structure shared, parameter
values free), and a lane suspended from a stacked group resumes into any
other group holding the program, a one-lane
:class:`~repro.engine.CompiledBackend` included, and back.
"""

import numpy as np
import pytest

from repro.compile import StackedAlpha, compile_program, stack_signature
from repro.compile.stacked import _stacked_rank
from repro.config import make_rng
from repro.core import AlphaEvaluator, get_initialization
from repro.core.evolution import CandidateScorer
from repro.core.ops import get_op, sample_params
from repro.core.program import COMPONENTS, Operation
from repro.engine import CompiledBackend, FleetEngine, IncrementalExecutor
from repro.engine.protocol import training_pass
from repro.errors import ExecutionError
from repro.obs import TELEMETRY, telemetry_session


def jitter_params(program, dims, rng, name):
    """A params-only child: the parent's tape with resampled parameters.

    The mutator's params-only move produces exactly this shape of candidate,
    so a generation is dominated by members sharing their parent's stack
    signature.
    """
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


def make_generation(dims, mutator, jitter_seed=5):
    """A mixed-signature fleet: two param-jittered families plus singletons."""
    rng = make_rng(jitter_seed)
    d_base = get_initialization("D", dims, seed=3)
    nn_base = get_initialization("NN", dims, seed=3)
    r_base = get_initialization("R", dims, seed=3)
    mutant = mutator.mutate(d_base)
    return [
        d_base.copy(name="alpha_0"),
        jitter_params(d_base, dims, rng, "alpha_1"),
        jitter_params(d_base, dims, rng, "alpha_2"),
        nn_base.copy(name="alpha_3"),
        jitter_params(nn_base, dims, rng, "alpha_4"),
        r_base.copy(name="alpha_5"),
        mutant.copy(name="alpha_6"),
    ]


@pytest.fixture()
def generation(dims, mutator):
    return make_generation(dims, mutator)


def build_fleet(evaluator, programs, **kwargs):
    fleet = FleetEngine(evaluator, **kwargs)
    for program in programs:
        fleet.add(program)
    return fleet


def interpreter_stream(interpreter, programs, features, labels):
    """name → ``(D, K)`` day-by-day interpreter predictions (the oracle)."""
    streams = {}
    for program in programs:
        executor = IncrementalExecutor(
            program, interpreter.make_context(), engine="interpreter"
        )
        executor.warm_start(
            interpreter.taskset.split_features("train"),
            interpreter.taskset.split_labels("train"),
            day_indices=interpreter.train_day_indices(),
        )
        days = []
        for bar, label in zip(features, labels):
            days.append(executor.step(bar))
            executor.reveal(label)
        streams[program.name] = np.asarray(days)
    return streams


class TestStackSignature:
    def test_param_jitter_shares_signature(self, dims):
        base = get_initialization("NN", dims, seed=3)
        child = jitter_params(base, dims, make_rng(9), "child")
        assert child.render() != base.render()  # params really resampled
        assert stack_signature(compile_program(child)) == \
            stack_signature(compile_program(base))

    def test_structural_mismatch_differs(self, dims):
        left = compile_program(get_initialization("D", dims, seed=3))
        right = compile_program(get_initialization("NN", dims, seed=3))
        assert stack_signature(left) != stack_signature(right)

    def test_parameter_values_are_masked(self, dims):
        compiled = compile_program(get_initialization("NN", dims, seed=3))
        signature = stack_signature(compiled)
        assert "=*" in signature  # parameters present, values lifted out
        assert "seed=" not in signature.replace("seed=*", "")


class TestStackedAlphaValidation:
    def test_empty_group_rejected(self, evaluator):
        with pytest.raises(ExecutionError, match="empty"):
            StackedAlpha([], evaluator.make_context())

    def test_signature_mismatch_rejected(self, dims, evaluator):
        group = [
            compile_program(get_initialization(code, dims, seed=3))
            for code in ("D", "NN")
        ]
        with pytest.raises(ExecutionError, match="signatures differ"):
            StackedAlpha(group, evaluator.make_context())

    def test_resume_length_mismatch_rejected(self, dims, mutator, evaluator):
        base = get_initialization("D", dims, seed=3)
        group = [compile_program(base),
                 compile_program(jitter_params(base, dims, make_rng(9), "j"))]
        stacked = StackedAlpha(group, evaluator.make_context())
        stacked.run_setup()
        with pytest.raises(ExecutionError, match="expected 2 tape states"):
            stacked.resume([stacked.suspend_member(0)])

    def test_resume_foreign_tape_rejected(self, dims, evaluator):
        ctx = evaluator.make_context()
        d_solo = StackedAlpha(
            [compile_program(get_initialization("D", dims, seed=3))], ctx
        )
        nn_solo = StackedAlpha(
            [compile_program(get_initialization("NN", dims, seed=3))], ctx
        )
        d_solo.run_setup()
        with pytest.raises(ExecutionError, match="different compiled"):
            nn_solo.resume([d_solo.suspend_member(0)])


class TestStackedParity:
    def test_groups_form_and_run_matches_evaluator_bitwise(
        self, evaluator, interpreter, generation
    ):
        fleet = build_fleet(evaluator, generation)
        assert fleet.stack_groups >= 2  # the D and NN jitter families
        runs = fleet.run(splits=("valid", "test"))
        for program in generation:
            expected = interpreter.run(program, splits=("valid", "test"))
            for split in ("valid", "test"):
                assert runs[program.name][split].tobytes() == \
                    expected[split].tobytes()

    @pytest.mark.parametrize("jitter_seed", [5, 17, 29])
    def test_fuzzed_generations_match_unstacked_fleet(
        self, evaluator, interpreter, dims, mutator, jitter_seed
    ):
        """The interpreter fleet runs program by program: no stacking."""
        programs = make_generation(dims, mutator, jitter_seed=jitter_seed)
        stacked = build_fleet(evaluator, programs)
        plain = build_fleet(interpreter, programs)
        assert stacked.stack_groups >= 1 and plain.stack_groups == 0
        left = stacked.run(splits=("valid",))
        right = plain.run(splits=("valid",))
        for program in programs:
            assert left[program.name]["valid"].tobytes() == \
                right[program.name]["valid"].tobytes()

    def test_evaluate_matches_evaluator_evaluate(
        self, evaluator, interpreter, generation
    ):
        fleet = build_fleet(evaluator, generation)
        results = fleet.evaluate()
        for program in generation:
            expected = interpreter.evaluate(program)
            result = results[program.name]
            assert result.fitness == expected.fitness
            assert result.is_valid == expected.is_valid
            assert np.array_equal(
                result.daily_ic_valid, expected.daily_ic_valid
            )

    def test_stacked_serving_matches_offline_inference(
        self, small_taskset, evaluator, interpreter, generation
    ):
        fleet = build_fleet(evaluator, generation)
        fleet.warm_start()
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")
        streamed = {key: [] for key in fleet.executors}
        for day in range(features.shape[0]):
            for key, prediction in fleet.step_bar(features[day]).items():
                streamed[key].append(prediction)
            fleet.reveal(labels[day])
        for program in generation:
            batch = interpreter.run(program, splits=("valid",))["valid"]
            key = fleet.key_of(program.name)
            assert np.asarray(streamed[key]).tobytes() == batch.tobytes()

    def test_nan_features_served_identically(
        self, small_taskset, evaluator, interpreter, generation
    ):
        """NaN-bearing bars exercise the raw-input sanitise guard: entries
        reading the feature matrix must keep their NaN scan even where the
        finite-closure skip applies elsewhere."""
        features = small_taskset.split_features("valid")[:4].copy()
        features[:, 0, 0, 0] = np.nan
        features[:, -1, :, -1] = np.nan
        labels = small_taskset.split_labels("valid")[:4]
        fleet = build_fleet(evaluator, generation)
        fleet.warm_start()
        served = {key: [] for key in fleet.executors}
        for day in range(features.shape[0]):
            for key, prediction in fleet.step_bar(features[day]).items():
                served[key].append(prediction)
            fleet.reveal(labels[day])
        expected = interpreter_stream(interpreter, generation, features, labels)
        for program in generation:
            key = fleet.key_of(program.name)
            assert np.asarray(served[key]).tobytes() == \
                expected[program.name].tobytes()


class TestStackedKernels:
    def test_stacked_rank_matches_registry_on_ties(self):
        rank = get_op("rank").func
        values = make_rng(3).integers(-2, 3, size=(4, 9)).astype(float)
        expected = np.stack([rank(None, (lane,), {}) for lane in values])
        assert _stacked_rank(values).tobytes() == expected.tobytes()

    def test_stacked_rank_single_column(self):
        assert _stacked_rank(np.ones((3, 1))).tobytes() == \
            np.zeros((3, 1)).tobytes()


class TestSuspendResume:
    def serve(self, fleet, features, labels, start, stop):
        days = []
        for day in range(start, stop):
            days.append(fleet.step_bar(features[day]))
            fleet.reveal(labels[day])
        return days

    @pytest.mark.parametrize("resume_stacked", [True, False])
    def test_roundtrip_across_stacking_modes(
        self, small_taskset, evaluator, interpreter, generation,
        resume_stacked
    ):
        """A checkpoint cut from stacked buffers resumes bitwise into either
        a stacked fleet or per-program one-lane backends."""
        features = small_taskset.split_features("valid")[:8]
        labels = small_taskset.split_labels("valid")[:8]
        expected = interpreter_stream(interpreter, generation, features, labels)

        first = build_fleet(evaluator, generation)
        assert first.stack_groups >= 1
        first.warm_start()
        for day, stepped in enumerate(self.serve(first, features, labels, 0, 3)):
            for program in generation:
                key = first.key_of(program.name)
                assert stepped[key].tobytes() == \
                    expected[program.name][day].tobytes()
        tapes = first.suspend_tapes()

        if resume_stacked:
            resumed = build_fleet(
                AlphaEvaluator(small_taskset, seed=0, max_train_steps=40),
                generation,
            )
            resumed.resume_tapes(tapes, days_served=3)
            assert all(ex.days_served == 3
                       for ex in resumed.executors.values())
            served = self.serve(resumed, features, labels, 3, 8)
            keyed = {program.name: [day[resumed.key_of(program.name)]
                                    for day in served]
                     for program in generation}
        else:
            keyed = {}
            for program in generation:
                executor = IncrementalExecutor(
                    program, evaluator.make_context()
                )
                assert isinstance(executor.executor, CompiledBackend)
                executor.resume(tapes[first.key_of(program.name)],
                                days_served=3)
                keyed[program.name] = []
                for day in range(3, 8):
                    keyed[program.name].append(executor.step(features[day]))
                    executor.reveal(labels[day])
        for program in generation:
            assert np.asarray(keyed[program.name]).tobytes() == \
                expected[program.name][3:8].tobytes()

    def test_unstacked_checkpoint_resumes_into_stacked_fleet(
        self, small_taskset, evaluator, interpreter, generation
    ):
        """Per-program one-lane tapes regroup into a stacked fleet."""
        features = small_taskset.split_features("valid")[:6]
        labels = small_taskset.split_labels("valid")[:6]
        expected = interpreter_stream(interpreter, generation, features, labels)

        resumed = build_fleet(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=40),
            generation,
        )
        assert resumed.stack_groups >= 1
        tapes = {}
        for program in generation:
            executor = IncrementalExecutor(program, evaluator.make_context())
            executor.warm_start(
                small_taskset.split_features("train"),
                small_taskset.split_labels("train"),
                day_indices=evaluator.train_day_indices(),
            )
            for day in range(2):
                executor.step(features[day])
                executor.reveal(labels[day])
            tapes[resumed.key_of(program.name)] = executor.suspend()
        resumed.resume_tapes(tapes, days_served=2)
        for day, stepped in zip(
            range(2, 6), self.serve(resumed, features, labels, 2, 6)
        ):
            for program in generation:
                key = resumed.key_of(program.name)
                assert stepped[key].tobytes() == \
                    expected[program.name][day].tobytes()

    def test_lane_state_moves_between_group_and_backend(
        self, small_taskset, dims, evaluator, interpreter
    ):
        """Executor level: lane 1 of a P-lane group resumes into a
        :class:`CompiledBackend`, and the backend's state back into lane 1."""
        base = get_initialization("NN", dims, seed=3)
        programs = [base, jitter_params(base, dims, make_rng(9), "j1"),
                    jitter_params(base, dims, make_rng(10), "j2")]
        group = [compile_program(program) for program in programs]
        features = small_taskset.split_features("train")[:6]
        labels = small_taskset.split_labels("train")[:6]
        expected = interpreter_stream(
            interpreter, programs[1:2], features, labels
        )["j1"]

        def advance(backend, days):
            out = []
            for day in days:
                backend.set_input(features[day])
                backend.run_predict()
                out.append(np.array(backend.prediction))
                backend.set_label(labels[day])
            return out

        stacked = StackedAlpha(group, evaluator.make_context())
        # Warm every lane the way IncrementalExecutor does, then serve 2 days.
        stacked.run_setup()
        training_pass(stacked, small_taskset.split_features("train"),
                      small_taskset.split_labels("train"),
                      day_indices=evaluator.train_day_indices())
        served = [day[1] for day in advance(stacked, range(2))]
        solo = CompiledBackend(programs[1], evaluator.make_context())
        solo.resume(stacked.suspend_member(1))
        served += advance(solo, range(2, 4))
        regrouped = StackedAlpha(group, evaluator.make_context())
        regrouped.resume([stacked.suspend_member(0), solo.suspend(),
                          stacked.suspend_member(2)])
        served += [day[1] for day in advance(regrouped, range(4, 6))]
        assert np.asarray(served).tobytes() == expected.tobytes()


class TestMiningPath:
    def test_score_batch_matches_per_program_evaluator(
        self, evaluator, interpreter, generation
    ):
        """The scorer's internal fleet stacks transparently; its reports
        must stay bitwise-equal to the interpreter's per-program evaluation
        (the mining-path parity the dedup/pruning cache relies on)."""
        scorer = CandidateScorer(evaluator)
        reports = scorer.score_batch(list(generation))
        for program, report in zip(generation, reports):
            expected = interpreter.evaluate(program).report
            assert report.fitness == expected.fitness
            assert report.is_valid == expected.is_valid
            same_ic = report.ic_valid == expected.ic_valid or (
                np.isnan(report.ic_valid) and np.isnan(expected.ic_valid)
            )
            assert same_ic
            assert np.asarray(report.daily_ic_valid).tobytes() == \
                np.asarray(expected.daily_ic_valid).tobytes()


class TestTelemetry:
    def test_counters_record_stacked_execution(self, evaluator, generation):
        with telemetry_session():
            fleet = build_fleet(evaluator, generation)
            fleet.run(splits=("valid",))
            snapshot = TELEMETRY.snapshot()
        groups = snapshot["engine.fleet.stack_groups"]["value"]
        members = snapshot["engine.fleet.stacked_programs"]["value"]
        assert groups >= 1
        assert members >= 2 * groups
        assert snapshot["engine.fleet.stacked_kernel_calls"]["value"] > 0
        assert not TELEMETRY.enabled

    def test_counters_silent_when_disabled(self, evaluator, generation):
        def stacked_counts():
            snapshot = TELEMETRY.snapshot()
            return tuple(
                snapshot.get(f"engine.fleet.{name}", {}).get("value", 0)
                for name in ("stack_groups", "stacked_programs",
                             "stacked_kernel_calls")
            )

        before = stacked_counts()
        fleet = build_fleet(evaluator, generation)
        fleet.run(splits=("valid",))
        assert not TELEMETRY.enabled
        assert stacked_counts() == before

    def test_server_stats_expose_stack_groups(self, small_taskset, generation):
        from repro.stream import AlphaServer

        server = AlphaServer(small_taskset, seed=0, max_train_steps=40)
        for program in generation:
            server.register(program)
        stats = server.stats()
        assert stats["stack_groups"] == server.fleet.stack_groups
        assert stats["stack_groups"] >= 1
