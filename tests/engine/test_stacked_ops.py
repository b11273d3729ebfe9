"""Stacked-kernel extensions: transcendental ops and program-axis chunking.

Two satellite contracts of the stacked executor
(:mod:`repro.compile.stacked`):

* the transcendental elementwise operators admitted by the import-time
  probe run **stacked** — one ``(P, …)`` kernel call — and stay bitwise
  identical to per-program execution in *every* run order of the group;
* program-axis chunking of the matrix-heavy contractions (``matmul`` /
  ``matvec`` / ``v_dot``) is a pure scheduling change: with the chunk
  budget (``_MAX_CHUNK_ELEMENTS``) shrunk until lanes split, results stay
  byte-identical to the interpreter on both the day-loop and the fused
  inference paths, and the fused path still computes every day once.
"""

import numpy as np
import pytest

import repro.compile.stacked as stacked_module
from repro.compile import StackedAlpha, compile_program, stack_signature
from repro.compile.stacked import (
    _PROGRAM_CHUNK_OPS,
    _STACK_SAFE,
    _TRANSCENDENTAL_CANDIDATES,
    _probe_transcendental_stacking,
)
from repro.config import make_rng
from repro.core import (
    AlphaProgram,
    INPUT_MATRIX,
    Operand,
    Operation,
    PREDICTION,
    get_initialization,
)
from repro.core.ops import get_op, sample_params
from repro.engine import FleetEngine, InterpreterBackend

SPLITS = ("valid", "test")

S3, S4, S5, S6, S7, S8, S9 = (Operand.scalar(i) for i in range(3, 10))
M1, M2 = Operand.matrix(1), Operand.matrix(2)


def transcendental_alpha(dims, rng, name):
    """A static alpha routing one input through every probe candidate."""
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S3,
                           sample_params(get_op("get_scalar"), dims, rng)),
            Operation.make("s_sin", (S3,), S4),
            Operation.make("s_cos", (S3,), S5),
            Operation.make("s_tan", (S4,), S6),
            Operation.make("s_arcsin", (S5,), S7),
            Operation.make("s_arccos", (S5,), S8),
            Operation.make("s_arctan", (S6,), S9),
            Operation.make("s_add", (S7, S8), S7),
            Operation.make("s_exp", (S5,), S5),
            Operation.make("s_log", (S3,), S3),
            Operation.make("s_add", (S4, S5), S4),
            Operation.make("s_add", (S7, S9), S7),
            Operation.make("s_add", (S4, S7), S4),
            Operation.make("s_add", (S4, S3), PREDICTION),
        ],
        update=[],
        name=name,
    )


def matmul_alpha(dims, rng, name):
    """A static alpha whose prediction flows through a ``matmul`` lane."""
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("transpose", (INPUT_MATRIX,), M1),
            Operation.make("matmul", (INPUT_MATRIX, M1), M2),
            Operation.make("m_mean", (M2,), S3),
            Operation.make("s_const", (), S4,
                           sample_params(get_op("s_const"), dims, rng)),
            Operation.make("s_mul", (S3, S4), PREDICTION),
        ],
        update=[],
        name=name,
    )


def family(maker, dims, count=3, seed=5):
    rng = make_rng(seed)
    programs = [maker(dims, rng, f"{maker.__name__}_{i}")
                for i in range(count)]
    signatures = {stack_signature(compile_program(p)) for p in programs}
    assert len(signatures) == 1  # one stack group, params free
    return programs


def build_fleet(evaluator, programs, **kwargs):
    fleet = FleetEngine(evaluator, **kwargs)
    for program in programs:
        fleet.add(program)
    return fleet


def solo_runs(interpreter, programs):
    return {p.name: interpreter.run(p, splits=SPLITS) for p in programs}


def serve(fleet, features, labels):
    """key → ``(D, K)`` predictions of a freshly warmed fleet."""
    fleet.warm_start()
    streamed = {}
    for day in range(features.shape[0]):
        for key, prediction in fleet.step_bar(features[day]).items():
            streamed.setdefault(key, []).append(prediction)
        fleet.reveal(labels[day])
    return {key: np.asarray(days) for key, days in streamed.items()}


def split_lanes(monkeypatch, ctx, lanes=2):
    """Shrink the chunk budget until stacked contractions take ``lanes``."""
    per_lane = ctx.num_tasks * ctx.num_features * ctx.window
    monkeypatch.setattr(stacked_module, "_MAX_CHUNK_ELEMENTS",
                        lanes * per_lane)


class _DayLog(np.ndarray):
    """A feature panel that records every day-axis slice taken from it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices.append(range(*key.indices(self.shape[0])))
        return np.asarray(super().__getitem__(key))


def assert_matches_solo(fleet_runs, solo, programs):
    for program in programs:
        for split in SPLITS:
            assert (fleet_runs[program.name][split].tobytes()
                    == solo[program.name][split].tobytes()), (
                f"{program.name} diverged on the {split} split"
            )


class TestTranscendentalStacking:
    def test_probe_admits_every_candidate_here(self):
        # The probe is deterministic per platform; on the supported NumPy
        # builds every transcendental candidate stacks bit-exactly.
        assert set(_TRANSCENDENTAL_CANDIDATES) <= _STACK_SAFE

    def test_probe_admits_only_from_its_candidates(self):
        # The probe is a filter, never an extender: its verdict is always a
        # subset of what it was asked about, and it is deterministic.
        subset = ("s_sin", "s_exp")
        admitted = _probe_transcendental_stacking(subset)
        assert admitted <= set(subset)
        assert admitted == _probe_transcendental_stacking(subset)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_stacked_matches_solo_bitwise_per_run_order(
        self, evaluator, interpreter, dims, reverse
    ):
        programs = family(transcendental_alpha, dims)
        solo = solo_runs(interpreter, programs)
        order = programs[::-1] if reverse else programs
        fleet = build_fleet(evaluator, order)
        assert fleet.stack_groups >= 1
        assert_matches_solo(fleet.run(splits=SPLITS), solo, programs)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_stacked_serving_matches_solo_per_run_order(
        self, small_taskset, evaluator, interpreter, dims, reverse
    ):
        programs = family(transcendental_alpha, dims)
        order = programs[::-1] if reverse else programs
        fleet = build_fleet(evaluator, order)
        fleet.warm_start()
        features = small_taskset.split_features("valid")[:10]
        labels = small_taskset.split_labels("valid")[:10]
        streamed = {key: [] for key in fleet.executors}
        for day in range(features.shape[0]):
            for key, prediction in fleet.step_bar(features[day]).items():
                streamed[key].append(prediction)
            fleet.reveal(labels[day])
        for program in programs:
            batch = interpreter.run(program, splits=("valid",))["valid"][:10]
            key = fleet.key_of(program.name)
            assert np.asarray(streamed[key]).tobytes() == batch.tobytes()


class TestProgramChunking:
    def chunk_family(self, dims, mutator=None):
        """matmul lanes on the fused path + matvec/v_dot on the day loop."""
        nn = get_initialization("NN", dims, seed=3)
        rng = make_rng(11)
        jitter = []
        for index in range(2):
            child = nn.copy(name=f"nn_{index}")
            for operations in (child.setup, child.predict, child.update):
                for i, operation in enumerate(operations):
                    if operation.spec.param_names:
                        operations[i] = Operation.make(
                            operation.spec.name, operation.inputs,
                            operation.output,
                            sample_params(operation.spec, dims, rng),
                        )
            jitter.append(child)
        return family(matmul_alpha, dims) + [nn.copy(name="nn_base")] + jitter

    def test_chunk_ops_cover_the_matrix_contractions(self):
        assert _PROGRAM_CHUNK_OPS == {"matmul", "matvec", "v_dot"}

    def test_auto_chunk_derivation(self, evaluator, dims, monkeypatch):
        group = [compile_program(p) for p in family(matmul_alpha, dims)]
        ctx = evaluator.make_context()
        per_lane = ctx.num_tasks * ctx.num_features * ctx.window
        auto = StackedAlpha(group, ctx)
        assert auto.lane_chunk == max(
            1, stacked_module._MAX_CHUNK_ELEMENTS // per_lane
        )
        assert auto.lane_chunk >= len(group)  # small contexts never split
        split_lanes(monkeypatch, ctx)
        assert StackedAlpha(group, ctx).lane_chunk == 2

    def test_forced_chunk_matches_unchunked_bitwise(
        self, evaluator, interpreter, dims, monkeypatch
    ):
        programs = self.chunk_family(dims)
        solo = solo_runs(interpreter, programs)
        monolithic = build_fleet(evaluator, programs)
        assert monolithic.stack_groups >= 2
        assert_matches_solo(monolithic.run(splits=SPLITS), solo, programs)
        split_lanes(monkeypatch, evaluator.make_context())
        chunked = build_fleet(evaluator, programs)
        assert_matches_solo(chunked.run(splits=SPLITS), solo, programs)

    def test_chunked_serving_matches_unchunked_bitwise(
        self, small_taskset, evaluator, interpreter, dims, monkeypatch
    ):
        programs = self.chunk_family(dims)
        features = small_taskset.split_features("valid")[:8]
        labels = small_taskset.split_labels("valid")[:8]
        monolithic = serve(build_fleet(evaluator, programs), features, labels)
        split_lanes(monkeypatch, evaluator.make_context())
        fleet = build_fleet(evaluator, programs)
        chunked = serve(fleet, features, labels)
        assert chunked.keys() == monolithic.keys()
        for program in programs:
            key = fleet.key_of(program.name)
            batch = interpreter.run(program, splits=("valid",))["valid"][:8]
            assert chunked[key].tobytes() == batch.tobytes()
            assert monolithic[key].tobytes() == batch.tobytes()

    def test_fused_lane_chunks_cover_each_day_once(
        self, small_taskset, evaluator, dims, monkeypatch
    ):
        """Lane chunking inside the fused path must not disturb its day
        chunks: every day is computed exactly once and matches the
        interpreter bit for bit."""
        programs = family(matmul_alpha, dims, count=4)
        ctx = evaluator.make_context()
        split_lanes(monkeypatch, ctx, lanes=3)
        group = StackedAlpha([compile_program(p) for p in programs], ctx)
        assert group.lane_chunk == 3  # lanes split 3 + 1 ...
        per_day = 4 * ctx.num_tasks * ctx.num_features * ctx.window
        assert stacked_module._MAX_CHUNK_ELEMENTS // per_day == 0
        # ... while the day axis runs in one-day chunks.
        features = small_taskset.split_features("valid")
        logged = features.view(_DayLog)
        logged.slices = []
        group.run_setup()
        fused = group.run_inference_batch(logged)

        covered = [day for days in logged.slices for day in days]
        assert covered == list(range(features.shape[0]))
        for lane, program in enumerate(programs):
            reference = InterpreterBackend(program, evaluator.make_context())
            reference.run_setup()
            for day in range(features.shape[0]):
                reference.set_input(features[day])
                reference.run_predict()
                assert fused[day, lane].tobytes() == \
                    reference.prediction.tobytes(), (program.name, day)
