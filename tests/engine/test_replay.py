"""Bounded delta-replay parity: ``IncrementalExecutor.correct`` vs full replay.

The hard contract of :mod:`repro.engine.replay`: a point correction to an
already-served bar, delta-replayed from a retained snapshot or a bounded
lookback spin-up, must be **bitwise identical** to throwing the executor
away and fully re-warm-starting over the corrected history — for the
replayed suffix, for every day served afterwards, and across
suspend/resume round trips through serialized replay state.

Ring entries are group snapshots that share the operands serving never
writes with the warm/resume anchor; every lane of every entry must still
materialise, byte for byte, to the :class:`~repro.compile.TapeState`
``suspend_member`` returns on that day.
"""

import numpy as np
import pytest

from repro.compile import GroupSnapshot, StackedAlpha
from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    INPUT_MATRIX,
    LABEL,
    Operand,
    Operation,
    PREDICTION,
    get_initialization,
)
from repro.engine import FleetEngine, IncrementalExecutor
from repro.engine.replay import (
    DEFAULT_UNBOUNDED_DEPTH,
    SnapshotRing,
    snapshot_depth_for,
)
from repro.errors import StreamError
from repro.obs import TELEMETRY, telemetry_session
from tests.engine.test_stacked import make_generation

SERVE_DAYS = 12
TAIL_DAYS = 3

S3, S4 = Operand.scalar(3), Operand.scalar(4)


def recurrent_alpha():
    """An EMA-style accumulator: unbounded lookback (``max_lookback=None``)."""
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S3, S4), S3),
            Operation.make("s_add", (S3, S4), PREDICTION),
        ],
        update=[],
        name="recurrent",
    )


def fuzz_programs(dims, mutator, count=6):
    bases = [get_initialization(code, dims, seed=3) for code in ("D", "NN")]
    programs = []
    while len(programs) < count:
        program = bases[len(programs) % len(bases)]
        for _ in range(len(programs) % 3):
            program = mutator.mutate(program)
        programs.append(program)
    return programs


def warm_executor(evaluator, program, engine="compiled"):
    taskset = evaluator.taskset
    executor = IncrementalExecutor(
        program, evaluator.make_context(), engine=engine
    )
    executor.warm_start(
        taskset.split_features("train"),
        taskset.split_labels("train"),
        day_indices=evaluator.train_day_indices(),
        use_update=evaluator.use_update,
    )
    return executor


def serve(executor, features, labels, start, stop):
    """Step days ``start .. stop`` and return the stacked predictions."""
    predictions = []
    for day in range(start, stop):
        predictions.append(executor.step(features[day]))
        executor.reveal(labels[day])
    return np.array(predictions)


def served_history(evaluator):
    taskset = evaluator.taskset
    features = taskset.split_features("valid")[:SERVE_DAYS + TAIL_DAYS]
    labels = taskset.split_labels("valid")[:SERVE_DAYS + TAIL_DAYS]
    return features, labels


class TestSnapshotRing:
    def state(self, tag):
        return {"tag": tag}

    def test_retains_newest_depth_entries(self):
        ring = SnapshotRing(3)
        for day in range(6):
            ring.push(day, self.state(day))
        assert len(ring) == 3
        assert [day for day, _ in ring.entries()] == [3, 4, 5]

    def test_same_day_push_replaces(self):
        ring = SnapshotRing(4)
        ring.push(2, self.state("old"))
        ring.push(2, self.state("new"))
        assert len(ring) == 1
        assert ring.entries()[0][1]["tag"] == "new"

    def test_decreasing_day_raises(self):
        ring = SnapshotRing(4)
        ring.push(5, self.state(5))
        with pytest.raises(StreamError, match="non-decreasing"):
            ring.push(3, self.state(3))

    def test_latest_at_or_before(self):
        ring = SnapshotRing(8)
        for day in (1, 4, 7):
            ring.push(day, self.state(day))
        assert ring.latest_at_or_before(5) == (4, self.state(4))
        assert ring.latest_at_or_before(7) == (7, self.state(7))
        assert ring.latest_at_or_before(0) is None

    def test_truncate_after_drops_stale_timeline(self):
        ring = SnapshotRing(8)
        for day in (1, 4, 7):
            ring.push(day, self.state(day))
        ring.truncate_after(4)
        assert [day for day, _ in ring.entries()] == [1, 4]

    def test_rebuild_from_entries(self):
        ring = SnapshotRing(4)
        for day in (2, 3, 4):
            ring.push(day, self.state(day))
        rebuilt = SnapshotRing(4, ring.entries())
        assert rebuilt.entries() == ring.entries()

    def test_snapshot_depth_for(self):
        assert snapshot_depth_for(None) == DEFAULT_UNBOUNDED_DEPTH
        assert snapshot_depth_for(0) == 1
        assert snapshot_depth_for(5) == 5


class TestCorrectionParity:
    def correct_and_compare(self, evaluator, program, correction_day,
                            engine="compiled"):
        """Delta-correct one served bar and compare to a full replay."""
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, program, engine=engine)
        serve(executor, features, labels, 0, SERVE_DAYS)

        corrected = np.array(features, copy=True)
        corrected[correction_day] = corrected[correction_day] * 1.01
        result = executor.correct(
            correction_day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS]
        )
        assert result.day == correction_day
        assert result.replayed_days == SERVE_DAYS - result.start_day
        assert result.predictions.shape == (
            SERVE_DAYS - correction_day, evaluator.taskset.num_tasks
        )

        reference = warm_executor(evaluator, program, engine=engine)
        full = serve(reference, corrected, labels, 0, SERVE_DAYS)
        assert (result.predictions.tobytes()
                == full[correction_day:].tobytes()), (
            f"{program.name}: corrected suffix diverged from full replay"
        )
        # The rolling state must serve the future identically too.
        delta_tail = serve(executor, corrected, labels,
                           SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        full_tail = serve(reference, corrected, labels,
                          SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        assert delta_tail.tobytes() == full_tail.tobytes(), (
            f"{program.name}: post-correction serving diverged"
        )
        return result

    def test_fuzzed_compiled_corrections_match_full_replay(
        self, evaluator, dims, mutator
    ):
        for index, program in enumerate(fuzz_programs(dims, mutator)):
            self.correct_and_compare(evaluator, program,
                                     correction_day=(3 * index) % SERVE_DAYS)

    def test_snapshot_path_replays_only_the_suffix(self, evaluator, dims):
        result = self.correct_and_compare(
            evaluator, get_initialization("NN", dims, seed=3),
            correction_day=SERVE_DAYS - 2,
        )
        assert result.mode in ("snapshot", "spinup")
        assert result.replayed_days <= 2 + 1  # suffix + at most L=1 spin-up

    def test_unbounded_program_corrects_from_ring(self, evaluator):
        result = self.correct_and_compare(
            evaluator, recurrent_alpha(),
            correction_day=SERVE_DAYS - 4,
        )
        assert result.mode == "snapshot"

    def test_interpreter_spins_up_without_snapshots(self, evaluator, dims):
        # The interpreter has no tape protocol: corrections must come out of
        # the bounded-lookback spin-up alone, still bitwise-exact.
        result = self.correct_and_compare(
            evaluator, get_initialization("NN", dims, seed=3),
            correction_day=5, engine="interpreter",
        )
        assert result.mode == "spinup"

    def test_interpreter_unbounded_correction_raises(self, evaluator):
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, recurrent_alpha(),
                                 engine="interpreter")
        serve(executor, features, labels, 0, SERVE_DAYS)
        with pytest.raises(StreamError, match="unbounded"):
            executor.correct(3, features[:SERVE_DAYS], labels[:SERVE_DAYS])

    def test_out_of_order_corrections_truncate_the_ring(
        self, evaluator, dims
    ):
        # A second correction *earlier* than the first must not restore a
        # snapshot contaminated by the first correction's replay.
        program = get_initialization("NN", dims, seed=3)
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, program)
        serve(executor, features, labels, 0, SERVE_DAYS)

        corrected = np.array(features, copy=True)
        for day in (9, 4):
            corrected[day] = corrected[day] * 1.02
            executor.correct(day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS])

        reference = warm_executor(evaluator, program)
        full = serve(reference, corrected, labels, 0, SERVE_DAYS)
        delta_tail = serve(executor, corrected, labels,
                           SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        full_tail = serve(reference, corrected, labels,
                          SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        assert delta_tail.tobytes() == full_tail.tobytes()
        assert full.shape[0] == SERVE_DAYS  # reference replayed everything


class TestCorrectionGuards:
    def test_correct_before_warm_raises(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        executor = IncrementalExecutor(program, evaluator.make_context())
        features, labels = served_history(evaluator)
        with pytest.raises(StreamError, match="warm"):
            executor.correct(0, features[:1], labels[:1])

    def test_correct_with_pending_label_raises(self, evaluator, dims):
        features, labels = served_history(evaluator)
        executor = warm_executor(
            evaluator, get_initialization("D", dims, seed=3)
        )
        executor.step(features[0])
        with pytest.raises(StreamError, match="reveal"):
            executor.correct(0, features[:1], labels[:1])

    def test_correct_unserved_day_raises(self, evaluator, dims):
        features, labels = served_history(evaluator)
        executor = warm_executor(
            evaluator, get_initialization("D", dims, seed=3)
        )
        serve(executor, features, labels, 0, 4)
        with pytest.raises(StreamError, match="4 days served"):
            executor.correct(4, features[:4], labels[:4])

    def test_short_history_raises(self, evaluator, dims):
        features, labels = served_history(evaluator)
        executor = warm_executor(
            evaluator, get_initialization("D", dims, seed=3)
        )
        serve(executor, features, labels, 0, 4)
        with pytest.raises(StreamError, match="cover all 4 served days"):
            executor.correct(1, features[:3], labels[:3])


class TestReplayStateRoundTrip:
    def test_correct_after_resume_matches_live_executor(self, evaluator):
        # Unbounded program: a correction before the resume point is only
        # serveable if the persisted ring/anchor came back too.
        program = recurrent_alpha()
        features, labels = served_history(evaluator)
        live = warm_executor(evaluator, program)
        serve(live, features, labels, 0, SERVE_DAYS)

        state = live.suspend()
        payload = live.replay_state()

        resumed = IncrementalExecutor(program, evaluator.make_context())
        resumed.resume(state, days_served=SERVE_DAYS)
        resumed.restore_replay_state(payload)

        day = SERVE_DAYS - 5
        corrected = np.array(features, copy=True)
        corrected[day] = corrected[day] * 1.01
        from_resumed = resumed.correct(
            day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS]
        )
        from_live = live.correct(
            day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS]
        )
        assert (from_resumed.predictions.tobytes()
                == from_live.predictions.tobytes())
        assert from_resumed.start_day == from_live.start_day
        tail_resumed = serve(resumed, corrected, labels,
                             SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        tail_live = serve(live, corrected, labels,
                          SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        assert tail_resumed.tobytes() == tail_live.tobytes()

    def test_resume_without_replay_state_cannot_reach_back(self, evaluator):
        program = recurrent_alpha()
        features, labels = served_history(evaluator)
        live = warm_executor(evaluator, program)
        serve(live, features, labels, 0, SERVE_DAYS)

        resumed = IncrementalExecutor(program, evaluator.make_context())
        resumed.resume(live.suspend(), days_served=SERVE_DAYS)
        # Without the persisted ring, the resume anchor (day 12) is the only
        # snapshot — nothing covers an earlier day of an unbounded program.
        with pytest.raises(StreamError, match="full warm-start replay"):
            resumed.correct(3, features[:SERVE_DAYS], labels[:SERVE_DAYS])


def assert_same_state(actual, expected):
    """Two :class:`TapeState` objects are equal byte for byte."""
    assert (actual.version, actual.tape_key, actual.base_seed, actual.shape) \
        == (expected.version, expected.tape_key, expected.base_seed,
            expected.shape)
    assert list(actual.operands) == list(expected.operands)
    for name, array in expected.operands.items():
        got = actual.operands[name]
        assert (got.dtype, got.shape) == (array.dtype, array.shape), name
        assert got.tobytes() == array.tobytes(), name


def lane_states(fleet):
    """key → ``suspend_member`` of its lane, for every serving group."""
    return {
        key: unit.backend.suspend_member(lane)
        for unit in fleet._units
        for lane, key in enumerate(unit.keys)
    }


def predict_written(backend):
    """Operands serving rewrites: ``s0`` plus Predict()'s carried exports."""
    template = backend.group[0]
    return {LABEL} | (set(template.ir.components["predict"].exports)
                      & template.dataflow.carried)


class TestGroupSnapshots:
    """Replay rings hold one group snapshot per unit and bar."""

    def serve_fleet(self, fleet, features, labels, start, stop,
                    captured=None):
        for day in range(start, stop):
            fleet.step_bar(features[day])
            fleet.reveal(labels[day])
            if captured is not None:
                captured[day + 1] = lane_states(fleet)

    def test_replay_states_match_suspend_member_of_that_day(
        self, small_taskset, evaluator, dims, mutator
    ):
        generation = make_generation(dims, mutator)
        features, labels = served_history(evaluator)
        fleet = FleetEngine(evaluator)
        for program in generation:
            fleet.add(program)
        assert fleet.stack_groups >= 2
        fleet.warm_start()
        assert any(len(unit.keys) == 1 for unit in fleet._units)

        self.serve_fleet(fleet, features, labels, 0, 10)
        corrected = np.array(features, copy=True)
        corrected[7] = corrected[7] * 1.01
        fleet.correct(7, corrected[:10], labels[:10])
        corrected_labels = np.array(labels, copy=True)
        corrected_labels[9] = -corrected_labels[9]
        fleet.correct(9, corrected[:10], corrected_labels[:10])
        self.serve_fleet(fleet, corrected, corrected_labels, 10, SERVE_DAYS)

        # The reference: suspend_member on every day of a clean serve of
        # the corrected history.
        reference = FleetEngine(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        )
        for program in generation:
            reference.add(program)
        reference.warm_start()
        captured = {0: lane_states(reference)}
        self.serve_fleet(reference, corrected, corrected_labels, 0,
                         SERVE_DAYS, captured)

        payloads = fleet.suspend_replay_states()
        assert set(payloads) == set(captured[0])
        checked = 0
        for key, payload in payloads.items():
            day, state = payload["anchor"]
            assert day == 0
            assert_same_state(state, captured[0][key])
            assert payload["entries"]
            for day, state in payload["entries"]:
                assert_same_state(state, captured[day][key])
                checked += 1
        assert checked >= len(payloads)
        for key, state in fleet.suspend_tapes().items():
            assert_same_state(state, captured[SERVE_DAYS][key])

    def test_ring_entries_share_the_operands_predict_never_writes(
        self, evaluator, dims, mutator
    ):
        features, labels = served_history(evaluator)
        fleet = FleetEngine(evaluator)
        for program in make_generation(dims, mutator):
            fleet.add(program)
        fleet.warm_start()
        self.serve_fleet(fleet, features, labels, 0, 4)
        frozen_seen = 0
        for unit in fleet._units:
            _, anchor = unit._anchor
            written = predict_written(unit.backend)
            for _, snapshot in unit._ring.entries():
                assert isinstance(snapshot, GroupSnapshot)
                assert snapshot.shared_m0
                assert snapshot.m0.shape == features[0].shape
                for operand, array in snapshot.operands.items():
                    private = not np.shares_memory(
                        array, anchor.operands[operand]
                    )
                    assert private == (operand in written), operand.name
                    frozen_seen += operand not in written
        assert frozen_seen

    def test_resumed_lanes_with_different_m0_snapshot_in_full(
        self, small_taskset, evaluator, dims, mutator
    ):
        features, labels = served_history(evaluator)
        family = make_generation(dims, mutator)[:3]  # one signature group
        states = []
        for lane, program in enumerate(family):
            solo = warm_executor(evaluator, program)
            serve(solo, features, labels, 0, lane + 1)
            states.append(solo.suspend())
        m0 = INPUT_MATRIX.name
        assert states[0].operands[m0].tobytes() != \
            states[1].operands[m0].tobytes()

        fleet = FleetEngine(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        )
        for program in family:
            fleet.add(program)
        assert fleet.stack_groups == 1
        tapes = {fleet.key_of(program.name): state
                 for program, state in zip(family, states)}
        fleet.resume_tapes(tapes, days_served=3)
        (unit,) = fleet._units
        backend = unit.backend
        assert isinstance(backend, StackedAlpha)
        _, anchor = unit._anchor
        entry = backend.snapshot(anchor)
        for snapshot in (anchor, entry):
            assert not snapshot.shared_m0
            assert snapshot.m0.shape == (3,) + features[0].shape
            for lane, state in enumerate(states):
                assert_same_state(backend.materialize(lane, snapshot), state)
        for key, payload in fleet.suspend_replay_states().items():
            assert_same_state(payload["anchor"][1], tapes[key])

        # The next bar puts one shared m0 back in every lane.
        fleet.step_bar(features[3])
        fleet.reveal(labels[3])
        (_, latest), = unit._ring.entries()
        assert latest.shared_m0
        for lane in range(len(family)):
            assert_same_state(backend.materialize(lane, latest),
                              backend.suspend_member(lane))

    def test_solo_executor_pushes_group_snapshots(self, evaluator, dims):
        program = get_initialization("NN", dims, seed=3)
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, program)
        captured = {0: executor.suspend()}
        for day in range(SERVE_DAYS):
            executor.step(features[day])
            executor.reveal(labels[day])
            captured[day + 1] = executor.suspend()
        assert all(isinstance(snapshot, GroupSnapshot)
                   for _, snapshot in executor._ring.entries())
        payload = executor.replay_state()
        assert_same_state(payload["anchor"][1], captured[0])
        for day, state in payload["entries"]:
            assert_same_state(state, captured[day])

    def test_snapshot_bytes_counts_only_ring_copies(self, evaluator, dims):
        program = get_initialization("NN", dims, seed=3)
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, program)
        with telemetry_session():
            serve(executor, features, labels, 0, 3)
            counted = TELEMETRY.snapshot()["stream.snapshot_bytes"]
        entries = [snapshot for _, snapshot in executor._ring.entries()]
        anchor = executor._anchor[1]
        per_bar = entries[-1].copied_nbytes(anchor)
        full = anchor.copied_nbytes()
        assert 0 < per_bar < full
        assert counted["value"] == 3 * per_bar
        assert not TELEMETRY.enabled
