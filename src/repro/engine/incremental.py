"""Incremental (day-at-a-time) execution of one backend.

The offline protocol (:mod:`repro.engine.protocol`) recomputes an alpha's
whole history per call; for serving — one new market bar per day — the only
state an alpha carries between days is its operand memory, so advancing by
one day costs exactly one ``Predict()`` pass plus a label reveal,
independent of how much history precedes it.

:class:`IncrementalExecutor` packages that contract around any suspendable
:class:`~repro.engine.backends.ExecutionEngine` (today: the compiled
backend, whose tape protocol provides ``suspend``/``resume``):

* :meth:`warm_start` replays the training stage once by delegating to
  :func:`repro.engine.protocol.training_pass` — the same code, day for
  day, as the offline evaluator, including the ``max_train_steps``
  subsample whose indices the caller passes through;
* :meth:`step` advances one inference day and returns the prediction;
* :meth:`reveal` writes the realised label *after* the prediction was
  taken, exactly as :func:`~repro.engine.protocol.stream_days` orders it;
* :meth:`suspend` / :meth:`resume` round-trip the rolling operand state
  through the backend's tape protocol, so serving can be checkpointed
  mid-stream and continue bitwise identically;
* :meth:`correct` delta-replays a point correction to an already-served
  bar: a bounded ring of per-day group snapshots (depth from the
  compile-time lookback analysis; see
  :meth:`~repro.compile.stacked.StackedAlpha.snapshot`) plus the permanent
  warm-start anchor let a correction
  at day ``t`` replay only the invalidated suffix instead of the whole
  history — bitwise-identical to a full warm-start replay
  (:mod:`repro.engine.replay`).

The public streaming alias is :class:`repro.stream.incremental.IncrementalAlpha`.
"""

from __future__ import annotations

import numpy as np

from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE
from ..core.ops import ExecutionContext
from ..core.program import AlphaProgram
from ..errors import StreamError
from .backends import ExecutionEngine, make_backend
from .protocol import training_pass
from .replay import (
    CorrectionResult, SnapshotRing, replay_correction, ring_snapshot,
    snapshot_depth_for,
)

__all__ = ["IncrementalExecutor"]


class IncrementalExecutor:
    """One execution backend advanced one day at a time.

    Parameters
    ----------
    program:
        The alpha to serve.
    ctx:
        The evaluation context to bind the backend to.  For parity with an
        offline :class:`~repro.core.interpreter.AlphaEvaluator`, build it
        with :meth:`~repro.core.interpreter.AlphaEvaluator.make_context` of
        an evaluator constructed with the same seed.
    address_space:
        Operand address-space sizes used for program validation.
    engine:
        Backend selection (see :data:`repro.engine.ENGINES`).  Suspend and
        resume require a backend with a tape protocol (the compiled one).
    backend:
        A pre-built backend to wrap instead of constructing one — how
        :class:`~repro.engine.fleet.FleetEngine` shares a single
        :class:`~repro.core.ops.ExecutionContext` across its members.
    """

    def __init__(
        self,
        program: AlphaProgram,
        ctx: ExecutionContext | None = None,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
        engine: str = "compiled",
        backend: ExecutionEngine | None = None,
    ) -> None:
        if backend is None:
            if ctx is None:
                raise StreamError(
                    "an execution context is required to build the backend"
                )
            backend = make_backend(
                program, ctx, engine=engine, address_space=address_space
            )
        self.program = program
        self.executor = backend
        #: Inference days served since the warm start.
        self.days_served = 0
        self._warmed = False
        self._awaiting_label = False
        #: Delta-replay state: a bounded ring of per-day group snapshots
        #: plus the permanent warm/resume anchor; ring entries share the
        #: operands serving never writes with ``_base``, the snapshot taken
        #: at warm start or resume.  Only the compiled backend (a one-lane
        #: StackedAlpha) can snapshot; the interpreter serves corrections
        #: through the bounded-lookback spin-up path alone.
        self._can_snapshot = (
            getattr(self.executor, "snapshot", None) is not None
        )
        self._ring: SnapshotRing | None = None
        self._anchor: tuple[int, object] | None = None
        self._base = None
        self._lookback_cache = None

    # ------------------------------------------------------------------
    @property
    def lookback(self):
        """The program's :class:`~repro.compile.lookback.LookbackInfo`."""
        if self._lookback_cache is None:
            compiled = getattr(self.executor, "compiled", None)
            if compiled is not None and compiled.lookback is not None:
                self._lookback_cache = compiled.lookback
            else:
                # Interpreter backend: the dataflow (and therefore the
                # horizon structure) is engine-independent, so compile for
                # analysis only.
                from ..compile import compile_program

                self._lookback_cache = compile_program(self.program).lookback
        return self._lookback_cache

    @property
    def max_lookback(self) -> int | None:
        """Replay spin-up bound (``None`` = unbounded recurrence)."""
        return self.lookback.max_lookback

    def _ensure_ring(self) -> SnapshotRing | None:
        if not self._can_snapshot:
            return None
        if self._ring is None:
            self._ring = SnapshotRing(snapshot_depth_for(self.max_lookback))
        return self._ring

    def _take_snapshot(self):
        return ring_snapshot(self.executor, self._base)

    def _set_anchor(self) -> None:
        if self._can_snapshot:
            self._base = self.executor.snapshot()
            self._anchor = (self.days_served, self._base)

    def replay_state(self) -> dict:
        """The persistable delta-replay state (anchor + ring entries).

        Snapshots leave as per-program
        :class:`~repro.compile.stacked.TapeState` objects.
        """
        materialize = self.executor.materialize if self._can_snapshot else None
        entries = self._ring.entries() if self._ring is not None else ()
        return {
            "anchor": None if self._anchor is None else (
                self._anchor[0], materialize(0, self._anchor[1])
            ),
            "entries": tuple(
                (day, materialize(0, snapshot)) for day, snapshot in entries
            ),
        }

    def restore_replay_state(self, payload: dict) -> None:
        """Restore :meth:`replay_state` output (after :meth:`resume`)."""
        if not self._can_snapshot:
            return
        snapshot_of = self.executor.snapshot_of
        anchor = payload.get("anchor")
        if anchor is not None:
            self._anchor = (int(anchor[0]), snapshot_of([anchor[1]]))
        entries = payload.get("entries") or ()
        if entries:
            self._ring = SnapshotRing(
                snapshot_depth_for(self.max_lookback),
                [(day, snapshot_of([state])) for day, state in entries],
            )

    # ------------------------------------------------------------------
    @property
    def is_warm(self) -> bool:
        """Whether the alpha went through setup + training and can serve."""
        return self._warmed

    # ------------------------------------------------------------------
    def warm_start(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        day_indices: np.ndarray | None = None,
        use_update: bool = True,
    ) -> None:
        """Run ``Setup()`` plus the single-epoch training pass.

        ``features`` has shape ``(D, K, f, w)`` and ``labels`` ``(D, K)``;
        ``day_indices`` selects the visited subsample (defaults to every day
        in order) and must match the offline evaluator's
        :meth:`~repro.core.interpreter.AlphaEvaluator.train_day_indices` for
        the two paths to stay bitwise identical.  The loop itself is the
        shared :func:`repro.engine.protocol.training_pass`, kept day-by-day
        so the suspended operand state evolves exactly as a live process's
        would.
        """
        if self._warmed:
            raise StreamError("alpha is already warm; construct a fresh one "
                              "or resume a suspended state instead")
        self.executor.run_setup()
        training_pass(
            self.executor, features, labels,
            day_indices=day_indices, use_update=use_update,
        )
        self._warmed = True
        self._set_anchor()

    # ------------------------------------------------------------------
    def step(self, features: np.ndarray) -> np.ndarray:
        """Advance one inference day and return the ``(K,)`` prediction.

        Mirrors one iteration of the offline inference loop: the day's
        feature matrices go into ``m0``, ``Predict()`` runs once, and the
        prediction is returned *before* the day's label exists.  Call
        :meth:`reveal` once the label realises.
        """
        if not self._warmed:
            raise StreamError("alpha must be warm-started (or resumed) "
                              "before it can serve days")
        if self._awaiting_label:
            raise StreamError("previous day's label was never revealed; "
                              "call reveal() between steps")
        executor = self.executor
        executor.set_input(features)
        executor.run_predict()
        self.days_served += 1
        self._awaiting_label = True
        return executor.prediction.copy()

    def reveal(self, labels: np.ndarray) -> None:
        """Write the realised ``(K,)`` labels of the last stepped day.

        The offline inference stage never runs ``Update()`` — the trained
        parameters are frozen — and neither does this; the label is only
        made visible so the next day's ``Predict()`` reads what the batch
        path would read.
        """
        if not self._awaiting_label:
            raise StreamError("no prediction is pending a label; "
                              "call step() first")
        self.executor.set_label(labels)
        self._awaiting_label = False
        ring = self._ensure_ring()
        if ring is not None:
            ring.push(self.days_served, self._take_snapshot())

    # ------------------------------------------------------------------
    def correct(
        self,
        day: int,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> CorrectionResult:
        """Delta-replay a correction to already-served day ``day``.

        ``features``/``labels`` are the *corrected* full served history
        (``(days_served, K, f, w)`` / ``(days_served, K)``).  Restores the
        newest clean snapshot at or before ``day`` — or, when the
        compile-time lookback bound is finite and cheaper, spins up from
        the current live state — and replays only the invalidated suffix.
        Predictions and the final operand state are bitwise-identical to a
        full warm-start replay of the corrected history; ``days_served``
        is unchanged.
        """
        if not self._warmed:
            raise StreamError("alpha must be warm-started (or resumed) "
                              "before it can correct days")
        if self._awaiting_label:
            raise StreamError("previous day's label was never revealed; "
                              "reveal it before correcting history")
        return replay_correction(
            self.executor, day, features, labels,
            days_served=self.days_served,
            max_lookback=self.max_lookback,
            ring=self._ensure_ring(),
            anchor=self._anchor,
            take_snapshot=(self._take_snapshot if self._can_snapshot
                           else None),
            restore_snapshot=(self.executor.restore if self._can_snapshot
                              else None),
            what=self.program.name,
        )

    # ------------------------------------------------------------------
    def _tape_protocol(self, method: str):
        handler = getattr(self.executor, method, None)
        if handler is None:
            raise StreamError(
                f"the {type(self.executor).__name__} backend has no "
                f"suspend/resume tape protocol; serve it through the "
                f"compiled engine to checkpoint mid-stream"
            )
        return handler

    def suspend(self):
        """Snapshot the rolling operand state (the backend's tape state)."""
        if self._awaiting_label:
            raise StreamError("cannot suspend between step() and reveal(); "
                              "reveal the pending label first")
        return self._tape_protocol("suspend")()

    def resume(self, state, days_served: int = 0) -> None:
        """Restore a snapshot into this (fresh, un-warmed) executor."""
        if self._warmed:
            raise StreamError("cannot resume into an alpha that already ran; "
                              "construct a fresh one")
        self._tape_protocol("resume")(state)
        self.days_served = int(days_served)
        self._warmed = True
        # The resumed state is a clean snapshot entering this day; retain it
        # so corrections at or after the resume point need no warm anchor.
        # (restore_replay_state can still supply the original day-0 anchor.)
        self._set_anchor()
