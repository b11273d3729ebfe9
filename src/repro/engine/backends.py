"""Execution backends: the engine-layer contract and its implementations.

Every way this repository executes an alpha program — the reference
interpreter, the compiled flat tape, the incremental streaming executor,
whole fleets — speaks one small per-day vocabulary, the
:class:`ExecutionEngine` protocol:

``run_setup`` · ``set_input`` · ``run_predict`` · ``prediction`` ·
``set_label`` · ``run_update``

plus two capability flags (``supports_fused_inference`` /
``supports_static_predict``) and the batched kernel entry point
``run_inference_batch`` that the time-vectorised fast paths of
:mod:`repro.engine.protocol` dispatch on.  The *protocol* (which day-loop
runs, when labels are revealed) lives entirely in
:mod:`repro.engine.protocol`; backends only know how to execute one
component once.  That split is what keeps the train/inference label-reveal
protocol implemented exactly once, however many backends exist.

Two backends ship:

* :class:`InterpreterBackend` — the reference semantics: a vectorised
  :class:`~repro.core.memory.Memory` plus direct
  :class:`~repro.core.ops.OpSpec` dispatch, one operation at a time.
* :class:`CompiledBackend` — the compilation pipeline
  (:mod:`repro.compile`): one program as a one-lane
  :class:`~repro.compile.stacked.StackedAlpha` tape (pre-resolved
  dispatch, preallocated buffers, static hoisting, fused/batched kernels
  and the suspend/resume tape protocol) with the lane axis dropped.
  Bitwise identical to the interpreter (a hard, tested contract).

:func:`make_backend` is the single constructor every consumer goes through;
``--engine`` on the CLI, ``EvolutionConfig.engine`` and
``AlphaEvaluator(engine=...)`` all resolve to one of :data:`ENGINES`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE
from ..core.memory import INPUT_MATRIX, LABEL, Memory, PREDICTION
from ..core.ops import ExecutionContext
from ..core.program import AlphaProgram
from ..errors import EngineError
from ..compile import StackedAlpha, TapeState, compile_program

__all__ = [
    "ENGINES",
    "ExecutionEngine",
    "InterpreterBackend",
    "CompiledBackend",
    "make_backend",
    "resolve_engine",
]

#: The selectable execution engines, in reference-first order.
ENGINES = ("interpreter", "compiled")


def resolve_engine(engine: str | None = None,
                   compiled: bool | None = None) -> str:
    """Resolve an engine name from the new-style and legacy selectors.

    ``engine`` (a name from :data:`ENGINES`) wins when given; otherwise the
    historical ``compiled`` flag maps ``True`` → ``"compiled"`` and
    ``False`` → ``"interpreter"``; with neither, the default is
    ``"compiled"``.
    """
    if engine is not None:
        if engine not in ENGINES:
            raise EngineError(
                f"unknown execution engine {engine!r}; choose from "
                + ", ".join(ENGINES)
            )
        return engine
    if compiled is None:
        return "compiled"
    return "compiled" if compiled else "interpreter"


@runtime_checkable
class ExecutionEngine(Protocol):
    """The per-day execution contract every backend implements.

    The protocol deliberately contains no loops: the day-loop (and the
    label-reveal ordering that defines the paper's training/inference
    protocol) is implemented once in :mod:`repro.engine.protocol` and
    drives any object that satisfies this interface — single programs,
    compiled tapes, or whole fleets.
    """

    def run_setup(self) -> None:
        """Run ``Setup()`` once (plus any backend-private prologue)."""

    def set_input(self, features: np.ndarray) -> None:
        """Load one day's ``(K, f, w)`` feature matrices into ``m0``."""

    def run_predict(self) -> None:
        """Run ``Predict()`` for the current day."""

    @property
    def prediction(self) -> np.ndarray:
        """The ``(K,)`` prediction left by the last ``run_predict``."""

    def set_label(self, labels: np.ndarray) -> None:
        """Reveal one day's realised ``(K,)`` labels into ``s0``."""

    def run_update(self) -> None:
        """Run ``Update()`` for the current day."""

    @property
    def supports_fused_inference(self) -> bool:
        """Whether the inference stage may run as one batched tape pass."""

    @property
    def supports_static_predict(self) -> bool:
        """Whether the whole ``Predict()`` tape is day-loop invariant.

        True when ``Predict()`` depends on no ``Update()``-carried state
        (nor the label, nor its own writes), so *training-stage*
        predictions may also be computed in one ``(T, K, ...)`` kernel
        call — see :func:`repro.engine.protocol.training_pass`.
        """

    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Predict ``(D, K, f, w)`` days in one vectorised kernel call."""


class InterpreterBackend:
    """The reference backend: vectorised memory + per-operation dispatch.

    Executes exactly what the historical interpreter loop of
    :class:`~repro.core.interpreter.AlphaEvaluator` executed — every
    operation reads operand arrays from a :class:`~repro.core.memory.Memory`
    and writes its (sanitised) result back — and defines the semantics all
    other backends are asserted bitwise identical to.
    """

    #: The interpreter never batches: it is the reference day loop.
    supports_fused_inference = False
    supports_static_predict = False

    def __init__(
        self,
        program: AlphaProgram,
        ctx: ExecutionContext,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
    ) -> None:
        program.validate(address_space)
        self.program = program
        self.ctx = ctx
        self._memory = Memory(
            num_tasks=ctx.num_tasks,
            num_features=ctx.num_features,
            window=ctx.window,
            address_space=address_space,
        )
        self._tapes = {
            name: [(op.spec, op.inputs, op.output, op.param_dict)
                   for op in operations]
            for name, operations in program.components().items()
        }

    # ------------------------------------------------------------------
    def _execute(self, tape) -> None:
        memory = self._memory
        ctx = self.ctx
        for spec, inputs, output, params in tape:
            arrays = tuple(memory.read(operand) for operand in inputs)
            memory.write(output, spec(ctx, arrays, params))

    def run_setup(self) -> None:
        """Run ``Setup()`` once."""
        self._execute(self._tapes["setup"])

    def run_predict(self) -> None:
        """Run ``Predict()`` for the current day."""
        self._execute(self._tapes["predict"])

    def run_update(self) -> None:
        """Run ``Update()`` for the current day."""
        self._execute(self._tapes["update"])

    def set_input(self, features: np.ndarray) -> None:
        """Load one day's feature matrices into ``m0``."""
        self._memory.write(INPUT_MATRIX, features)

    def set_label(self, labels: np.ndarray) -> None:
        """Reveal one day's labels into ``s0``."""
        self._memory.write(LABEL, labels)

    @property
    def prediction(self) -> np.ndarray:
        """The ``(K,)`` prediction left by the last ``run_predict``."""
        return self._memory.read(PREDICTION)

    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """The interpreter has no batched kernels — always loop over days."""
        raise EngineError(
            "the interpreter backend does not batch over days; "
            "drive it through the day loop"
        )


class CompiledBackend(StackedAlpha):
    """The compiled tape backend for one program: a one-lane group.

    Validates the program, runs the execution compilation pipeline and
    binds the result as a one-lane
    :class:`~repro.compile.stacked.StackedAlpha`, so callers that hold an
    :class:`~repro.core.program.AlphaProgram` need not touch
    :mod:`repro.compile` directly.  This is the one place the lane axis is
    dropped: :attr:`prediction` is ``(K,)``, :meth:`run_inference_batch`
    returns ``(D, K)`` and :meth:`suspend` / :meth:`resume` exchange a
    single :class:`~repro.compile.stacked.TapeState`.
    """

    def __init__(
        self,
        program: AlphaProgram,
        ctx: ExecutionContext,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
    ) -> None:
        program.validate(address_space)
        #: The compiled artefact (its lookback feeds delta-replay).
        self.compiled = compile_program(program)
        super().__init__([self.compiled], ctx)
        self._lane_prediction = self._prediction[0]

    @property
    def prediction(self) -> np.ndarray:
        """The ``(K,)`` prediction left by the last ``run_predict``."""
        return self._lane_prediction

    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Predict ``(D, K, f, w)`` days in batched tape passes → ``(D, K)``."""
        return super().run_inference_batch(features)[:, 0]

    def suspend(self) -> TapeState:
        """Snapshot the loop-carried state (see :meth:`suspend_member`)."""
        return self.suspend_member(0)

    def resume(self, state: TapeState) -> None:
        """Restore a :meth:`suspend` snapshot into this fresh backend."""
        super().resume([state])


#: Engine name → backend class.
_BACKENDS = {
    "interpreter": InterpreterBackend,
    "compiled": CompiledBackend,
}


def make_backend(
    program: AlphaProgram,
    ctx: ExecutionContext,
    engine: str = "compiled",
    address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
) -> ExecutionEngine:
    """Build the backend named ``engine`` for ``program`` bound to ``ctx``."""
    return _BACKENDS[resolve_engine(engine)](program, ctx, address_space)
