"""Incremental (day-at-a-time) serving of one compiled alpha.

:class:`IncrementalAlpha` is the streaming subsystem's public name for the
engine layer's :class:`~repro.engine.incremental.IncrementalExecutor`
bound to the compiled backend: ``warm_start`` replays the training stage
through the single protocol implementation
(:func:`repro.engine.protocol.training_pass`), ``step``/``reveal`` advance
one inference day with the offline label-reveal ordering, and
``suspend``/``resume`` round-trip the rolling operand state through the
tape protocol of :mod:`repro.compile.stacked` so a server can be
checkpointed mid-stream and continue bitwise identically.

Bitwise parity with the batched offline path is the design contract, tested
by ``tests/stream`` with fuzzed programs: for every day ``d`` of a split,
``step(features[d])`` equals row ``d`` of
``AlphaEvaluator.run(program)[split]`` bit for bit.  The class keeps its
historical constructor signature; it is now a thin shim over the engine
layer (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE
from ..core.ops import ExecutionContext
from ..core.program import AlphaProgram
from ..engine.incremental import IncrementalExecutor

__all__ = ["IncrementalAlpha"]


class IncrementalAlpha(IncrementalExecutor):
    """One compiled alpha advanced one day at a time.

    Parameters
    ----------
    program:
        The alpha to serve; compiled through the execution pipeline
        (:func:`repro.compile.compile_program`) at construction.
    ctx:
        The evaluation context to bind the tape to.  For parity with an
        offline :class:`~repro.core.interpreter.AlphaEvaluator`, build it
        with :meth:`~repro.core.interpreter.AlphaEvaluator.make_context` of
        an evaluator constructed with the same seed.
    address_space:
        Operand address-space sizes used for program validation.
    """

    def __init__(
        self,
        program: AlphaProgram,
        ctx: ExecutionContext,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
    ) -> None:
        super().__init__(
            program, ctx, address_space=address_space, engine="compiled"
        )
