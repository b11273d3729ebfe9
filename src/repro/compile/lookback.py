"""Static lookback analysis: how far back a point correction reaches.

During inference the day loop runs ``set_input -> predict -> set_label``;
``Update()`` never executes, so the only state that evolves is the set of
**mutable** operands — those ``Predict()`` itself exports *and* that are
loop-carried (read at a later entry).  Everything else a day's prediction
reads is either fresh that day (``m0`` from ``set_input``, ``s0`` from the
previous reveal) or **frozen** memory written by ``Setup()``/``Update()``
during training and never touched again.

This pass assigns every carried operand an **invalidation horizon**: the
number of consecutive clean days that must be replayed before the operand's
entry value is bit-exact, starting from an *arbitrary* seed state that holds
the correct frozen memory.  Frozen operands have horizon 0 (any seed state
already carries them exactly); a mutable operand needs one day to be
rewritten from its within-``Predict()`` dependencies, so its horizon is one
more than the deepest mutable operand it transitively reads:

``horizon(c) = 1 + max(0, max horizon(c') for mutable c' read by c)``

A mutable operand that (transitively) reads *itself* — an EMA-style
recurrence — never forgets its seed value, so its horizon is unbounded
(``None``).  The program-level ``max_lookback`` is the maximum finite
horizon, or ``None`` if any mutable operand is unbounded.  The common fused
-inference case (``Predict()`` exports nothing carried) gets
``max_lookback == 0``: inference state is static, and a correction at any
day replays from the *current* state with no spin-up at all.

The delta-replay engine (:mod:`repro.engine.replay`) uses this the same way
the engine layer uses ``static_predict``: a correction at served day ``t``
either restores a retained snapshot taken at or before ``t``, or — when
``max_lookback`` is finite — spins up from any live state at day
``t - max_lookback`` and replays only the bounded suffix, bitwise-identical
to a full warm-start replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.memory import Operand
from .ir import IRComponent, IRProgram
from .passes import DataflowInfo

__all__ = ["LookbackInfo", "analyze_lookback"]


@dataclass(frozen=True)
class LookbackInfo:
    """Per-operand invalidation horizons of the inference-day loop."""

    #: Carried operand → days of clean replay needed before its entry value
    #: is exact (``None`` = unbounded self-recurrence).  Frozen operands
    #: (carried but never written during inference) map to 0.
    horizons: dict[Operand, int | None]
    #: Replay spin-up that makes *every* carried operand exact: the maximum
    #: horizon, or ``None`` when some operand is unbounded.
    max_lookback: int | None

    @property
    def bounded(self) -> bool:
        """Whether a correction invalidates only a bounded suffix of state."""
        return self.max_lookback is not None

    def describe(self) -> str:
        """One line for the ``repro inspect`` report."""
        if self.max_lookback is None:
            unbounded = sorted(
                operand.name for operand, depth in self.horizons.items()
                if depth is None
            )
            return ("unbounded (self-recurrent inference state: "
                    + ", ".join(unbounded) + ")")
        if self.max_lookback == 0:
            return "0 days (inference state is static)"
        return f"{self.max_lookback} days"


def _input_closure(component: IRComponent) -> dict[int, frozenset[Operand]]:
    """Value id → component-input operands it transitively depends on.

    Components are straight-line SSA, so one forward sweep in listing order
    resolves every value.
    """
    closure: dict[int, frozenset[Operand]] = {
        vid: frozenset((operand,)) for operand, vid in component.inputs.items()
    }
    empty: frozenset[Operand] = frozenset()
    for instr in component.instructions:
        deps: frozenset[Operand] = empty
        for vid in instr.inputs:
            deps = deps | closure.get(vid, empty)
        closure[instr.result] = deps
    return closure


def analyze_lookback(ir: IRProgram, dataflow: DataflowInfo) -> LookbackInfo:
    """Compute inference-day invalidation horizons for ``ir``.

    Runs after dead-code elimination, over the same IR the tape executor
    binds, so the horizons describe exactly the state the compiled backend
    carries.
    """
    predict = ir.components["predict"]
    closure = _input_closure(predict)

    # Mutable = rewritten every inference day.  ``carried`` never holds the
    # fresh inputs m0/s0, and validation forbids writing them.
    mutable = set(predict.exports) & dataflow.carried

    # Reads that feed each mutable operand's next entry value.  Fresh inputs
    # (m0, s0) and frozen memory contribute no depth, so only the mutable
    # subset matters for the recurrence.
    reads: dict[Operand, set[Operand]] = {
        operand: set(closure.get(predict.exports[operand], frozenset()))
        & mutable
        for operand in mutable
    }

    horizons: dict[Operand, int | None] = {
        operand: 0 for operand in dataflow.carried if operand not in mutable
    }

    # Memoised depth with on-stack cycle detection: any operand on a cycle
    # (or downstream of one) is unbounded.
    UNBOUNDED = object()
    depth_of: dict[Operand, object] = {}

    def depth(operand: Operand, stack: set[Operand]) -> object:
        if operand in depth_of:
            return depth_of[operand]
        if operand in stack:
            return UNBOUNDED
        stack.add(operand)
        result: object = 1
        for upstream in reads[operand]:
            upstream_depth = depth(upstream, stack)
            if upstream_depth is UNBOUNDED:
                result = UNBOUNDED
                break
            result = max(result, 1 + upstream_depth)  # type: ignore[operator]
        stack.remove(operand)
        depth_of[operand] = result
        return result

    for operand in mutable:
        value = depth(operand, set())
        horizons[operand] = None if value is UNBOUNDED else int(value)  # type: ignore[arg-type]

    finite = [value for value in horizons.values() if value is not None]
    max_lookback: int | None
    if len(finite) != len(horizons):
        max_lookback = None
    else:
        max_lookback = max(finite, default=0)
    return LookbackInfo(horizons=horizons, max_lookback=max_lookback)
