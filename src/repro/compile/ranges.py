"""Static range analysis: where the post-op sanitize provably changes nothing.

Every operator result is sanitized — NaN zeroed, values clipped to
``±CLIP_VALUE`` (:func:`repro.core.ops.sanitize`) — and the interpreter does
it after every operation.  Almost always that is a no-op: the extraction of
a sanitized feature, a ``rank``, a ``sin`` cannot leave the bound.  This
pass proves it statically.  It runs a forward interval analysis over each
component's SSA values when a program is bound to an executor, using the
:class:`~repro.core.ops.RangeRule` every :class:`~repro.core.ops.OpSpec`
declares, and tags each tape entry with one sanitize mode:

* ``exact`` — the raw output is proven finite and within ``±CLIP_VALUE``:
  sanitizing is the identity and is skipped;
* ``clip`` — every input is proven finite and within ``±CLIP_VALUE``, so
  the output is finite (no registered operator maps such inputs to NaN or
  ``±inf``) and the clip alone reproduces ``sanitize``;
* ``full`` — clip and NaN scrub.

The executors write each mode through
:func:`repro.core.ops.sanitize_into`, so every result is bitwise identical
to the interpreter's by construction.

Where the component inputs' ranges come from:

* an operand other than ``m0``/``s0``/the prediction is finite and within
  ``±CLIP_VALUE``: operands start at zero, every write to one is a
  sanitized tape output or a copy of one, and ``resume`` refuses snapshot
  state outside the bound;
* the prediction operand is unknown, since ``resume`` restores it
  unchecked;
* ``m0``/``s0`` hold raw bars and labels, so they are unknown unless the
  binding passes ``input_range`` — a bound on every value that can arrive
  there (:func:`data_bound`, used only by the offline protocol over the
  evaluator's own task set).  If any component writes ``m0`` or ``s0``,
  that operand may also hold a sanitized output and counts as
  ``±CLIP_VALUE``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..core.memory import INPUT_MATRIX, LABEL, PREDICTION, Operand
from ..core.ops import CLIP_VALUE, ExecutionContext, Interval, OpSpec
from ..obs import TELEMETRY
from .ir import IRProgram

__all__ = [
    "CLIP",
    "EXACT",
    "FULL",
    "RangeInfo",
    "analyze_ranges",
    "data_bound",
]

EXACT = "exact"
CLIP = "clip"
FULL = "full"

#: The range every sanitized value lies in.
SANITIZED: Interval = (-CLIP_VALUE, CLIP_VALUE)


def data_bound(taskset) -> Interval | None:
    """A sound ``m0``/``s0`` range for the offline protocol over ``taskset``.

    The hull of every feature and label value and zero (the operands'
    initial content), or ``None`` when that hull is not finite or leaves
    ``±CLIP_VALUE``.  Only valid where ``m0``/``s0`` are fed from
    ``taskset`` alone — never for online serving, whose bars and
    restatements arrive from outside it.
    """
    lo, hi = taskset.value_range
    if not (-CLIP_VALUE <= lo and hi <= CLIP_VALUE):  # also refuses NaN
        return None
    return (min(lo, 0.0), max(hi, 0.0))


@dataclass(frozen=True)
class RangeInfo:
    """Per-instruction sanitize modes of one bound program (or group)."""

    #: Component name → one mode per instruction, in tape order.
    modes: dict[str, tuple[str, ...]]

    def counts(self) -> dict[str, int]:
        """Instructions per mode across all components."""
        tally = Counter(mode for modes in self.modes.values() for mode in modes)
        return {mode: tally[mode] for mode in (EXACT, CLIP, FULL)}

    def record(self) -> None:
        """Add this binding's mode counts to the ``compile.sanitize.*``
        counters (once per bind, never per operator call)."""
        if TELEMETRY.enabled:
            for mode, count in self.counts().items():
                TELEMETRY.counter(f"compile.sanitize.{mode}").inc(count)


def _classify(spec: OpSpec, inputs, lane_params, ctx) -> tuple[str, Interval]:
    """An instruction's sanitize mode and the range of its sanitized value."""
    if any(interval is None for interval in inputs):
        return FULL, SANITIZED
    lo = hi = None
    for params in lane_params:
        try:
            interval = spec.range_rule(inputs, params, ctx)
        except (TypeError, ValueError, OverflowError):
            interval = None  # a rule that cannot evaluate proves nothing
        if interval is None or not all(map(math.isfinite, interval)):
            lo = None
            break
        lo = interval[0] if lo is None else min(lo, interval[0])
        hi = interval[1] if hi is None else max(hi, interval[1])
    if lo is None:
        # Unbounded but finite — except for a nullary initialiser, whose
        # finiteness rests on the parameters the rule just refused.
        return (CLIP if spec.input_types else FULL), SANITIZED
    if -CLIP_VALUE <= lo and hi <= CLIP_VALUE:
        return EXACT, (lo, hi)
    return CLIP, (min(max(lo, -CLIP_VALUE), CLIP_VALUE),
                  min(max(hi, -CLIP_VALUE), CLIP_VALUE))


def analyze_ranges(
    irs: Sequence[IRProgram],
    ctx: ExecutionContext,
    input_range: Interval | None = None,
) -> RangeInfo:
    """Sanitize modes for every instruction of ``irs``.

    ``irs`` holds one program, or the members of one stack-signature group
    (same opcodes and wiring, parameters free to differ): each range is
    then the hull over the members' parameters, so one mode is sound for
    every lane.  ``input_range`` bounds ``m0``/``s0`` (see the module
    docstring); ``None`` leaves them unknown.
    """
    template = irs[0]
    written = set().union(
        *(component.exports for component in template.components.values())
    )

    def entry_range(operand: Operand) -> Interval | None:
        if operand in (INPUT_MATRIX, LABEL):
            if input_range is None:
                return None
            return SANITIZED if operand in written else input_range
        return None if operand == PREDICTION else SANITIZED

    modes: dict[str, tuple[str, ...]] = {}
    for name, component in template.components.items():
        ranges = {
            vid: entry_range(operand)
            for operand, vid in component.inputs.items()
        }
        lanes = [ir.components[name].instructions for ir in irs]
        component_modes = []
        for index, instr in enumerate(component.instructions):
            mode, ranges[instr.result] = _classify(
                instr.spec,
                tuple(ranges[vid] for vid in instr.inputs),
                [lane[index].param_dict for lane in lanes],
                ctx,
            )
            component_modes.append(mode)
        modes[name] = tuple(component_modes)
    return RangeInfo(modes)
