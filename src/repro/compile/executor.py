"""Flat-tape execution of compiled alpha programs.

:class:`CompiledAlpha` binds an optimised IR (:mod:`.compiler`) to one
problem shape and executes it without any of the interpreter's per-operation
bookkeeping:

* **pre-resolved dispatch** — every instruction becomes one tape entry
  ``(func, input_arrays, output_array, params, sanitize mode)`` with the
  :class:`~repro.core.ops.OpSpec` function looked up once at bind time;
* **range-proven sanitize elision** — the static range analysis
  (:mod:`.ranges`) tags each entry ``exact`` / ``clip`` / ``full``, and
  the result is written into its preallocated buffer with only the
  sanitize steps that can change a bit
  (:func:`~repro.core.ops.sanitize_into`);
* **preallocated memory slots** — each SSA value owns one preallocated
  buffer and each live operand one state array, so the per-day loop performs
  no allocation, address checking or dict construction;
* **static hoisting** — instructions whose transitive inputs are constants
  or parameter-free initialisers (they produce the same value on every
  execution) run once in a prologue instead of once per day;
* **fused batched inference** — when the trained memory is static across
  inference days (``Predict()`` neither reads the label nor reads an operand
  it also writes), the whole inference stage collapses into a single tape
  execution over a leading *day* axis instead of a Python loop over days.

Bitwise parity with the interpreter is a hard contract (the fingerprint
cache and the search both rely on it).  The fused path therefore only
batches operators whose elementwise results are exact and shape-independent
(IEEE basic arithmetic, comparisons, slicing, broadcasting); every other
operator — transcendentals, reductions, cross-sectional ranks — falls back
to a per-day slice loop *inside* its tape entry, which reproduces the
interpreter's arithmetic exactly while still eliminating the per-day
dispatch of the batched majority.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.memory import INPUT_MATRIX, LABEL, Operand, OperandType, PREDICTION
from ..core.ops import CLIP_VALUE, ExecutionContext, Interval, get_op, sanitize_into
from ..errors import ExecutionError
from .compiler import CompiledProgram
from .ranges import analyze_ranges

__all__ = [
    "CompiledAlpha",
    "TapeState",
    "TAPE_STATE_VERSION",
    "check_resumed_operands",
    "tape_key_for",
]

#: Bumped whenever the suspended-state layout changes incompatibly.
TAPE_STATE_VERSION = 1


def tape_key_for(ir) -> str:
    """The tape identity key: a hash of the execution-pipeline IR.

    Shared by :class:`CompiledAlpha` and the stacked group executor
    (:class:`~repro.compile.stacked.StackedAlpha`), so a
    :class:`TapeState` suspended from either resumes into the other.
    """
    return hashlib.sha256(ir.render().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Batched kernels for the fused inference path
# ---------------------------------------------------------------------------

#: Operators whose registry implementation is already shape-agnostic *and*
#: elementwise-exact, so running them over a leading day axis is bit-for-bit
#: identical to running them day by day.
_BATCH_SAFE = frozenset({
    "s_add", "s_sub", "s_mul", "s_div", "s_min", "s_max",
    "s_abs", "s_sign", "s_heaviside",
    "v_add", "v_sub", "v_mul", "v_div", "v_min", "v_max",
    "v_abs", "v_heaviside",
    "m_add", "m_sub", "m_mul", "m_div", "m_min", "m_max",
    "m_abs", "m_heaviside",
    "transpose",
})

#: Batched re-implementations (leading-axis-aware indexing) of exact
#: operators whose registry form hard-codes the task axis.  Each one is
#: elementwise identical to the registry implementation on a day slice.
_BATCH_OVERRIDES = {
    "v_scale": lambda ctx, inputs, params: inputs[0][..., None] * inputs[1],
    "m_scale": lambda ctx, inputs, params: inputs[0][..., None, None] * inputs[1],
    "v_outer": lambda ctx, inputs, params: (
        inputs[0][..., :, None] * inputs[1][..., None, :]
    ),
    "ts_rank": lambda ctx, inputs, params: (
        (inputs[0] < inputs[0][..., -1:]).sum(axis=-1)
        / max(inputs[0].shape[-1] - 1, 1)
    ),
    "v_broadcast": lambda ctx, inputs, params: np.repeat(
        inputs[0][..., None], ctx.window, axis=-1
    ),
    "m_broadcast": lambda ctx, inputs, params: (
        np.repeat(inputs[0][..., None, :], ctx.num_features, axis=-2)
        if params["axis"] == 0
        else np.repeat(inputs[0][..., :, None], ctx.window, axis=-1)
    ),
    "get_scalar": lambda ctx, inputs, params: inputs[0][
        ..., params["row"] % ctx.num_features, params["col"] % ctx.window
    ],
    "get_row": lambda ctx, inputs, params: inputs[0][
        ..., params["row"] % ctx.num_features, :
    ],
    "get_column": lambda ctx, inputs, params: inputs[0][
        ..., :, params["col"] % ctx.window
    ],
}


def check_resumed_operands(operands: dict[str, np.ndarray],
                           input_range: Interval | None) -> None:
    """Refuse snapshot operand state the range analysis does not cover.

    :mod:`.ranges` counts every operand other than ``m0``/``s0``/the
    prediction as finite and within ``±CLIP_VALUE``, and ``m0``/``s0`` as
    within ``input_range`` when the binding has one; a resumed state that
    breaks either would make an elided sanitize observable.
    """
    for name, array in operands.items():
        if name == PREDICTION.name:
            continue
        if name in (INPUT_MATRIX.name, LABEL.name):
            if input_range is None:
                continue
            lo, hi = input_range
        else:
            lo, hi = -CLIP_VALUE, CLIP_VALUE
        array = np.asarray(array)
        # NaN fails both comparisons, so it is refused too.
        if array.size and not (array.min() >= lo and array.max() <= hi):
            raise ExecutionError(
                f"tape state operand {name} holds values outside "
                f"[{lo:g}, {hi:g}] (or non-finite ones); no tape can have "
                "produced it"
            )


def _batched_func(name: str):
    """The day-batched kernel for operator ``name`` (``None`` → per-day loop)."""
    if name in _BATCH_SAFE:
        return get_op(name).func
    return _BATCH_OVERRIDES.get(name)


@dataclass(frozen=True)
class TapeState:
    """Suspended loop-carried state of one :class:`CompiledAlpha` tape.

    The only state an alpha carries between days is the content of its
    operand arrays (the static prologue is a pure function of the bound
    context and is recomputed on resume), so a snapshot of those arrays plus
    the identity of the tape that produced them is a complete, serialisable
    suspension point.  ``tape_key`` hashes the execution-pipeline IR and
    ``base_seed``/``shape`` echo the bound context; :meth:`CompiledAlpha.resume`
    refuses a state taken from a different program or binding instead of
    silently diverging.

    ``TapeState`` is plain data (strings, ints and numpy arrays) and pickles
    cleanly, which is what the streaming checkpoint helpers in
    :mod:`repro.stream.state` rely on.
    """

    version: int
    tape_key: str
    base_seed: int
    #: ``(num_tasks, num_features, window)`` of the binding.
    shape: tuple[int, int, int]
    #: Operand name → array snapshot of the loop-carried state.
    operands: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class _TapeEntry:
    """One pre-resolved instruction of the flat execution tape."""

    op: str
    func: object                 # the OpSpec function, dispatch pre-resolved
    inputs: tuple[np.ndarray, ...]
    input_ids: tuple[int, ...]
    output: np.ndarray
    output_id: int
    params: dict
    #: Proven sanitize mode (:mod:`.ranges`): ``exact`` / ``clip`` / ``full``.
    sanitize: str


class CompiledAlpha:
    """Executable form of one compiled alpha, bound to a problem shape.

    Parameters
    ----------
    compiled:
        The optimised program from :func:`repro.compile.compile_program`.
    ctx:
        The evaluation context (task count, dimensions, relation indices and
        base seed) the tape executes under — the same object the interpreter
        would hand to every operator.
    input_range:
        A bound on every value ``set_input``/``set_label`` will ever load
        (:func:`~repro.compile.ranges.data_bound`), which lets the range
        analysis elide more sanitizes; ``None`` (the default, and the only
        sound choice for online serving) assumes nothing about ``m0``/``s0``.
    """

    def __init__(self, compiled: CompiledProgram, ctx: ExecutionContext,
                 input_range: Interval | None = None) -> None:
        self.compiled = compiled
        self.ctx = ctx
        self.input_range = input_range
        shapes = {
            OperandType.SCALAR: (ctx.num_tasks,),
            OperandType.VECTOR: (ctx.num_tasks, ctx.window),
            OperandType.MATRIX: (ctx.num_tasks, ctx.num_features, ctx.window),
        }
        ir = compiled.ir
        carried = compiled.dataflow.carried

        #: Operand state arrays: the loop-carried memory between components
        #: and days.  Allocated for every operand the program observes plus
        #: the three reserved addresses.
        self._state: dict[Operand, np.ndarray] = {}

        def state_array(operand: Operand) -> np.ndarray:
            array = self._state.get(operand)
            if array is None:
                array = np.zeros(shapes[operand.type])
                self._state[operand] = array
            return array

        for operand in (INPUT_MATRIX, LABEL, PREDICTION):
            state_array(operand)

        self._buffers: dict[int, np.ndarray] = {}
        self._static_tape: list[_TapeEntry] = []
        self._tapes: dict[str, list[_TapeEntry]] = {}
        self._copies: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        ranges = analyze_ranges([ir], ctx, input_range)
        ranges.record()

        for name, component in ir.components.items():
            static_ids: set[int] = set()
            tape: list[_TapeEntry] = []
            for instr, mode in zip(component.instructions, ranges.modes[name]):
                arrays = []
                for vid in instr.inputs:
                    value = ir.values[vid]
                    if value.operand is not None:
                        arrays.append(state_array(value.operand))
                    else:
                        arrays.append(self._buffers[vid])
                output = np.zeros(shapes[ir.values[instr.result].type])
                self._buffers[instr.result] = output
                entry = _TapeEntry(
                    op=instr.op,
                    func=instr.spec.func,
                    inputs=tuple(arrays),
                    input_ids=instr.inputs,
                    output=output,
                    output_id=instr.result,
                    params=instr.param_dict,
                    sanitize=mode,
                )
                # Setup already runs exactly once; hoisting only pays off for
                # the components inside the per-day loops.
                is_static = name != "setup" and all(
                    vid in static_ids for vid in instr.inputs
                )
                if is_static:
                    static_ids.add(instr.result)
                    self._static_tape.append(entry)
                else:
                    tape.append(entry)
            self._tapes[name] = tape
            self._copies[name] = [
                (state_array(operand), self._buffers[vid])
                for operand, vid in component.exports.items()
                if operand in carried
            ]

        predict = ir.components["predict"]
        prediction_value = predict.exports.get(PREDICTION)
        if prediction_value is not None:
            self._prediction = self._buffers[prediction_value]
        else:
            self._prediction = self._state[PREDICTION]
        self._prediction_id = prediction_value
        self._tape_key = tape_key_for(ir)

    # ------------------------------------------------------------------
    @property
    def prediction(self) -> np.ndarray:
        """The ``(K,)`` prediction left by the last ``run_predict`` call."""
        return self._prediction

    @property
    def supports_fused_inference(self) -> bool:
        """Whether the inference stage can run as one batched tape pass."""
        return self.compiled.fused_inference

    @property
    def supports_static_predict(self) -> bool:
        """Whether the whole ``Predict()`` tape is day-loop invariant.

        True when, beyond fused-inference eligibility, ``Predict()`` reads
        no ``Update()``-carried operand — so the engine layer may run even
        the *training-stage* predictions as one batched
        :meth:`run_inference_batch` call (see
        :func:`repro.engine.protocol.training_pass`).
        """
        return self.compiled.static_predict

    # ------------------------------------------------------------------
    def set_input(self, features: np.ndarray) -> None:
        """Load one day's feature matrices into ``m0``."""
        self._state[INPUT_MATRIX][...] = features

    def set_label(self, labels: np.ndarray) -> None:
        """Reveal one day's labels into ``s0``."""
        self._state[LABEL][...] = labels

    # ------------------------------------------------------------------
    def _run_tape(self, entries: list[_TapeEntry]) -> None:
        ctx = self.ctx
        for entry in entries:
            sanitize_into(entry.output, entry.func(ctx, entry.inputs, entry.params),
                          entry.sanitize)

    @staticmethod
    def _write_back(copies: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for target, source in copies:
            target[...] = source

    def run_setup(self) -> None:
        """Run ``Setup()`` once, plus the hoisted static prologue."""
        self._run_tape(self._tapes["setup"])
        self._write_back(self._copies["setup"])
        self._run_tape(self._static_tape)

    def run_predict(self) -> None:
        """Run ``Predict()`` for the current day."""
        self._run_tape(self._tapes["predict"])
        self._write_back(self._copies["predict"])

    def run_update(self) -> None:
        """Run ``Update()`` for the current day."""
        self._run_tape(self._tapes["update"])
        self._write_back(self._copies["update"])

    # ------------------------------------------------------------------
    # Suspend / resume tape protocol
    # ------------------------------------------------------------------
    @property
    def tape_key(self) -> str:
        """Identity of the bound tape: a hash of the execution-pipeline IR."""
        return self._tape_key

    def suspend(self) -> TapeState:
        """Snapshot the loop-carried state so execution can resume later.

        The snapshot contains everything a later :meth:`resume` needs to
        continue day-by-day execution bitwise identically to an uninterrupted
        run: the operand state arrays (the cross-day memory) plus the tape
        and binding identity.  The hoisted static prologue is *not* captured
        — it is a deterministic function of the bound context and is
        recomputed on resume.
        """
        ctx = self.ctx
        return TapeState(
            version=TAPE_STATE_VERSION,
            tape_key=self.tape_key,
            base_seed=ctx.base_seed,
            shape=(ctx.num_tasks, ctx.num_features, ctx.window),
            operands={
                operand.name: array.copy()
                for operand, array in self._state.items()
            },
        )

    def resume(self, state: TapeState) -> None:
        """Restore a :meth:`suspend` snapshot into this (fresh) binding.

        Re-runs the static prologue (pure, so bit-for-bit reproducible) and
        overwrites the operand state arrays from the snapshot; the next
        ``run_predict`` / ``run_update`` continues exactly where the
        suspended executor stopped.  Raises :class:`ExecutionError` when the
        snapshot was taken from a different program, binding shape or seed,
        or holds operand values no tape can produce
        (:func:`check_resumed_operands`).
        """
        if state.version != TAPE_STATE_VERSION:
            raise ExecutionError(
                f"tape state has version {state.version}, this build reads "
                f"version {TAPE_STATE_VERSION}"
            )
        if state.tape_key != self.tape_key:
            raise ExecutionError(
                "tape state was suspended from a different compiled program"
            )
        ctx = self.ctx
        shape = (ctx.num_tasks, ctx.num_features, ctx.window)
        if state.shape != shape:
            raise ExecutionError(
                f"tape state was bound to shape {state.shape}, "
                f"this executor is bound to {shape}"
            )
        if state.base_seed != ctx.base_seed:
            raise ExecutionError(
                f"tape state was produced under base seed {state.base_seed}, "
                f"this executor runs under {ctx.base_seed}"
            )
        expected = {operand.name for operand in self._state}
        snapshot = set(state.operands)
        if expected != snapshot:
            raise ExecutionError(
                "tape state operand set does not match this tape "
                f"(missing {sorted(expected - snapshot)}, "
                f"unexpected {sorted(snapshot - expected)})"
            )
        check_resumed_operands(state.operands, self.input_range)
        self._run_tape(self._static_tape)
        for operand, array in self._state.items():
            array[...] = state.operands[operand.name]

    # ------------------------------------------------------------------
    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Run the whole inference stage in one batched tape pass.

        ``features`` has shape ``(D, K, f, w)``; the return value holds the
        ``(D, K)`` predictions, bit-for-bit equal to looping ``set_input`` /
        ``run_predict`` over the days.  Only valid when
        :attr:`supports_fused_inference` is True.
        """
        if not self.compiled.fused_inference:
            raise ValueError(
                "program is not eligible for fused inference; run day by day"
            )
        ctx = self.ctx
        num_days = features.shape[0]
        predict = self.compiled.ir.components["predict"]
        batched: dict[int, np.ndarray] = {}
        input_matrix_value = predict.inputs.get(INPUT_MATRIX)
        if input_matrix_value is not None:
            batched[input_matrix_value] = features

        for entry in self._tapes["predict"]:
            if not any(vid in batched for vid in entry.input_ids):
                # Depends only on static memory: one day's worth of work
                # covers every day.
                sanitize_into(entry.output,
                              entry.func(ctx, entry.inputs, entry.params),
                              entry.sanitize)
                continue
            inputs = tuple(
                batched.get(vid, array)
                for vid, array in zip(entry.input_ids, entry.inputs)
            )
            output = np.empty((num_days,) + entry.output.shape)
            batched_func = _batched_func(entry.op)
            if batched_func is not None:
                sanitize_into(output, batched_func(ctx, inputs, entry.params),
                              entry.sanitize)
            else:
                day_flags = tuple(vid in batched for vid in entry.input_ids)
                for day in range(num_days):
                    day_inputs = tuple(
                        array[day] if is_batched else array
                        for array, is_batched in zip(inputs, day_flags)
                    )
                    sanitize_into(output[day],
                                  entry.func(ctx, day_inputs, entry.params),
                                  entry.sanitize)
            batched[entry.output_id] = output

        if self._prediction_id is not None and self._prediction_id in batched:
            return batched[self._prediction_id]
        # The prediction does not depend on the input matrix: every day sees
        # the same (static) value.
        return np.broadcast_to(
            self._prediction, (num_days,) + self._prediction.shape
        ).copy()
