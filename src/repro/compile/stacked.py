"""The tape executor: signature-grouped compiled alphas run as one tape.

:class:`StackedAlpha` binds a group of compiled programs (:mod:`.compiler`)
to one problem shape and executes them without any of the interpreter's
per-operation bookkeeping.  A single program is a one-lane group; every
compiled execution path in the repository (the evaluator's
:class:`~repro.engine.backends.CompiledBackend`, the fleet, the streaming
server) runs through this one executor.

* **pre-resolved dispatch** — every instruction becomes one tape entry with
  its :class:`~repro.core.ops.OpSpec` function (or batched kernel) looked
  up once at bind time;
* **range-proven sanitize elision** — the static range analysis
  (:mod:`.ranges`) tags each entry ``exact`` / ``clip`` / ``full`` for the
  hull of the group's parameters, and the result is written into its
  preallocated buffer with only the sanitize steps that can change a bit
  (:func:`~repro.core.ops.sanitize_into`);
* **preallocated memory slots** — each SSA value owns one preallocated
  buffer and each live operand one state array, so the per-day loop
  performs no allocation, address checking or dict construction;
* **static hoisting** — instructions whose transitive inputs are constants
  or parameter-free initialisers run once in a prologue instead of once
  per day;
* **fused batched inference** — when the trained memory is static across
  inference days (``Predict()`` neither reads the label nor reads an
  operand it also writes), the whole inference stage collapses into
  batched tape passes over a leading *day* axis.

A group of P programs sharing one :func:`stack_signature` (same opcode
sequence, same SSA wiring, same operand inputs/exports; parameter *values*
free to differ) executes as **one** tape whose state and buffers carry a
leading program axis:

* scalar operands/values become ``(P, K)``, vectors ``(P, K, w)``, matrices
  ``(P, K, f, w)``;
* an instruction whose parameters agree across the group and whose operator
  is exact under a leading axis (:data:`_BATCH_SAFE` /
  :data:`_BATCH_OVERRIDES`, plus the stack-only extensions below) runs as
  **one** NumPy call for the whole group;
* the extraction operators (``get_scalar`` / ``get_row`` / ``get_column``)
  with *differing* per-member indices run as one advanced-indexing gather;
* everything else falls back to a per-member slice loop *inside* the entry
  — bitwise identical by construction (the per-lane raw results are written
  first and sanitised in one elementwise pass).

A one-lane group runs its day loop through the registry kernels over
lane-0 views of its ``(1, ...)`` buffers — the per-day cost of a plain
per-program tape — and keeps the stacked kernels for fused inference.

Bitwise parity with the interpreter is a hard contract (the fingerprint
cache and the search both rely on it).  The fused day path only batches
operators whose elementwise results are exact and shape-independent.  On
top of those, stacking may batch the trailing-axis reductions, the
fixed-subscript contractions and the cross-sectional rank
(:data:`_STACK_SAFE` / :data:`_STACK_OVERRIDES`): each lane's reduction run
— the contiguous trailing axis over which NumPy accumulates — is unchanged
by a leading axis, so every bit of the result is the per-program call's.
Transcendental elementwise operators (``s_sin`` … ``s_log``) are admitted
by an import-time probe (:func:`_probe_transcendental_stacking`): each one
is batched only after its stacked call reproduces the per-slice call bit
for bit on adversarial 2-D and 3-D fixtures, so the parity contract never
rests on an unverified shape-independence assumption.

Suspend/resume slices cleanly in and out of the stacked buffers:
:meth:`StackedAlpha.suspend_member` emits a per-program :class:`TapeState`
(the member's own ``tape_key``, per-program operand shapes), so a lane
suspended from any group resumes into any other group holding that program
— a one-lane group included.  Serving keeps its per-bar replay snapshots
group-wide instead: :meth:`StackedAlpha.snapshot` copies the whole group
once (only what serving rewrites, when given a base snapshot), and
:meth:`StackedAlpha.materialize` turns one lane of it into the
:class:`TapeState` that ``suspend_member`` would have returned at that bar.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.memory import INPUT_MATRIX, LABEL, Operand, OperandType, PREDICTION
from ..core.ops import _EPS, CLIP_VALUE, Interval, get_op, sanitize_into
from ..core.program import COMPONENTS
from ..errors import ExecutionError
from .compiler import CompiledProgram
from .ranges import analyze_ranges

__all__ = [
    "GroupSnapshot",
    "StackedAlpha",
    "TapeState",
    "TAPE_STATE_VERSION",
    "check_resumed_operands",
    "stack_signature",
    "tape_key_for",
]

#: Bumped whenever the suspended-state layout changes incompatibly.
TAPE_STATE_VERSION = 1


def tape_key_for(ir) -> str:
    """The tape identity key: a hash of the execution-pipeline IR.

    Each lane of a :class:`StackedAlpha` carries its own member's key, so
    a :class:`TapeState` suspended from one group resumes into any other
    group holding the same program.
    """
    return hashlib.sha256(ir.render().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TapeState:
    """Suspended loop-carried state of one program's tape.

    The only state an alpha carries between days is the content of its
    operand arrays (the static prologue is a pure function of the bound
    context and is recomputed on resume), so a snapshot of those arrays plus
    the identity of the tape that produced them is a complete, serialisable
    suspension point.  ``tape_key`` hashes the execution-pipeline IR and
    ``base_seed``/``shape`` echo the bound context;
    :meth:`StackedAlpha.resume` refuses a state taken from a different
    program or binding instead of silently diverging.

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


@dataclass(frozen=True)
class GroupSnapshot:
    """The loop-carried state of a whole :class:`StackedAlpha` at one point.

    Taken by :meth:`StackedAlpha.snapshot`; one lane of it becomes a
    per-program :class:`TapeState` through :meth:`StackedAlpha.materialize`.
    Snapshots are never written after they are taken, so ring entries may
    share arrays with the base snapshot they were taken against.
    """

    #: Operand → ``(P, ...)`` array of every operand except ``m0``.
    operands: dict[Operand, np.ndarray]
    #: ``m0``: the ``(K, f, w)`` bar every lane holds when ``shared_m0``,
    #: else the ``(P, K, f, w)`` per-lane array.
    m0: np.ndarray
    shared_m0: bool

    def copied_nbytes(self, base: "GroupSnapshot | None" = None) -> int:
        """Bytes this snapshot holds that ``base`` does not already hold."""
        shared = base.operands if base is not None else {}
        return self.m0.nbytes + sum(
            array.nbytes for operand, array in self.operands.items()
            if array is not shared.get(operand)
        )


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


# ---------------------------------------------------------------------------
# Batched kernels
# ---------------------------------------------------------------------------

#: Operators whose registry implementation is already shape-agnostic *and*
#: elementwise-exact, so running them over a leading day (or program) axis
#: is bit-for-bit identical to running them slice by slice.
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


def _batched_func(name: str):
    """The day-batched kernel for operator ``name`` (``None`` → per-day loop)."""
    if name in _BATCH_SAFE:
        return get_op(name).func
    return _BATCH_OVERRIDES.get(name)


#: Ceiling on elements of one stacked+day-batched buffer; the fused path
#: chunks the day axis so a ``(P, C, K, f, w)`` matrix buffer stays around
#: 32 MB however large the fleet grows.
_MAX_CHUNK_ELEMENTS = 1 << 22

#: Operators whose registry implementation is already leading-axis-agnostic
#: (negative-axis reductions, broadcasting matmul) *and* whose per-lane
#: accumulation runs are unchanged by a leading program axis — NumPy reduces
#: each trailing-axis run independently in a fixed per-element order, so the
#: stacked result is bit-for-bit the per-program result.
_STACK_SAFE = frozenset({
    "v_sum", "v_mean", "v_std", "v_norm",
    "m_norm", "m_mean", "m_std", "m_mean_axis", "m_std_axis",
    "matmul",
})

#: Transcendental elementwise candidates for stacking.  Unlike the
#: reductions above, their shape independence is *verified* at import time
#: rather than argued: see :func:`_probe_transcendental_stacking`.
_TRANSCENDENTAL_CANDIDATES = (
    "s_sin", "s_cos", "s_tan", "s_arcsin", "s_arccos", "s_arctan",
    "s_exp", "s_log",
)


def _probe_transcendental_stacking(candidates=_TRANSCENDENTAL_CANDIDATES):
    """The subset of ``candidates`` whose stacked call is bit-exact here.

    For each candidate the registry kernel runs once over a stacked fixture
    and once per leading-axis slice; the operator is admitted only when the
    bytes agree on both a 2-D ``(P, K)`` and a 3-D ``(P, C, K)`` fixture —
    the two shapes the stacked day loop and the stacked fused path feed it.
    Fixture values cover the sanitised input range: both clip boundaries,
    zeros, denormals, exact ±1 (the arcsin/arccos clip edge) and a spread
    of magnitudes.
    """
    rng = np.random.default_rng(0x5AFE)
    specials = np.array([
        0.0, -0.0, 1.0, -1.0, CLIP_VALUE, -CLIP_VALUE, _EPS, -_EPS,
        5e-324, -5e-324, np.pi, -np.pi, 50.0, -50.0, 1e-9, 123456.789,
    ])

    def fixture(shape):
        flat = rng.standard_normal(int(np.prod(shape)))
        flat *= 10.0 ** rng.integers(-12, 12, flat.shape)
        flat[:specials.size] = specials
        return np.clip(flat, -CLIP_VALUE, CLIP_VALUE).reshape(shape)

    fixtures = (fixture((7, 13)), fixture((3, 5, 17)))
    admitted = []
    for name in candidates:
        func = get_op(name).func
        with np.errstate(all="ignore"):
            ok = all(
                func(None, (stacked,), {}).tobytes()
                == np.stack([
                    func(None, (lane,), {}) for lane in stacked
                ]).tobytes()
                for stacked in fixtures
            )
        if ok:
            admitted.append(name)
    return frozenset(admitted)


_STACK_SAFE = _STACK_SAFE | _probe_transcendental_stacking()

#: Stacked-mode operators worth chunking over the program axis: the
#: matrix-heavy contractions whose per-lane working set is large enough
#: that a monolithic ``(P, ...)`` call spills cache.  Batch elements are
#: contracted independently, so any leading-axis split is bitwise-neutral.
_PROGRAM_CHUNK_OPS = frozenset({"matmul", "matvec", "v_dot"})


def _stacked_rank(values: np.ndarray) -> np.ndarray:
    """Tie-averaged cross-sectional rank over the last axis, any leading axes.

    Vectorised form of :func:`repro.core.ops._cross_sectional_rank`: ranks
    are a permutation of ``arange(n)`` and tie runs average *consecutive*
    integers, so every intermediate is an exactly representable integer (or
    half-integer) and the result is bit-for-bit the 1-D implementation's.
    """
    n = values.shape[-1]
    if n == 1:
        return np.zeros_like(values)
    order = np.argsort(values, axis=-1, kind="stable")
    sorted_values = np.take_along_axis(values, order, -1)
    positions = np.arange(n, dtype=np.float64)
    is_run_start = np.ones(sorted_values.shape, dtype=bool)
    is_run_start[..., 1:] = sorted_values[..., 1:] != sorted_values[..., :-1]
    # Each sorted slot's rank is the average of its tie run's positions =
    # (run start + run end) / 2.  Run starts forward-fill; run ends are the
    # next run's start minus one (sentinel n past the last slot).
    starts = np.where(is_run_start, positions, 0.0)
    np.maximum.accumulate(starts, axis=-1, out=starts)
    next_start = np.where(is_run_start, positions, np.inf)
    next_start = np.minimum.accumulate(
        next_start[..., ::-1], axis=-1
    )[..., ::-1]
    ends = np.empty_like(sorted_values)
    ends[..., :-1] = np.minimum(next_start[..., 1:], float(n)) - 1.0
    ends[..., -1] = float(n - 1)
    ranks = np.empty_like(sorted_values)
    np.put_along_axis(ranks, order, (starts + ends) * 0.5, -1)
    return ranks / (n - 1)


#: Stack-only batched kernels: exact re-implementations whose per-lane
#: arithmetic (contraction order, rank/tie math) reproduces the registry
#: operator bit for bit under any leading axes.  Unlike ``_BATCH_OVERRIDES``
#: they only run in ``"stacked"`` mode entries — on the program axis and,
#: in the fused path, on the day axis, where the same per-run-order
#: argument applies.
_STACK_OVERRIDES = {
    "v_dot": lambda ctx, inputs, params: np.einsum(
        "...w,...w->...", inputs[0], inputs[1]
    ),
    "matvec": lambda ctx, inputs, params: np.einsum(
        "...fw,...w->...f", inputs[0], inputs[1]
    ),
    "rank": lambda ctx, inputs, params: _stacked_rank(inputs[0]),
}


def _stacked_func(name: str):
    """The stack-batched kernel for operator ``name`` (``None`` → lane loop)."""
    func = _batched_func(name)
    if func is not None:
        return func
    if name in _STACK_SAFE:
        return get_op(name).func
    return _STACK_OVERRIDES.get(name)


def _binary_out(ufunc):
    return lambda inputs, out: ufunc(inputs[0], inputs[1], out=out)


def _unary_out(ufunc):
    return lambda inputs, out: ufunc(inputs[0], out=out)


def _divide_out(inputs, out):
    # Same guarded quotient as ops._protected_divide, written into ``out``.
    np.divide(
        inputs[0],
        np.where(np.abs(inputs[1]) < _EPS, 1.0, inputs[1]),
        out=out,
    )


#: Elementwise operators backed by a single ufunc: the stacked path calls
#: them with ``out=`` so the result lands directly in the entry's
#: preallocated ``(P, ...)`` buffer and is sanitized in place — skipping a
#: temporary allocation plus one full copy pass per instruction, which on
#: DRAM-sized matrix-group buffers is a large share of the day loop.  A
#: ufunc computes each element identically with or without ``out=``, so the
#: result is bit-for-bit the registry operator's.
_OUT_KERNELS = {}
for _shape in ("s", "v", "m"):
    _OUT_KERNELS.update({
        f"{_shape}_add": _binary_out(np.add),
        f"{_shape}_sub": _binary_out(np.subtract),
        f"{_shape}_mul": _binary_out(np.multiply),
        f"{_shape}_div": _divide_out,
        f"{_shape}_min": _binary_out(np.minimum),
        f"{_shape}_max": _binary_out(np.maximum),
        f"{_shape}_abs": _unary_out(np.abs),
    })
_OUT_KERNELS["s_sign"] = _unary_out(np.sign)


def stack_signature(compiled: CompiledProgram) -> str:
    """The stacking key: the execution IR rendered with parameters masked.

    Two compiled programs with equal signatures have identical opcode
    sequences, SSA wiring, operand input/export sets and parameter *names*
    per instruction — everything :class:`StackedAlpha` needs to run them as
    one tape — while parameter *values* (constants, seeds, extraction
    indices) are lifted into the stacked per-program axis.  Fused-inference
    and static-predict eligibility are pure functions of this structure, so
    they always agree within a group.
    """
    ir = compiled.ir
    lines: list[str] = []
    for name in COMPONENTS:
        component = ir.components[name]
        lines.append(f"{name}:")
        names: dict[int, str] = {
            vid: operand.name for operand, vid in component.inputs.items()
        }
        if component.inputs:
            declared = ", ".join(
                operand.name for operand in sorted(component.inputs)
            )
            lines.append(f"  in {declared}")
        for index, instr in enumerate(component.instructions):
            names[instr.result] = f"%{index}"
            args = ", ".join(names.get(vid, f"?{vid}") for vid in instr.inputs)
            masked = "; " + ", ".join(
                f"{key}=*" for key, _ in sorted(instr.params)
            ) if instr.params else ""
            lines.append(f"  %{index} = {instr.op}({args}{masked})")
        if component.exports:
            exported = ", ".join(
                f"{operand.name}={names.get(vid, f'?{vid}')}"
                for operand, vid in sorted(component.exports.items())
            )
            lines.append(f"  out {exported}")
    return "\n".join(lines)


class _StackedEntry:
    """One instruction of the stacked tape, execution strategy pre-resolved.

    ``mode`` is decided once at bind time:

    * ``"stacked"`` — parameters identical across members and the operator
      has a leading-axis-exact kernel: one call over ``(P, ...)`` arrays;
    * ``"gather"`` — an extraction operator with per-member indices: one
      advanced-indexing call with precomputed index vectors;
    * ``"loop"`` — per-member slice fallback (exact by construction).

    A one-lane group's day loop ignores ``mode``: it calls the registry
    kernel on ``lane_inputs`` / ``lane_output``, lane-0 views of the
    ``(1, ...)`` arrays.
    """

    __slots__ = (
        "op", "mode", "func", "out_func", "sanitize", "spec_func", "gather",
        "inputs", "input_ids", "output", "output_id", "params0",
        "member_params", "calls", "pchunk", "lane_inputs", "lane_output",
    )

    def __init__(self, op, mode, func, spec_func, gather, inputs, input_ids,
                 output, output_id, params0, member_params, calls, sanitize):
        self.op = op
        self.mode = mode
        self.func = func
        #: ``out=``-writing variant (elementwise ufuncs only, stacked mode).
        self.out_func = _OUT_KERNELS.get(op) if mode == "stacked" else None
        #: Proven sanitize mode over the group (:mod:`.ranges`).
        self.sanitize = sanitize
        self.spec_func = spec_func
        self.gather = gather
        self.inputs = inputs
        self.input_ids = input_ids
        self.output = output
        self.output_id = output_id
        self.params0 = params0
        self.member_params = member_params
        #: Kernel calls one execution of this entry issues (telemetry).
        self.calls = calls
        #: Whether the program axis may be chunked for cache residency
        #: (stacked-mode matrix contractions only; bitwise-neutral).
        self.pchunk = mode == "stacked" and op in _PROGRAM_CHUNK_OPS
        if len(member_params) == 1:
            self.lane_inputs = tuple(array[0] for array in inputs)
            self.lane_output = output[0]
        else:
            self.lane_inputs = self.lane_output = None


def _make_gather(op: str, member_params, ctx):
    """Advanced-indexing kernel for an extraction op with per-member indices."""
    P = len(member_params)
    pidx = np.arange(P)
    if op == "get_scalar":
        rows = np.array([p["row"] % ctx.num_features for p in member_params])
        cols = np.array([p["col"] % ctx.window for p in member_params])
        kidx = np.arange(ctx.num_tasks)
        return lambda m: m[
            pidx[:, None], kidx[None, :], rows[:, None], cols[:, None]
        ]
    if op == "get_row":
        rows = np.array([p["row"] % ctx.num_features for p in member_params])
        return lambda m: m[pidx, :, rows, :]
    if op == "get_column":
        cols = np.array([p["col"] % ctx.window for p in member_params])
        return lambda m: m[pidx, :, :, cols]
    return None


class StackedAlpha:
    """One signature group of compiled alphas executed as a single tape.

    Satisfies the :class:`~repro.engine.backends.ExecutionEngine` per-day
    vocabulary with every array carrying a leading program axis:
    :attr:`prediction` is ``(P, K)``, :meth:`run_inference_batch` returns
    ``(D, P, K)``, and :meth:`set_input` / :meth:`set_label` broadcast one
    shared bar across the whole group — so the engine-layer protocol drives
    a group exactly as it drives one program.  A single program is a
    one-lane group (:class:`~repro.engine.backends.CompiledBackend` drops
    the lane axis for per-program callers).

    Parameters
    ----------
    compiled_group:
        The group's :class:`~repro.compile.compiler.CompiledProgram` members,
        all sharing one :func:`stack_signature` (validated here).
    ctx:
        The shared evaluation context every member binds to — the same
        object the interpreter would hand to every operator.
    input_range:
        A bound on every value ``set_input``/``set_label`` will ever load
        (:func:`~repro.compile.ranges.data_bound`), which lets the range
        analysis elide more sanitizes; ``None`` (the default, and the only
        sound choice for online serving) assumes nothing about ``m0``/``s0``.
    """

    def __init__(self, compiled_group, ctx,
                 input_range: Interval | None = None) -> None:
        compiled_group = list(compiled_group)
        if not compiled_group:
            raise ExecutionError("cannot stack an empty program group")
        template = compiled_group[0]
        if len(compiled_group) > 1:
            signature = stack_signature(template)
            for other in compiled_group[1:]:
                if stack_signature(other) != signature:
                    raise ExecutionError(
                        f"cannot stack {other.program.name!r} with "
                        f"{template.program.name!r}: tape signatures differ"
                    )
        self.group = compiled_group
        self.ctx = ctx
        self.num_programs = P = len(compiled_group)
        #: Batched NumPy kernel calls issued so far (telemetry counter feed).
        self.kernel_calls = 0
        self.input_range = input_range
        # One chunk's matrix operands stay around the budget the fused
        # path uses for its day chunks.
        per_lane = ctx.num_tasks * ctx.num_features * ctx.window
        #: Lanes per kernel call for :data:`_PROGRAM_CHUNK_OPS` entries.
        self.lane_chunk = max(1, _MAX_CHUNK_ELEMENTS // max(per_lane, 1))

        shapes = {
            OperandType.SCALAR: (P, ctx.num_tasks),
            OperandType.VECTOR: (P, ctx.num_tasks, ctx.window),
            OperandType.MATRIX: (P, ctx.num_tasks, ctx.num_features,
                                 ctx.window),
        }
        ir = template.ir
        carried = template.dataflow.carried

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
        self._static_tape: list[_StackedEntry] = []
        self._tapes: dict[str, list[_StackedEntry]] = {}
        self._copies: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        ranges = analyze_ranges(
            [member.ir for member in compiled_group], ctx, input_range
        )
        ranges.record()

        for name, component in ir.components.items():
            static_ids: set[int] = set()
            tape: list[_StackedEntry] = []
            for index, instr in enumerate(component.instructions):
                arrays = []
                for vid in instr.inputs:
                    value = ir.values[vid]
                    if value.operand is not None:
                        arrays.append(state_array(value.operand))
                    else:
                        arrays.append(self._buffers[vid])
                output = np.zeros(shapes[ir.values[instr.result].type])
                self._buffers[instr.result] = output
                member_params = tuple(
                    member.ir.components[name].instructions[index].param_dict
                    for member in compiled_group
                )
                entry = self._bind_entry(
                    instr, tuple(arrays), output, member_params,
                    ranges.modes[name][index],
                )
                # Setup already runs exactly once; hoisting only pays off
                # for the components inside the per-day loops.
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
        #: Per-member tape identity, so suspended lanes resume into any
        #: group holding the same program.
        self.tape_keys = tuple(
            tape_key_for(member.ir) for member in compiled_group
        )
        # Serving (set_input, Predict(), set_label; never Update()) rewrites
        # only m0, s0 and Predict()'s carried exports; snapshot() copies
        # just those when it has a base to share the rest with.
        rewritten = {LABEL} | {
            operand for operand in predict.exports if operand in carried
        }
        self._snapshot_plan = tuple(
            (operand, array, operand in rewritten)
            for operand, array in self._state.items()
            if operand != INPUT_MATRIX
        )
        #: Whether every lane holds the same ``m0``: true after set_input
        #: (programs never write m0), false after a per-lane resume.
        self._shared_m0 = True
        #: The live state as a (view-only) snapshot: suspend_member's source.
        self._live = GroupSnapshot(
            operands={operand: array for operand, array, _ in
                      self._snapshot_plan},
            m0=self._state[INPUT_MATRIX],
            shared_m0=False,
        )

    # ------------------------------------------------------------------
    def _bind_entry(self, instr, inputs, output, member_params, sanitize):
        params0 = member_params[0]
        same_params = all(p == params0 for p in member_params[1:])
        stacked_func = _stacked_func(instr.op)
        if same_params and stacked_func is not None:
            return _StackedEntry(
                instr.op, "stacked", stacked_func, instr.spec.func, None,
                inputs, instr.inputs, output, instr.result, params0,
                member_params, calls=1, sanitize=sanitize,
            )
        gather = None if same_params else _make_gather(
            instr.op, member_params, self.ctx
        )
        if gather is not None:
            return _StackedEntry(
                instr.op, "gather", None, instr.spec.func, gather,
                inputs, instr.inputs, output, instr.result, params0,
                member_params, calls=1, sanitize=sanitize,
            )
        return _StackedEntry(
            instr.op, "loop", None, instr.spec.func, None,
            inputs, instr.inputs, output, instr.result, params0,
            member_params, calls=self.num_programs, sanitize=sanitize,
        )

    # ------------------------------------------------------------------
    @property
    def prediction(self) -> np.ndarray:
        """The ``(P, K)`` predictions left by the last ``run_predict``."""
        return self._prediction

    @property
    def supports_fused_inference(self) -> bool:
        """Whether the group's inference runs as batched tape passes."""
        return self.group[0].fused_inference

    @property
    def supports_static_predict(self) -> bool:
        """Whether the group's whole ``Predict()`` tape is day-invariant.

        True when, beyond fused-inference eligibility, ``Predict()`` reads
        no ``Update()``-carried operand — so the engine layer may run even
        the *training-stage* predictions as one batched
        :meth:`run_inference_batch` call (see
        :func:`repro.engine.protocol.training_pass`).
        """
        return self.group[0].static_predict

    # ------------------------------------------------------------------
    def set_input(self, features: np.ndarray) -> None:
        """Broadcast one day's shared ``(K, f, w)`` bar into every lane."""
        self._state[INPUT_MATRIX][...] = features
        self._shared_m0 = True

    def set_label(self, labels: np.ndarray) -> None:
        """Broadcast one day's realised ``(K,)`` labels into every lane."""
        self._state[LABEL][...] = labels

    # ------------------------------------------------------------------
    def _run_tape(self, entries) -> None:
        ctx = self.ctx
        if self.num_programs == 1:
            # One lane: the registry kernels on lane-0 views, exactly a
            # per-program tape walk (no (1, ...) stacked-kernel overhead).
            for entry in entries:
                sanitize_into(
                    entry.lane_output,
                    entry.spec_func(ctx, entry.lane_inputs, entry.params0),
                    entry.sanitize,
                )
            self.kernel_calls += len(entries)
            return
        calls = 0
        chunk = self.lane_chunk
        for entry in entries:
            mode = entry.mode
            if mode == "stacked":
                out_func = entry.out_func
                if out_func is not None:
                    out = entry.output
                    out_func(entry.inputs, out)
                    sanitize_into(out, out, entry.sanitize)
                elif entry.pchunk and chunk < self.num_programs:
                    for lane0 in range(0, self.num_programs, chunk):
                        lanes = slice(lane0, lane0 + chunk)
                        sanitize_into(
                            entry.output[lanes],
                            entry.func(
                                ctx,
                                tuple(array[lanes]
                                      for array in entry.inputs),
                                entry.params0,
                            ),
                            entry.sanitize,
                        )
                        calls += 1
                    calls -= entry.calls  # netted against the shared add
                else:
                    sanitize_into(
                        entry.output,
                        entry.func(ctx, entry.inputs, entry.params0),
                        entry.sanitize,
                    )
            elif mode == "gather":
                sanitize_into(entry.output, entry.gather(entry.inputs[0]),
                              entry.sanitize)
            else:
                output = entry.output
                func = entry.spec_func
                inputs = entry.inputs
                for lane, params in enumerate(entry.member_params):
                    output[lane] = func(
                        ctx, tuple(array[lane] for array in inputs), params
                    )
                # sanitize is elementwise, so one pass over the stacked
                # buffer equals P per-lane passes bit for bit — and costs
                # one dispatch instead of P.
                sanitize_into(output, output, entry.sanitize)
            calls += entry.calls
        self.kernel_calls += calls

    @staticmethod
    def _write_back(copies) -> None:
        for target, source in copies:
            target[...] = source

    def run_setup(self) -> None:
        """Run every lane's ``Setup()`` once, plus the static prologue."""
        self._run_tape(self._tapes["setup"])
        self._write_back(self._copies["setup"])
        self._run_tape(self._static_tape)

    def run_predict(self) -> None:
        """Run every lane's ``Predict()`` for the current day."""
        self._run_tape(self._tapes["predict"])
        self._write_back(self._copies["predict"])

    def run_update(self) -> None:
        """Run every lane's ``Update()`` for the current day."""
        self._run_tape(self._tapes["update"])
        self._write_back(self._copies["update"])

    # ------------------------------------------------------------------
    # Suspend / resume: lanes slice in and out of the stacked buffers
    # ------------------------------------------------------------------
    def snapshot(self, base: GroupSnapshot | None = None) -> GroupSnapshot:
        """Copy the whole group's loop-carried state at once.

        Without ``base`` every operand is copied.  With ``base`` — an
        earlier snapshot of this group taken since it last ran ``Setup()``
        or ``Update()`` or resumed outside states — only what serving
        rewrites is copied: ``s0``, the operands ``Predict()`` writes and
        ``m0``; every other operand is ``base``'s own array, since serving
        never runs ``Update()`` and leaves them as they were (a
        :meth:`restore` of such a snapshot writes the same values back).
        ``m0`` is copied once as the ``(K, f, w)`` bar :meth:`set_input`
        left in every lane, or in full after a per-lane :meth:`resume`.
        """
        operands = {
            operand: (array.copy() if base is None or rewritten
                      else base.operands[operand])
            for operand, array, rewritten in self._snapshot_plan
        }
        m0 = self._state[INPUT_MATRIX]
        return GroupSnapshot(
            operands=operands,
            m0=(m0[0] if self._shared_m0 else m0).copy(),
            shared_m0=self._shared_m0,
        )

    def materialize(self, lane: int,
                    snapshot: GroupSnapshot | None = None) -> TapeState:
        """Lane ``lane`` of ``snapshot`` (default: the live state) as a
        per-program :class:`TapeState`.

        The state holds private copies of the lane's operand arrays plus
        its own tape key and the binding identity: everything a later
        :meth:`resume` needs to continue day-by-day execution bitwise
        identically.  Materialising a snapshot gives, byte for byte, what
        :meth:`suspend_member` returned when the snapshot was taken.  The
        hoisted static prologue is *not* captured — it is a deterministic
        function of the bound context and is recomputed on resume.
        """
        if snapshot is None:
            snapshot = self._live
        m0 = snapshot.m0 if snapshot.shared_m0 else snapshot.m0[lane]
        ctx = self.ctx
        return TapeState(
            version=TAPE_STATE_VERSION,
            tape_key=self.tape_keys[lane],
            base_seed=ctx.base_seed,
            shape=(ctx.num_tasks, ctx.num_features, ctx.window),
            operands={
                operand.name: (
                    m0 if operand == INPUT_MATRIX
                    else snapshot.operands[operand][lane]
                ).copy()
                for operand in self._state
            },
        )

    def suspend_member(self, lane: int) -> TapeState:
        """Snapshot one lane of the live state as a :class:`TapeState`."""
        return self.materialize(lane)

    def restore(self, snapshot: GroupSnapshot) -> None:
        """Roll the group back to ``snapshot``, through :meth:`resume`."""
        StackedAlpha.resume(self, [
            self.materialize(lane, snapshot)
            for lane in range(self.num_programs)
        ])
        self._shared_m0 = snapshot.shared_m0

    def snapshot_of(self, states) -> GroupSnapshot:
        """Stack one validated :class:`TapeState` per lane into a snapshot."""
        states = self._checked_states(states)
        m0 = INPUT_MATRIX.name
        return GroupSnapshot(
            operands={
                operand: np.stack([state.operands[operand.name]
                                   for state in states])
                for operand, _, _ in self._snapshot_plan
            },
            m0=np.stack([state.operands[m0] for state in states]),
            shared_m0=False,
        )

    def _checked_states(self, states) -> list[TapeState]:
        """``states`` as a list, after validating each against its lane."""
        states = list(states)
        if len(states) != self.num_programs:
            raise ExecutionError(
                f"expected {self.num_programs} tape states for this stacked "
                f"group, got {len(states)}"
            )
        ctx = self.ctx
        shape = (ctx.num_tasks, ctx.num_features, ctx.window)
        expected = {operand.name for operand in self._state}
        for lane, state in enumerate(states):
            if state.version != TAPE_STATE_VERSION:
                raise ExecutionError(
                    f"tape state has version {state.version}, this build "
                    f"reads version {TAPE_STATE_VERSION}"
                )
            if state.tape_key != self.tape_keys[lane]:
                raise ExecutionError(
                    "tape state was suspended from a different compiled "
                    "program"
                )
            if state.shape != shape:
                raise ExecutionError(
                    f"tape state was bound to shape {state.shape}, "
                    f"this executor is bound to {shape}"
                )
            if state.base_seed != ctx.base_seed:
                raise ExecutionError(
                    f"tape state was produced under base seed "
                    f"{state.base_seed}, this executor runs under "
                    f"{ctx.base_seed}"
                )
            snapshot = set(state.operands)
            if expected != snapshot:
                raise ExecutionError(
                    "tape state operand set does not match this tape "
                    f"(missing {sorted(expected - snapshot)}, "
                    f"unexpected {sorted(snapshot - expected)})"
                )
            check_resumed_operands(state.operands, self.input_range)
        return states

    def resume(self, states) -> None:
        """Restore one :class:`TapeState` per lane into this fresh group.

        Validates each snapshot against its lane (tape key, binding shape,
        seed, operand set, operand values — see
        :func:`check_resumed_operands`) before any lane is touched, re-runs
        the static prologue, then writes every lane's operand state; the
        next ``run_predict`` / ``run_update`` continues exactly where the
        suspended executor stopped.
        """
        states = self._checked_states(states)
        self._run_tape(self._static_tape)
        for operand, array in self._state.items():
            name = operand.name
            for lane, state in enumerate(states):
                array[lane] = state.operands[name]
        self._shared_m0 = False

    # ------------------------------------------------------------------
    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Run the whole group's inference stage in batched tape passes.

        ``features`` is the shared ``(D, K, f, w)`` split; the return value
        holds ``(D, P, K)`` predictions, bit-for-bit equal to looping
        ``set_input`` / ``run_predict`` over the days.  The day axis is
        chunked so the largest ``(P, C, K, f, w)`` intermediate stays
        bounded (:data:`_MAX_CHUNK_ELEMENTS`) however big the group.  Only
        valid when :attr:`supports_fused_inference` is True.
        """
        template = self.group[0]
        if not template.fused_inference:
            raise ValueError(
                "program group is not eligible for fused inference; "
                "run day by day"
            )
        ctx = self.ctx
        P = self.num_programs
        num_days = features.shape[0]
        predict = template.ir.components["predict"]
        input_matrix_value = predict.inputs.get(INPUT_MATRIX)

        # Which values depend on the day axis is structural, hence shared.
        batched_ids: set[int] = set()
        if input_matrix_value is not None:
            batched_ids.add(input_matrix_value)
        for entry in self._tapes["predict"]:
            if any(vid in batched_ids for vid in entry.input_ids):
                batched_ids.add(entry.output_id)

        # Entries off the day axis read only current stacked state: one
        # execution covers every day.
        static_entries = [
            entry for entry in self._tapes["predict"]
            if entry.output_id not in batched_ids
        ]
        self._run_tape(static_entries)

        pred_vid = self._prediction_id
        if pred_vid is None or pred_vid not in batched_ids:
            # Prediction independent of m0: every day sees the same value.
            return np.broadcast_to(
                self._prediction, (num_days,) + self._prediction.shape
            ).copy()

        out = np.empty((num_days, P, ctx.num_tasks))
        per_day = P * ctx.num_tasks * ctx.num_features * ctx.window
        day_chunk = max(1, _MAX_CHUNK_ELEMENTS // max(per_day, 1))
        lane_chunk = self.lane_chunk
        calls = 0
        for day0 in range(0, num_days, day_chunk):
            days = features[day0:day0 + day_chunk]
            C = days.shape[0]
            batched: dict[int, np.ndarray] = {}
            if input_matrix_value is not None:
                # Stride-0 view: the shared bar chunk is never materialised
                # P times.
                batched[input_matrix_value] = (
                    days[None] if P == 1
                    else np.broadcast_to(days, (P,) + days.shape)
                )
            for entry in self._tapes["predict"]:
                if entry.output_id not in batched_ids:
                    continue
                inputs = tuple(
                    batched[vid] if vid in batched else array[:, None]
                    for vid, array in zip(entry.input_ids, entry.inputs)
                )
                output = np.empty((P, C) + entry.output.shape[1:])
                if entry.mode == "stacked":
                    if entry.out_func is not None:
                        entry.out_func(inputs, output)
                        sanitize_into(output, output, entry.sanitize)
                        calls += 1
                    elif entry.pchunk and lane_chunk < P:
                        for lane0 in range(0, P, lane_chunk):
                            lanes = slice(lane0, lane0 + lane_chunk)
                            sanitize_into(
                                output[lanes],
                                entry.func(
                                    ctx,
                                    tuple(array[lanes] for array in inputs),
                                    entry.params0,
                                ),
                                entry.sanitize,
                            )
                            calls += 1
                    else:
                        sanitize_into(
                            output, entry.func(ctx, inputs, entry.params0),
                            entry.sanitize,
                        )
                        calls += 1
                elif (day_func := _batched_func(entry.op)) is not None:
                    # Per-member parameters, but the operator batches over
                    # the day axis: one day-batched call per lane (the
                    # elementwise sanitize hoists to one stacked pass).
                    for lane, params in enumerate(entry.member_params):
                        output[lane] = day_func(
                            ctx,
                            tuple(array[lane] for array in inputs),
                            params,
                        )
                    sanitize_into(output, output, entry.sanitize)
                    calls += P
                else:
                    day_flags = tuple(
                        vid in batched for vid in entry.input_ids
                    )
                    for lane, params in enumerate(entry.member_params):
                        lane_inputs = tuple(array[lane] for array in inputs)
                        for day in range(C):
                            day_inputs = tuple(
                                array[day] if flag else array[0]
                                for array, flag in zip(lane_inputs, day_flags)
                            )
                            output[lane, day] = entry.spec_func(
                                ctx, day_inputs, params
                            )
                    sanitize_into(output, output, entry.sanitize)
                    calls += P * C
                batched[entry.output_id] = output
            out[day0:day0 + C] = batched[pred_vid].transpose(1, 0, 2)
        self.kernel_calls += calls
        return out
