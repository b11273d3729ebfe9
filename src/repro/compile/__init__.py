"""Alpha-program compilation: SSA IR, optimiser passes, the tape executor.

The pipeline generalises the paper's Section 4.2 dataflow view of an alpha
into a small query-engine-style compiler: programs are lowered into an SSA
IR (:mod:`.ir`), optimised by a pass pipeline (:mod:`.passes` — constant
folding, commutative canonicalisation, common-subexpression elimination and
a dead-code elimination that reuses the backward-liveness pruning), and
executed by one flat-tape executor (:mod:`.stacked`) with pre-resolved
dispatch, preallocated slots, range-proven sanitize elision (:mod:`.ranges`),
a fused batched inference stage and a leading program axis that runs a
signature group of programs as one tape.

Entry points:

* :func:`compile_program` + :class:`StackedAlpha` — the execution pipeline
  (bitwise identical to the interpreter; a single program is a one-lane
  group, which :class:`repro.engine.CompiledBackend` wraps for
  :class:`repro.core.interpreter.AlphaEvaluator`);
* :func:`canonical_key` — the canonicalised-IR fingerprint substrate used by
  :class:`repro.core.cache.FingerprintCache`;
* :func:`describe_compilation` — the ``repro inspect`` report.
"""

from .compiler import (
    CompiledProgram,
    canonical_ir,
    canonical_key,
    compile_program,
    describe_compilation,
)
from .ir import IRComponent, IRInstruction, IRProgram, IRValue, lower_program
from .lookback import LookbackInfo, analyze_lookback
from .ranges import RangeInfo, analyze_ranges, data_bound
from .stacked import (
    TAPE_STATE_VERSION, GroupSnapshot, StackedAlpha, TapeState,
    stack_signature, tape_key_for,
)
from .passes import (
    DataflowInfo,
    PassStats,
    analyze_dataflow,
    canonicalize_commutative,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
)

__all__ = [
    "CompiledProgram",
    "DataflowInfo",
    "GroupSnapshot",
    "IRComponent",
    "IRInstruction",
    "IRProgram",
    "IRValue",
    "LookbackInfo",
    "PassStats",
    "RangeInfo",
    "StackedAlpha",
    "TAPE_STATE_VERSION",
    "TapeState",
    "analyze_dataflow",
    "analyze_lookback",
    "analyze_ranges",
    "canonical_ir",
    "canonical_key",
    "canonicalize_commutative",
    "compile_program",
    "data_bound",
    "describe_compilation",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "fold_constants",
    "lower_program",
    "stack_signature",
    "tape_key_for",
]
