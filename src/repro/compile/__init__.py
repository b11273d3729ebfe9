"""Alpha-program compilation: SSA IR, optimiser passes, fused executor.

The pipeline generalises the paper's Section 4.2 dataflow view of an alpha
into a small query-engine-style compiler: programs are lowered into an SSA
IR (:mod:`.ir`), optimised by a pass pipeline (:mod:`.passes` — constant
folding, commutative canonicalisation, common-subexpression elimination and
a dead-code elimination that reuses the backward-liveness pruning), and
executed by a flat-tape executor (:mod:`.executor`) with pre-resolved
dispatch, preallocated slots, range-proven sanitize elision (:mod:`.ranges`)
and a fused batched inference stage.

Entry points:

* :func:`compile_program` + :class:`CompiledAlpha` — the execution pipeline
  (bitwise identical to the interpreter; used by
  :class:`repro.core.interpreter.AlphaEvaluator` when ``compiled=True``);
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
from .executor import CompiledAlpha, TAPE_STATE_VERSION, TapeState, tape_key_for
from .ir import IRComponent, IRInstruction, IRProgram, IRValue, lower_program
from .lookback import LookbackInfo, analyze_lookback
from .ranges import RangeInfo, analyze_ranges, data_bound
from .stacked import StackedAlpha, stack_signature
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
    "CompiledAlpha",
    "CompiledProgram",
    "DataflowInfo",
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
