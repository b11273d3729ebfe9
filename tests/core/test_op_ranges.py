"""Registry metadata tests for the operators' declared output ranges.

Every operator declares a :class:`~repro.core.ops.RangeRule` next to its
function.  The compiled executors skip the post-op sanitize wherever those
rules prove it changes nothing, so each rule is a soundness claim, checked
here op by op against the raw ``func`` output:

* inside the declared interval (and finite) for inputs drawn inside their
  own intervals — boundaries at ``±CLIP_VALUE``, zeros of both signs,
  subnormals and data-like magnitudes included;
* finite for every input within ``±CLIP_VALUE``, which is what the
  ``clip`` sanitize mode rests on when a rule proves no bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import Dimensions, ExecutionContext, OperandType
from repro.core.ops import CLIP_VALUE, OP_REGISTRY, RangeRule, get_op, sample_params

NUM_TASKS, NUM_FEATURES, WINDOW = 6, 4, 4

#: Values the intervals' bounds are drawn from besides arbitrary floats:
#: the clip boundaries, both zeros, subnormals, the protected-op epsilon and
#: magnitudes like the task set's features and labels.
SPECIAL_BOUNDS = (
    CLIP_VALUE, -CLIP_VALUE, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-9,
    -1e-9, 1.0, -1.0, 0.028, 2.59, -0.117, 0.148, 13.8, 50.0, -50.0,
)

SHAPES = {
    OperandType.SCALAR: (NUM_TASKS,),
    OperandType.VECTOR: (NUM_TASKS, WINDOW),
    OperandType.MATRIX: (NUM_TASKS, NUM_FEATURES, WINDOW),
}


def make_context():
    return ExecutionContext(
        num_tasks=NUM_TASKS,
        num_features=NUM_FEATURES,
        window=WINDOW,
        sector_index=np.array([0, 0, 0, 1, 1, 1]),
        industry_index=np.array([0, 0, 1, 2, 2, 3]),
        base_seed=11,
    )


def _signed_order(value):
    # -0.0 sorts below 0.0, so an interval's bounds are always ordered.
    return (value, math.copysign(1.0, value))


bounds = st.one_of(
    st.sampled_from(SPECIAL_BOUNDS),
    st.floats(-CLIP_VALUE, CLIP_VALUE),
)


@st.composite
def interval_inputs(draw, spec):
    """One ``(interval, array within it)`` pair per input operand."""
    intervals, values = [], []
    for operand_type in spec.input_types:
        lo, hi = sorted((draw(bounds), draw(bounds)), key=_signed_order)
        elements = st.floats(lo, hi)
        values.append(draw(arrays(np.float64, SHAPES[operand_type],
                                  elements=elements)))
        intervals.append((lo, hi))
    return tuple(intervals), tuple(values)


@st.composite
def op_params(draw, spec):
    """Sampler-drawn parameters, with extreme constants and init bounds."""
    params = sample_params(spec, Dimensions(NUM_FEATURES, WINDOW),
                           np.random.default_rng(draw(st.integers(0, 2**32))))
    extreme = st.one_of(bounds, st.sampled_from((1e300, -1e300, 1e7)))
    if "constant" in params:
        params["constant"] = draw(extreme)
    for name in ("low", "high"):
        if name in params:
            params[name] = draw(st.one_of(st.floats(-1.0, 1.0), bounds))
    return params


class TestRegistryDeclaresRanges:
    def test_every_operator_declares_a_rule(self):
        rules = [spec.range_rule for spec in OP_REGISTRY.values()
                 if isinstance(spec.range_rule, RangeRule)]
        assert len(rules) == len(OP_REGISTRY) == 63

    def test_every_rule_is_labelled(self):
        for spec in OP_REGISTRY.values():
            assert spec.range_rule.label.strip(), spec.name

    def test_known_rules(self):
        ctx = make_context()
        full = ((-CLIP_VALUE, CLIP_VALUE),)
        assert get_op("rank").range_rule(full, {}, ctx) == (0.0, 1.0)
        assert get_op("s_tan").range_rule(full, {}, ctx) is None
        # protected divide: no proof once the denominator may be near 0
        assert get_op("s_div").range_rule(full * 2, {}, ctx) is None
        assert get_op("s_div").range_rule(
            ((1.0, 2.0), (0.5, 4.0)), {}, ctx) == (0.25, 4.0)
        # exp is bounded by exp(50), which leaves the clip range
        lo, hi = get_op("s_exp").range_rule(full, {}, ctx)
        assert hi > CLIP_VALUE and lo <= math.exp(-50.0)
        assert get_op("s_const").range_rule((), {"constant": math.nan},
                                            ctx) is None

    def test_reductions_widen_for_rounding(self):
        ctx = make_context()
        lo, hi = get_op("v_sum").range_rule(((1.0, 1.0),), {}, ctx)
        assert lo < WINDOW * 1.0 < hi


@pytest.mark.parametrize("name", sorted(OP_REGISTRY))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_raw_output_inside_declared_range(name, data):
    spec = get_op(name)
    ctx = make_context()
    intervals, values = data.draw(interval_inputs(spec))
    params = data.draw(op_params(spec))
    declared = spec.range_rule(intervals, params, ctx)
    with np.errstate(all="ignore"):
        raw = np.asarray(spec.func(ctx, values, params), dtype=np.float64)
    if declared is None:
        return
    lo, hi = declared
    assert math.isfinite(lo) and math.isfinite(hi)
    assert np.isfinite(raw).all()
    assert (raw >= lo).all() and (raw <= hi).all(), (declared, raw)


@pytest.mark.parametrize("name", sorted(OP_REGISTRY))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_clipped_inputs_give_finite_output(name, data):
    spec = get_op(name)
    ctx = make_context()
    elements = st.one_of(st.sampled_from(SPECIAL_BOUNDS),
                         st.floats(-CLIP_VALUE, CLIP_VALUE))
    values = tuple(
        data.draw(arrays(np.float64, SHAPES[operand_type], elements=elements))
        for operand_type in spec.input_types
    )
    params = sample_params(spec, Dimensions(NUM_FEATURES, WINDOW),
                           np.random.default_rng(data.draw(st.integers(0, 2**32))))
    with np.errstate(all="ignore"):
        raw = np.asarray(spec.func(ctx, values, params), dtype=np.float64)
    assert np.isfinite(raw).all()
