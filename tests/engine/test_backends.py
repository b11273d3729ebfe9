"""Backend contract tests: both engines speak the protocol identically."""

import numpy as np
import pytest

from repro.core import AlphaEvaluator, Dimensions, get_initialization
from repro.engine import (
    ENGINES,
    CompiledBackend,
    ExecutionEngine,
    InterpreterBackend,
    make_backend,
    resolve_engine,
)
from repro.errors import EngineError


@pytest.fixture()
def program(dims):
    return get_initialization("NN", dims, seed=3)


class TestResolveEngine:
    def test_default_is_compiled(self):
        assert resolve_engine() == "compiled"
        assert resolve_engine(None, None) == "compiled"

    def test_legacy_flag_maps_onto_names(self):
        assert resolve_engine(compiled=True) == "compiled"
        assert resolve_engine(compiled=False) == "interpreter"

    def test_explicit_name_wins_over_flag(self):
        assert resolve_engine("interpreter", compiled=True) == "interpreter"

    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError, match="unknown execution engine"):
            resolve_engine("gpu")


class TestMakeBackend:
    def test_every_engine_constructs(self, evaluator, program):
        for engine in ENGINES:
            backend = make_backend(program, evaluator.make_context(), engine)
            assert isinstance(backend, ExecutionEngine)

    def test_classes_match_names(self, evaluator, program):
        ctx = evaluator.make_context()
        assert isinstance(
            make_backend(program, ctx, "interpreter"), InterpreterBackend
        )
        assert isinstance(make_backend(program, ctx, "compiled"), CompiledBackend)


class TestStepEquivalence:
    """Stepping both backends by hand produces bitwise-equal predictions."""

    def test_day_by_day_predictions_match(self, small_taskset, evaluator, program):
        features = small_taskset.split_features("train")
        labels = small_taskset.split_labels("train")
        backends = [
            make_backend(program, evaluator.make_context(), engine)
            for engine in ENGINES
        ]
        for backend in backends:
            backend.run_setup()
        for day in range(5):
            predictions = []
            for backend in backends:
                backend.set_input(features[day])
                backend.run_predict()
                predictions.append(backend.prediction.copy())
                backend.set_label(labels[day])
                backend.run_update()
            reference = predictions[0]
            assert reference.shape == (small_taskset.num_tasks,)
            for other in predictions[1:]:
                assert other.tobytes() == reference.tobytes()

    def test_compiled_backend_drops_the_lane_axis(
        self, small_taskset, evaluator, program
    ):
        """A one-lane group presenting per-program shapes: ``(K,)``
        predictions, ``(D, K)`` fused batches, one ``TapeState``."""
        from repro.compile import StackedAlpha, TapeState
        from repro.core import domain_expert_alpha

        backend = make_backend(program, evaluator.make_context(), "compiled")
        assert isinstance(backend, StackedAlpha)
        assert backend.num_programs == 1
        assert backend.compiled.program is program
        backend.run_setup()
        assert backend.prediction.shape == (small_taskset.num_tasks,)
        state = backend.suspend()
        assert isinstance(state, TapeState)
        fresh = make_backend(program, evaluator.make_context(), "compiled")
        fresh.resume(state)

        static = domain_expert_alpha(Dimensions(small_taskset.num_features,
                                                small_taskset.window))
        fused = make_backend(static, evaluator.make_context(), "compiled")
        reference = make_backend(static, evaluator.make_context(),
                                 "interpreter")
        fused.run_setup()
        reference.run_setup()
        features = small_taskset.split_features("valid")
        batch = fused.run_inference_batch(features)
        assert batch.shape == features.shape[:2]
        for day in range(features.shape[0]):
            reference.set_input(features[day])
            reference.run_predict()
            assert batch[day].tobytes() == reference.prediction.tobytes()

    def test_interpreter_matches_legacy_evaluator(self, small_taskset, program):
        legacy = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=40, compiled=False
        )
        modern = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=40, engine="interpreter"
        )
        assert legacy.engine == modern.engine == "interpreter"
        left = legacy.run(program, splits=("valid",))["valid"]
        right = modern.run(program, splits=("valid",))["valid"]
        assert left.tobytes() == right.tobytes()


class TestCapabilities:
    def test_interpreter_never_batches(self, evaluator, program):
        backend = make_backend(program, evaluator.make_context(), "interpreter")
        assert not backend.supports_fused_inference
        assert not backend.supports_static_predict
        with pytest.raises(EngineError, match="does not batch"):
            backend.run_inference_batch(np.zeros((1, 1, 1, 1)))

    def test_static_predict_implies_fused(self, evaluator, dims):
        for code in ("D", "NN", "R"):
            backend = make_backend(
                get_initialization(code, dims, seed=3),
                evaluator.make_context(),
                "compiled",
            )
            if backend.supports_static_predict:
                assert backend.supports_fused_inference

    def test_domain_expert_predict_is_static(self, evaluator, dims):
        """The formulaic alpha reads no Update()-carried state."""
        backend = make_backend(
            get_initialization("D", dims, seed=3),
            evaluator.make_context(),
            "compiled",
        )
        assert backend.supports_static_predict

    def test_nn_alpha_predict_is_not_static(self, evaluator, dims):
        """The NN alpha's Predict() reads weights Update() trains."""
        backend = make_backend(
            get_initialization("NN", dims, seed=3),
            evaluator.make_context(),
            "compiled",
        )
        assert not backend.supports_static_predict
