"""Tests for alpha-program representation, validation and serialisation."""

import pytest

from repro.config import AddressSpace
from repro.core import (
    AlphaProgram,
    ComponentLimits,
    Dimensions,
    INPUT_MATRIX,
    LABEL,
    Operand,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    neural_network_alpha,
)
from repro.engine import FleetEngine
from repro.errors import ProgramError
from repro.stream import AlphaServer


def simple_program():
    return AlphaProgram(
        setup=[Operation.make("s_const", (), Operand.scalar(2), {"constant": 1.0})],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(3),
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (Operand.scalar(3), Operand.scalar(2)), PREDICTION),
        ],
        update=[Operation.make("s_abs", (Operand.scalar(3),), Operand.scalar(4))],
        name="simple",
    )


class TestOperation:
    def test_render_symbol(self):
        operation = Operation.make("s_add", (Operand.scalar(2), Operand.scalar(3)),
                                   Operand.scalar(4))
        assert operation.render() == "s4 = s2 + s3"

    def test_render_function_with_params(self):
        operation = Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(2),
                                   {"row": 1, "col": 2})
        assert operation.render() == "s2 = get_scalar(m0, col=2, row=1)"

    def test_wrong_arity_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("s_add", (Operand.scalar(2),), Operand.scalar(3))

    def test_wrong_input_type_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("s_add", (Operand.vector(0), Operand.scalar(1)),
                           Operand.scalar(2))

    def test_wrong_output_type_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("s_add", (Operand.scalar(2), Operand.scalar(3)),
                           Operand.vector(0))

    def test_missing_params_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(2), {"row": 0})

    def test_dict_roundtrip(self):
        operation = Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(2),
                                   {"row": 1, "col": 2})
        assert Operation.from_dict(operation.to_dict()) == operation

    def test_operations_hashable(self):
        a = Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(3))
        b = Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(3))
        assert a == b
        assert len({a, b}) == 1


class TestAlphaProgram:
    def test_component_access(self):
        program = simple_program()
        assert program.component("predict") is program.predict
        with pytest.raises(ProgramError):
            program.component("train")

    def test_num_operations(self):
        assert simple_program().num_operations == 4

    def test_copy_is_shallow_lists(self):
        program = simple_program()
        clone = program.copy()
        clone.predict.append(
            Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(5))
        )
        assert program.num_operations == 4
        assert clone.num_operations == 5

    def test_render_contains_components(self):
        text = simple_program().render()
        assert "def Setup():" in text
        assert "def Predict():" in text
        assert "def Update():" in text
        assert "s1 = s3 + s2" in text

    def test_json_roundtrip(self):
        program = simple_program()
        restored = AlphaProgram.from_json(program.to_json())
        assert restored == program
        assert restored.name == "simple"

    def test_equality_and_hash_by_structure(self):
        assert simple_program() == simple_program()
        assert hash(simple_program()) == hash(simple_program())
        other = simple_program()
        other.predict.pop()
        assert other != simple_program()

    def test_validation_passes_for_well_formed(self):
        simple_program().validate()

    def test_validation_rejects_out_of_space_operand(self):
        program = simple_program()
        program.predict.append(
            Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(9))
        )
        tight = AddressSpace(num_scalars=5, num_vectors=2, num_matrices=1)
        with pytest.raises(ProgramError):
            program.validate(tight)

    def test_validation_rejects_too_many_operations(self):
        program = simple_program()
        limits = ComponentLimits(max_predict_ops=1)
        with pytest.raises(ProgramError):
            program.validate(limits=limits)

    def test_validation_rejects_relation_op_in_setup(self):
        program = simple_program()
        program.setup.append(
            Operation.make("rank", (Operand.scalar(2),), Operand.scalar(3))
        )
        with pytest.raises(ProgramError):
            program.validate()

    @pytest.mark.parametrize("component, write", [
        ("predict", Operation.make("m_mul", (INPUT_MATRIX, INPUT_MATRIX),
                                   INPUT_MATRIX)),
        ("update", Operation.make("s_abs", (PREDICTION,), LABEL)),
        ("setup", Operation.make("s_const", (), LABEL, {"constant": 1.0})),
    ])
    def test_validation_rejects_writes_to_reserved_inputs(self, component,
                                                          write):
        program = simple_program()
        getattr(program, component).insert(0, write)
        with pytest.raises(ProgramError, match="reserved input"):
            program.validate()

    def test_component_limits_max_for(self):
        limits = ComponentLimits()
        assert limits.max_for("setup") == 21
        assert limits.max_for("update") == 45
        with pytest.raises(ProgramError):
            limits.max_for("other")


class TestBuiltinAlphas:
    def test_domain_expert_alpha_valid(self):
        program = domain_expert_alpha(Dimensions(13, 13))
        program.validate()
        assert any(op.output == PREDICTION for op in program.predict)

    def test_neural_network_alpha_valid(self):
        program = neural_network_alpha(Dimensions(13, 13))
        program.validate()
        assert len(program.update) >= 5

    def test_serialisation_of_builtin_alphas(self):
        for program in (domain_expert_alpha(Dimensions(13, 13)),
                        neural_network_alpha(Dimensions(13, 13))):
            assert AlphaProgram.from_json(program.to_json()) == program


class TestReservedInputWrites:
    """A program writing ``m0``/``s0`` is refused at every entry point: the
    compiled paths drop such a write where the interpreter keeps it, so
    their predictions would differ."""

    @staticmethod
    def loaded_program():
        program = simple_program()
        program.predict.append(
            Operation.make("m_mul", (INPUT_MATRIX, INPUT_MATRIX), INPUT_MATRIX)
        )
        return AlphaProgram.from_json(program.to_json())

    def test_evaluator_refuses(self, evaluator):
        with pytest.raises(ProgramError, match="m0"):
            evaluator.evaluate(self.loaded_program())

    def test_fleet_refuses(self, evaluator):
        with pytest.raises(ProgramError, match="m0"):
            FleetEngine(evaluator).add(self.loaded_program())

    def test_server_refuses(self, small_taskset):
        server = AlphaServer(small_taskset)
        with pytest.raises(ProgramError, match="m0"):
            server.register(self.loaded_program())
        assert server.registrations == []
