"""Tests for mutation and random-program generation."""

import pytest

from repro.config import AddressSpace
from repro.core import (
    ComponentLimits,
    INPUT_MATRIX,
    LABEL,
    MutationConfig,
    Mutator,
    OperandType,
    domain_expert_alpha,
)
from repro.core.ops import OpKind
from repro.errors import EvolutionError


class TestMutationConfig:
    def test_invalid_probability(self):
        with pytest.raises(EvolutionError):
            MutationConfig(mutation_probability=1.5)

    def test_invalid_weights(self):
        with pytest.raises(EvolutionError):
            MutationConfig(randomize_weight=0, insert_weight=0, remove_weight=0)
        with pytest.raises(EvolutionError):
            MutationConfig(randomize_weight=-1)


class TestRandomGeneration:
    def test_random_operand_types(self, mutator):
        for operand_type in OperandType:
            operand = mutator.random_operand(operand_type)
            assert operand.type is operand_type

    def test_random_output_never_label_or_input_matrix(self, mutator):
        for _ in range(200):
            scalar = mutator.random_operand(OperandType.SCALAR, as_output=True)
            matrix = mutator.random_operand(OperandType.MATRIX, as_output=True)
            assert scalar != LABEL
            assert matrix != INPUT_MATRIX

    def test_random_operation_valid_per_component(self, mutator):
        for component in ("setup", "predict", "update"):
            for _ in range(30):
                operation = mutator.random_operation(component)
                assert component in operation.spec.components

    def test_random_program_respects_limits(self, dims):
        limits = ComponentLimits(max_setup_ops=3, max_predict_ops=4, max_update_ops=5)
        mutator = Mutator(dims, limits=limits, seed=1)
        program = mutator.random_program(num_setup=10, num_predict=10, num_update=10)
        assert len(program.setup) <= 3
        assert len(program.predict) <= 4
        assert len(program.update) <= 5

    def test_random_program_is_valid(self, mutator):
        for _ in range(10):
            mutator.random_program().validate()

    def test_empty_program_writes_prediction(self, mutator):
        program = mutator.empty_program()
        assert any(op.output.name == "s1" for op in program.predict)

    def test_relation_ops_can_be_disabled(self, dims):
        config = MutationConfig(allow_relation_ops=False)
        mutator = Mutator(dims, config=config, seed=3)
        ops = mutator._ops_by_component["predict"]
        assert all(spec.kind is not OpKind.RELATION for spec in ops)

    def test_single_matrix_space_never_writes_m0(self, dims):
        # m0 is the only matrix slot and validation refuses writes to it,
        # so matrix-output operators are left out of the mutator's choices.
        space = AddressSpace(num_matrices=1)
        mutator = Mutator(dims, address_space=space, seed=5)
        program = domain_expert_alpha(dims)
        for _ in range(30):
            mutator.random_program().validate(space)
            program = mutator.mutate(program)
            program.validate(space)

    def test_determinism_given_seed(self, dims):
        a = Mutator(dims, seed=11).random_program()
        b = Mutator(dims, seed=11).random_program()
        assert a == b


class TestMutate:
    def test_parent_never_modified(self, mutator, dims):
        parent = domain_expert_alpha(dims)
        rendering = parent.render()
        for _ in range(50):
            mutator.mutate(parent)
        assert parent.render() == rendering

    def test_zero_probability_returns_copy(self, dims):
        mutator = Mutator(dims, config=MutationConfig(mutation_probability=0.0), seed=0)
        parent = domain_expert_alpha(dims)
        child = mutator.mutate(parent)
        assert child == parent
        assert child is not parent

    def test_children_eventually_differ(self, mutator, dims):
        parent = domain_expert_alpha(dims)
        assert any(mutator.mutate(parent) != parent for _ in range(20))

    def test_children_are_always_valid(self, mutator, dims):
        program = domain_expert_alpha(dims)
        for _ in range(200):
            program = mutator.mutate(program)
            program.validate(mutator.address_space, mutator.limits)

    def test_component_sizes_stay_within_limits(self, dims):
        limits = ComponentLimits(max_setup_ops=4, max_predict_ops=6, max_update_ops=6)
        mutator = Mutator(dims, limits=limits, seed=5)
        program = domain_expert_alpha(dims)
        for _ in range(300):
            program = mutator.mutate(program)
        assert len(program.setup) <= 4
        assert len(program.predict) <= 6
        assert len(program.update) <= 6
        for component in ("setup", "predict", "update"):
            assert len(program.component(component)) >= limits.min_ops

    def test_insert_and_remove_change_length(self, dims):
        mutator = Mutator(
            dims,
            config=MutationConfig(randomize_weight=0.0, insert_weight=1.0,
                                  remove_weight=0.0),
            seed=2,
        )
        parent = domain_expert_alpha(dims)
        child = mutator.mutate(parent)
        assert child.num_operations == parent.num_operations + 1

        remover = Mutator(
            dims,
            config=MutationConfig(randomize_weight=0.0, insert_weight=0.0,
                                  remove_weight=1.0),
            seed=2,
        )
        shrunk = remover.mutate(parent)
        assert shrunk.num_operations == parent.num_operations - 1

    def test_mutate_keeps_name_or_renames(self, mutator, dims):
        parent = domain_expert_alpha(dims)
        child = mutator.mutate(parent, name="alpha_child")
        assert child.name == "alpha_child"
        child_default = mutator.mutate(parent)
        assert child_default.name == parent.name
