"""Mutation operators and random-program generation for the evolutionary search.

The paper (Section 3) mutates a parent alpha into a child with two types of
mutations:

1. *randomising* operands or OP(s) of operations;
2. *inserting* a random operation at a random location, or *removing* an
   operation at a random location.

The mutation probability of each operation is 0.9 (Section 5.2): a sampled
mutation actually modifies the program with that probability, otherwise the
child is a plain copy of the parent (which still enters the population and
ages out, exactly as in regularised evolution).

Random operand / operation / program generation lives here as well because
the no-initialisation and random-initialisation baselines (``alpha_AE_NOOP``
and ``alpha_AE_R``) and the insert mutation all need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import (
    AddressSpace,
    DEFAULT_ADDRESS_SPACE,
    MUTATION_PROBABILITY,
    make_rng,
)
from ..errors import EvolutionError
from .memory import INPUT_MATRIX, LABEL, Operand, OperandType, PREDICTION
from .ops import Dimensions, OpKind, OpSpec, list_ops, sample_params
from .program import COMPONENTS, AlphaProgram, ComponentLimits, Operation

__all__ = ["MutationConfig", "Mutator"]


@dataclass(frozen=True)
class MutationConfig:
    """Tunable knobs of the mutation process.

    ``mutation_probability`` follows Section 5.2.  The action weights choose
    between the paper's two mutation types (randomise vs. insert/remove); the
    bias parameters tilt random generation towards programs that read the
    input matrix and write the prediction, without which almost every random
    program would be redundant and pruned.
    """

    mutation_probability: float = MUTATION_PROBABILITY
    randomize_weight: float = 0.7
    insert_weight: float = 0.15
    remove_weight: float = 0.15
    prediction_output_bias: float = 0.25
    input_matrix_bias: float = 0.4
    allow_relation_ops: bool = True
    allow_extraction_ops: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.mutation_probability <= 1.0):
            raise EvolutionError("mutation_probability must lie in [0, 1]")
        weights = (self.randomize_weight, self.insert_weight, self.remove_weight)
        if min(weights) < 0 or sum(weights) <= 0:
            raise EvolutionError("mutation action weights must be non-negative and not all zero")


class Mutator:
    """Generates random operations and mutates alpha programs."""

    def __init__(
        self,
        dims: Dimensions,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
        limits: ComponentLimits | None = None,
        config: MutationConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.dims = dims
        self.address_space = address_space
        self.limits = limits or ComponentLimits()
        self.config = config or MutationConfig()
        self.rng = make_rng(seed)
        self._ops_by_component = {
            component: self._allowed_ops(component) for component in COMPONENTS
        }

    # ------------------------------------------------------------------
    # Random building blocks
    # ------------------------------------------------------------------
    def _allowed_ops(self, component: str) -> list[OpSpec]:
        specs = list_ops(component=component)
        if not self.config.allow_relation_ops:
            specs = [s for s in specs if s.kind is not OpKind.RELATION]
        if not self.config.allow_extraction_ops:
            specs = [s for s in specs if s.kind is not OpKind.EXTRACTION]
        if self.address_space.num_matrices < 2:
            # m0 is then the only matrix slot, and programs may not write it.
            specs = [s for s in specs if s.output_type is not OperandType.MATRIX]
        if not specs:
            raise EvolutionError(f"no operators available for component {component!r}")
        return specs

    def random_operand(self, operand_type: OperandType, as_output: bool = False,
                       component: str = "predict") -> Operand:
        """Sample an operand address of the requested type.

        Outputs avoid overwriting the reserved label ``s0`` and the input
        matrix ``m0``; scalar outputs in ``Predict()`` are biased towards the
        prediction operand ``s1`` so random programs have a chance of being
        non-redundant.
        """
        sizes = {
            OperandType.SCALAR: self.address_space.num_scalars,
            OperandType.VECTOR: self.address_space.num_vectors,
            OperandType.MATRIX: self.address_space.num_matrices,
        }
        size = sizes[operand_type]
        if not as_output:
            if (
                operand_type is OperandType.MATRIX
                and self.rng.random() < self.config.input_matrix_bias
            ):
                return INPUT_MATRIX
            return Operand(operand_type, int(self.rng.integers(0, size)))

        if (
            operand_type is OperandType.SCALAR
            and component == "predict"
            and self.rng.random() < self.config.prediction_output_bias
        ):
            return PREDICTION
        for _ in range(16):
            candidate = Operand(operand_type, int(self.rng.integers(0, size)))
            if candidate == LABEL or candidate == INPUT_MATRIX:
                continue
            return candidate
        # Tiny address spaces fall through to a writable default (a single
        # matrix slot never gets here: matrix outputs are then not drawn).
        return PREDICTION if operand_type is OperandType.SCALAR else Operand(operand_type, size - 1)

    def random_operation(self, component: str) -> Operation:
        """Sample a random, type-correct operation for ``component``."""
        specs = self._ops_by_component[component]
        spec = specs[int(self.rng.integers(0, len(specs)))]
        inputs = tuple(
            self.random_operand(input_type, as_output=False, component=component)
            for input_type in spec.input_types
        )
        output = self.random_operand(spec.output_type, as_output=True, component=component)
        params = sample_params(spec, self.dims, self.rng)
        return Operation.make(spec.name, inputs, output, params)

    def random_program(
        self,
        num_setup: int = 2,
        num_predict: int = 6,
        num_update: int = 4,
        name: str = "alpha_random",
    ) -> AlphaProgram:
        """Generate a random alpha (used by the ``alpha_AE_R`` initialisation)."""
        limits = self.limits
        counts = {
            "setup": min(max(num_setup, limits.min_ops), limits.max_setup_ops),
            "predict": min(max(num_predict, limits.min_ops), limits.max_predict_ops),
            "update": min(max(num_update, limits.min_ops), limits.max_update_ops),
        }
        program = AlphaProgram(
            setup=[self.random_operation("setup") for _ in range(counts["setup"])],
            predict=[self.random_operation("predict") for _ in range(counts["predict"])],
            update=[self.random_operation("update") for _ in range(counts["update"])],
            name=name,
        )
        program.validate(self.address_space, self.limits)
        return program

    def empty_program(self, name: str = "alpha_noop") -> AlphaProgram:
        """The minimal no-op initialisation (``alpha_AE_NOOP``).

        Each component holds the minimum allowed single operation; the predict
        component writes a constant prediction, which the search must then
        evolve into something useful.
        """
        predict = [
            Operation.make(
                "get_scalar",
                (INPUT_MATRIX,),
                PREDICTION,
                {"row": 0, "col": self.dims.window - 1},
            )
        ]
        setup = [Operation.make("s_const", (), Operand.scalar(2), {"constant": 0.0})]
        update = [Operation.make("s_const", (), Operand.scalar(3), {"constant": 0.0})]
        return AlphaProgram(setup=setup, predict=predict, update=update, name=name)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mutate(self, parent: AlphaProgram, name: str | None = None) -> AlphaProgram:
        """Return a child program mutated from ``parent``.

        With probability ``1 - mutation_probability`` the child is an exact
        copy.  Otherwise one action is applied: randomise an operation,
        insert a random operation, or remove an operation (respecting the
        per-component minimum / maximum operation counts).
        """
        child = parent.copy(name=name or parent.name)
        if self.rng.random() >= self.config.mutation_probability:
            return child

        weights = np.array([
            self.config.randomize_weight,
            self.config.insert_weight,
            self.config.remove_weight,
        ])
        action = self.rng.choice(["randomize", "insert", "remove"], p=weights / weights.sum())
        if action == "randomize":
            return self._randomize(child)
        if action == "insert":
            return self._insert(child)
        return self._remove(child)

    # ------------------------------------------------------------------
    def _pick_component(self, program: AlphaProgram, require_nonempty: bool = True,
                        for_insert: bool = False) -> str | None:
        candidates = []
        for component in COMPONENTS:
            operations = program.component(component)
            if for_insert and len(operations) >= self.limits.max_for(component):
                continue
            if require_nonempty and not operations:
                continue
            candidates.append(component)
        if not candidates:
            return None
        return str(self.rng.choice(candidates))

    def _randomize(self, program: AlphaProgram) -> AlphaProgram:
        component = self._pick_component(program)
        if component is None:
            return program
        operations = program.component(component)
        index = int(self.rng.integers(0, len(operations)))
        old = operations[index]
        if self.rng.random() < 0.5:
            # Randomise the whole operation but keep its output slot so that
            # downstream consumers of the operand still see *some* value.
            specs = self._ops_by_component[component]
            same_output = [s for s in specs if s.output_type is old.output.type]
            spec = same_output[int(self.rng.integers(0, len(same_output)))] if same_output \
                else specs[int(self.rng.integers(0, len(specs)))]
            inputs = tuple(
                self.random_operand(t, as_output=False, component=component)
                for t in spec.input_types
            )
            output = old.output if spec.output_type is old.output.type else \
                self.random_operand(spec.output_type, as_output=True, component=component)
            params = sample_params(spec, self.dims, self.rng)
            operations[index] = Operation.make(spec.name, inputs, output, params)
        else:
            operations[index] = self._tweak_operation(old, component)
        return program

    def _tweak_operation(self, operation: Operation, component: str) -> Operation:
        """Randomise a single aspect (one input, the output, or the params)."""
        spec = operation.spec
        choices = ["output"]
        if spec.arity:
            choices.append("input")
        if spec.param_names:
            choices.append("params")
        choice = str(self.rng.choice(choices))
        inputs = list(operation.inputs)
        output = operation.output
        params = operation.param_dict
        if choice == "input":
            position = int(self.rng.integers(0, spec.arity))
            inputs[position] = self.random_operand(
                spec.input_types[position], as_output=False, component=component
            )
        elif choice == "output":
            output = self.random_operand(spec.output_type, as_output=True, component=component)
        else:
            params = sample_params(spec, self.dims, self.rng)
        return Operation.make(spec.name, tuple(inputs), output, params)

    def _insert(self, program: AlphaProgram) -> AlphaProgram:
        component = self._pick_component(program, require_nonempty=False, for_insert=True)
        if component is None:
            return program
        operations = program.component(component)
        position = int(self.rng.integers(0, len(operations) + 1))
        operations.insert(position, self.random_operation(component))
        return program

    def _remove(self, program: AlphaProgram) -> AlphaProgram:
        removable = [
            component for component in COMPONENTS
            if len(program.component(component)) > self.limits.min_ops
        ]
        if not removable:
            return self._insert(program)
        component = str(self.rng.choice(removable))
        operations = program.component(component)
        position = int(self.rng.integers(0, len(operations)))
        operations.pop(position)
        return program
