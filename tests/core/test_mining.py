"""Tests for the multi-round weakly-correlated mining session."""

import inspect
import os

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    MiningSession,
    domain_expert_alpha,
    prune_program,
)
from repro.core.interpreter import AlphaEvaluator
from repro.engine import FleetEngine
from repro.errors import EvolutionError


@pytest.fixture()
def session(small_taskset):
    return MiningSession(
        small_taskset,
        evolution_config=EvolutionConfig(population_size=10, tournament_size=4,
                                         max_candidates=80),
        long_k=5,
        short_k=5,
        max_train_steps=20,
        seed=11,
    )


class TestEvaluateAlpha:
    def test_fixed_alpha_metrics(self, session, dims):
        mined = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        assert mined.name == "alpha_D_0"
        assert np.isfinite(mined.sharpe)
        assert np.isfinite(mined.ic)
        assert mined.valid_returns.shape == (session.taskset.split.valid,)
        assert np.isnan(mined.correlation_with_accepted)

    def test_use_update_flag_forwarded(self, session, dims):
        with_update = session.evaluate_alpha(domain_expert_alpha(dims), use_update=True)
        without_update = session.evaluate_alpha(domain_expert_alpha(dims), use_update=False)
        # The expert alpha has no parameters, so the ablation changes nothing.
        assert with_update.ic == pytest.approx(without_update.ic)

    def test_row_format(self, session, dims):
        row = session.evaluate_alpha(domain_expert_alpha(dims), name="x").row()
        assert set(row) == {"alpha", "sharpe", "ic", "correlation"}


class TestSearch:
    def test_search_improves_or_matches_initial(self, session, dims):
        initial = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        assert mined.name == "alpha_AE_D_0"
        assert mined.extras["valid_ic"] >= initial.extras.get("valid_ic", -1.0) - 0.05
        assert mined.extras["searched_alphas"] == 80
        assert mined.evolution is not None

    def test_accept_and_cutoff_reference(self, session, dims):
        first = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        session.accept(first)
        assert session.accepted_programs() == [first.program]
        second = session.search(domain_expert_alpha(dims), name="alpha_AE_D_1",
                                enforce_cutoff=True)
        # The correlation of the accepted alpha with itself is 1, so the new
        # alpha must have been checked against it.
        assert not np.isnan(second.correlation_with_accepted)

    def test_accept_requires_valid_returns(self, session, dims):
        mined = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        mined.valid_returns = np.empty(0)
        with pytest.raises(EvolutionError):
            session.accept(mined)

    def test_describe_accepted(self, session, dims):
        mined = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        session.accept(mined)
        rows = session.describe_accepted()
        assert rows[0]["alpha"] == "alpha_D_0"

    def test_simplify_delegates_to_pruning(self, dims):
        program = domain_expert_alpha(dims)
        assert MiningSession.simplify(program) == prune_program(program).program

    def test_pruning_ablation_override(self, session, dims):
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0_N",
                               enforce_cutoff=False, use_pruning=False)
        assert mined.extras["evaluated_alphas"] == mined.extras["searched_alphas"]

    def test_use_pruning_override_keeps_other_config_fields(self, small_taskset, dims):
        """The override rebuild must not drop fields (e.g. num_islands)."""
        session = MiningSession(
            small_taskset,
            evolution_config=EvolutionConfig(population_size=8, tournament_size=3,
                                             max_candidates=40, num_islands=2),
            long_k=5,
            short_k=5,
            max_train_steps=20,
            seed=11,
        )
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0_N",
                               enforce_cutoff=False, use_pruning=False)
        # Were num_islands dropped by the rebuild, the serial controller
        # would run and report num_islands == 1.
        assert mined.extras["num_islands"] == 2
        assert mined.extras["searched_alphas"] == 40
        assert mined.extras["evaluated_alphas"] == mined.extras["searched_alphas"]

    def test_checkpoint_dir_alone_enables_checkpointing(self, small_taskset, dims,
                                                        tmp_path):
        """--checkpoint without --islands/--workers must not be ignored."""
        session = MiningSession(
            small_taskset,
            evolution_config=EvolutionConfig(population_size=8, tournament_size=3,
                                             max_candidates=40),
            long_k=5,
            short_k=5,
            max_train_steps=20,
            seed=11,
            checkpoint_dir=str(tmp_path),
        )
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        assert os.path.exists(tmp_path / "alpha_AE_D_0.ckpt")
        assert mined.extras["searched_alphas"] == 40

    def test_island_search_through_session(self, small_taskset, dims):
        session = MiningSession(
            small_taskset,
            evolution_config=EvolutionConfig(population_size=8, tournament_size=3,
                                             max_candidates=40, num_islands=3),
            long_k=5,
            short_k=5,
            max_train_steps=20,
            seed=11,
        )
        first = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        session.accept(first)
        # The island controller must honour the accepted-set cutoff too.
        second = session.search(domain_expert_alpha(dims), name="alpha_AE_D_1",
                                enforce_cutoff=True)
        assert first.extras["num_islands"] == 3
        assert not np.isnan(second.correlation_with_accepted)


@pytest.fixture()
def split_log(tmp_path, monkeypatch):
    """Log the splits of every ``FleetEngine.run`` and ``AlphaEvaluator.run``.

    The spies append to a file, so runs inside forked pool workers (which
    inherit the patched classes) are logged too.  Returns a reader giving
    ``(kind, pid, splits)`` tuples.
    """
    path = tmp_path / "splits.log"

    def spy(cls, kind):
        original = cls.run
        signature = inspect.signature(original)

        def run(self, *args, **kwargs):
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            with open(path, "a") as log:
                log.write(f"{kind} {os.getpid()} "
                          f"{','.join(bound.arguments['splits'])}\n")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run", run)

    spy(FleetEngine, "fleet")
    spy(AlphaEvaluator, "evaluator")

    def read():
        if not path.exists():
            return []
        entries = [line.split() for line in path.read_text().splitlines()]
        return [(kind, int(pid), tuple(splits.split(",")))
                for kind, pid, splits in entries]

    return read


class TestValidationOnlySearch:
    """Candidates are scored on the validation split alone; only the
    winner's assessment runs the test split."""

    @staticmethod
    def mine_two(taskset, dims, **parallel):
        session = MiningSession(
            taskset,
            evolution_config=EvolutionConfig(population_size=8, tournament_size=3,
                                             max_candidates=40, **parallel),
            long_k=5,
            short_k=5,
            max_train_steps=20,
            seed=11,
        )
        first = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        session.accept(first)
        # With a reference in A, the cutoff path (validation returns) runs.
        second = session.search(domain_expert_alpha(dims), name="alpha_AE_D_1")
        return [first, second]

    @staticmethod
    def assert_validation_only(runs, pool):
        fleet = [entry for entry in runs if entry[0] == "fleet"]
        evaluator = [entry for entry in runs if entry[0] == "evaluator"]
        assert fleet and all(splits == ("valid",) for _, _, splits in fleet)
        # One assessment per search, in the parent process.
        assert evaluator == [("evaluator", os.getpid(), ("valid", "test"))] * 2
        scored_in_workers = any(pid != os.getpid() for _, pid, _ in fleet)
        assert scored_in_workers == pool

    def test_serial_search_never_runs_test_split(self, small_taskset, dims,
                                                 split_log):
        self.mine_two(small_taskset, dims)
        self.assert_validation_only(split_log(), pool=False)

    def test_pool_search_never_runs_test_split(self, small_taskset, dims,
                                               split_log):
        in_process = self.mine_two(small_taskset, dims, num_islands=2)
        before = len(split_log())
        pooled = self.mine_two(small_taskset, dims, num_islands=2,
                               num_workers=2)
        self.assert_validation_only(split_log()[before:], pool=True)
        for got, want in zip(pooled, in_process):
            assert got.program == want.program
            assert got.ic == want.ic and got.sharpe == want.sharpe
            assert got.valid_returns.tobytes() == want.valid_returns.tobytes()
