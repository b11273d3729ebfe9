"""Tests for the regularised evolutionary search."""

import numpy as np
import pytest

from repro.backtest import BacktestEngine
from repro.core import (
    INPUT_MATRIX,
    PREDICTION,
    AlphaEvaluator,
    AlphaProgram,
    CandidateScorer,
    CorrelationFilter,
    EvolutionConfig,
    EvolutionController,
    MutationConfig,
    Mutator,
    Operand,
    Operation,
    domain_expert_alpha,
    get_initialization,
)
from repro.core.fitness import INVALID_FITNESS
from repro.errors import EvolutionError
from repro.obs import telemetry_session


def degenerate_alpha():
    """Reads the input (so pruning keeps it) but predicts ``x - x == 0``."""
    x = Operand.scalar(2)
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), x, {"row": 0, "col": 0}),
            Operation.make("s_sub", (x, x), PREDICTION),
        ],
        update=[],
    )


def make_controller(taskset, dims, max_candidates=80, use_pruning=True,
                    correlation_filter=None, seed=3, mutation_config=None):
    evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=20)
    mutator = Mutator(dims, config=mutation_config, seed=seed)
    engine = BacktestEngine(taskset, long_k=5, short_k=5) if correlation_filter else None
    return EvolutionController(
        evaluator=evaluator,
        mutator=mutator,
        config=EvolutionConfig(
            population_size=10,
            tournament_size=4,
            max_candidates=max_candidates,
            use_pruning=use_pruning,
        ),
        correlation_filter=correlation_filter,
        backtest_engine=engine,
        seed=seed,
    )


class TestEvolutionConfig:
    def test_invalid_population(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(population_size=1)

    def test_invalid_tournament(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(population_size=5, tournament_size=10)

    def test_budget_required(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(max_candidates=None, max_seconds=None)

    def test_invalid_parallel_settings(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(num_workers=0)
        with pytest.raises(EvolutionError):
            EvolutionConfig(num_islands=0)

    def test_negative_budgets_rejected(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(max_candidates=0)
        with pytest.raises(EvolutionError):
            EvolutionConfig(max_candidates=None, max_seconds=-1.0)


class TestEvolutionController:
    def test_requires_engine_with_filter(self, small_taskset, dims):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with pytest.raises(EvolutionError):
            EvolutionController(
                evaluator=evaluator,
                mutator=Mutator(dims, seed=0),
                correlation_filter=CorrelationFilter(),
                backtest_engine=None,
            )

    def test_run_respects_candidate_budget(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=60)
        result = controller.run(domain_expert_alpha(dims))
        assert result.candidates_generated == 60
        assert result.searched_alphas == 60

    def test_best_is_at_least_initial(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=120)
        initial = controller.evaluator.evaluate(domain_expert_alpha(dims))
        result = controller.run(domain_expert_alpha(dims))
        assert result.best_report.fitness >= initial.fitness - 1e-12

    def test_trajectory_monotone_and_aligned(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=80)
        result = controller.run(domain_expert_alpha(dims))
        fitness_curve = [point.best_fitness for point in result.trajectory]
        assert fitness_curve == sorted(fitness_curve)
        candidates = [point.candidates for point in result.trajectory]
        assert candidates == sorted(candidates)
        assert candidates[-1] == result.candidates_generated

    def test_pruning_reduces_evaluations(self, small_taskset, dims):
        with_pruning = make_controller(small_taskset, dims, max_candidates=100,
                                       use_pruning=True)
        without_pruning = make_controller(small_taskset, dims, max_candidates=100,
                                          use_pruning=False)
        pruned_result = with_pruning.run(domain_expert_alpha(dims))
        full_result = without_pruning.run(domain_expert_alpha(dims))
        assert pruned_result.cache_stats.evaluated < full_result.cache_stats.evaluated
        assert full_result.cache_stats.evaluated == 100

    def test_time_budget_stops_search(self, small_taskset, dims):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        controller = EvolutionController(
            evaluator=evaluator,
            mutator=Mutator(dims, seed=1),
            config=EvolutionConfig(population_size=10, tournament_size=4,
                                   max_candidates=None, max_seconds=0.5),
        )
        result = controller.run(domain_expert_alpha(dims))
        assert result.elapsed_seconds < 5.0
        assert result.candidates_generated > 0

    def test_correlation_filter_invalidates_clones(self, small_taskset, dims):
        """With the initial alpha itself registered as a reference, candidates
        that behave like it must be discarded as correlated."""
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        expert = domain_expert_alpha(dims)
        reference_returns = engine.portfolio_returns(
            evaluator.run(expert, splits=("valid",))["valid"], split="valid"
        )
        correlation_filter = CorrelationFilter()
        correlation_filter.add_reference("alpha_D_0", reference_returns)
        controller = make_controller(small_taskset, dims, max_candidates=40,
                                     correlation_filter=correlation_filter)
        report = controller.score(expert)
        assert not report.is_valid
        assert report.fitness == INVALID_FITNESS
        assert "cutoff" in report.reason

    def test_deterministic_given_seeds(self, small_taskset, dims):
        a = make_controller(small_taskset, dims, max_candidates=60, seed=9)
        b = make_controller(small_taskset, dims, max_candidates=60, seed=9)
        result_a = a.run(domain_expert_alpha(dims))
        result_b = b.run(domain_expert_alpha(dims))
        assert result_a.best_program == result_b.best_program
        assert result_a.best_report.fitness == pytest.approx(result_b.best_report.fitness)

    def test_run_is_reusable_with_fresh_cache(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=40)
        first = controller.run(domain_expert_alpha(dims))
        second = controller.run(domain_expert_alpha(dims))
        # Each run starts from a fresh fingerprint cache and counter, so the
        # per-run statistics do not accumulate across calls.
        assert first.candidates_generated == second.candidates_generated == 40
        assert first.cache_stats.searched == 40
        assert second.cache_stats.searched == 40
        assert len(controller.cache) <= second.cache_stats.evaluated

    def test_search_efficiency_is_observed_once_per_search(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=30)
        with telemetry_session() as telemetry:
            results = [controller.run(domain_expert_alpha(dims))
                       for _ in range(3)]
            hit_rate = telemetry.histogram("search.cache_hit_rate")
            throughput = telemetry.histogram("search.candidates_per_second")
        # Every search keeps its own observation; none overwrites another.
        assert hit_rate.count == throughput.count == 3
        rates = [r.cache_stats.skipped / r.cache_stats.searched for r in results]
        assert hit_rate.min == min(rates) and hit_rate.max == max(rates)

    def test_all_invalid_population_falls_back_once_per_search(self, small_taskset,
                                                               dims):
        # Unmutated copies of a degenerate parent: the final population is
        # all invalid, so the best-seen candidate is returned instead.
        controller = make_controller(
            small_taskset, dims, max_candidates=15,
            mutation_config=MutationConfig(mutation_probability=0.0),
        )
        with telemetry_session() as telemetry:
            result = controller.run(degenerate_alpha())
            fallbacks = telemetry.counter("search.fallbacks").value
        assert not result.best_report.is_valid
        assert fallbacks == 1


class TestCandidateScorer:
    def test_score_batch_matches_sequential_scoring(self, small_taskset, dims):
        mutator = Mutator(dims, seed=4)
        programs = [get_initialization(code, dims, seed=2) for code in ("D", "NOOP", "R")]
        for _ in range(4):
            programs.append(mutator.mutate(programs[-1]))
        programs += programs[:2]  # duplicates exercise the cache paths

        sequential = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        expected = [sequential.score(program) for program in programs]
        batched = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        got = batched.score_batch(programs)

        for left, right in zip(got, expected):
            assert left.fitness == right.fitness
            assert left.is_valid == right.is_valid
            assert np.array_equal(left.daily_ic_valid, right.daily_ic_valid)
        assert batched.cache.stats.as_dict() == sequential.cache.stats.as_dict()
        assert batched.candidates_generated == sequential.candidates_generated

    def test_invalid_outcomes_are_counted_once_per_evaluation(self, small_taskset,
                                                              dims):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        expert = domain_expert_alpha(dims)
        correlation_filter = CorrelationFilter()
        correlation_filter.add_reference("expert", engine.portfolio_returns(
            evaluator.run(expert, splits=("valid",))["valid"], split="valid"
        ))
        scorer = CandidateScorer(evaluator, correlation_filter=correlation_filter,
                                 backtest_engine=engine)
        programs = [expert, degenerate_alpha(), expert, degenerate_alpha()]
        with telemetry_session() as telemetry:
            reports = scorer.score_batch(programs)
            degenerate = telemetry.counter("search.invalid.degenerate").value
            cutoff = telemetry.counter("search.invalid.cutoff").value
        assert ["cutoff" in report.reason for report in reports] == \
            [True, False, True, False]
        assert not any(report.is_valid for report in reports)
        # The repeats reuse the first evaluations and are not counted again.
        assert (degenerate, cutoff) == (1, 1)

    def test_reset_clears_cache_and_counter(self, small_taskset, dims):
        scorer = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        scorer.score(domain_expert_alpha(dims))
        assert scorer.candidates_generated == 1
        scorer.reset()
        assert scorer.candidates_generated == 0
        assert len(scorer.cache) == 0
        assert scorer.cache.stats.searched == 0

    def test_requires_engine_with_filter(self, small_taskset):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with pytest.raises(EvolutionError):
            CandidateScorer(evaluator, correlation_filter=CorrelationFilter())
