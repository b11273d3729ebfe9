"""Canonical-fingerprint tests: mirror collisions and search hit rate."""

import numpy as np
import pytest

from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    CandidateScorer,
    Dimensions,
    EvolutionConfig,
    EvolutionController,
    FingerprintCache,
    INPUT_MATRIX,
    Mutator,
    Operand,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    fingerprint,
)
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset

S2, S3 = Operand.scalar(2), Operand.scalar(3)


def mirrored_pair():
    """Two programs identical up to commutative operand order."""
    def build(first, second):
        return AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                               {"row": 0, "col": 2}),
                Operation.make("get_scalar", (INPUT_MATRIX,), S3,
                               {"row": 1, "col": 2}),
                Operation.make("s_add", (first, second), PREDICTION),
            ],
            update=[],
        )

    return build(S2, S3), build(S3, S2)


class TestMirroredPrograms:
    def test_structural_key_canonicalizes(self):
        left, right = mirrored_pair()
        assert left.structural_key() == right.structural_key()
        assert left.structural_key(canonical=False) != \
            right.structural_key(canonical=False)
        assert left == right

    def test_canonical_fingerprint_collides(self):
        left, right = mirrored_pair()
        assert fingerprint(left) == fingerprint(right)
        assert fingerprint(left, canonical=False) != \
            fingerprint(right, canonical=False)

    def test_mirrored_pair_shares_cache_entry(self):
        """Regression: mirrors must stop consuming duplicate evaluations."""
        left, right = mirrored_pair()
        cache = FingerprintCache()
        _, key, cached = cache.prepare(left)
        assert cached is None
        from repro.core.fitness import FitnessReport
        cache.record(key, FitnessReport(fitness=0.25, ic_valid=0.25,
                                        daily_ic_valid=np.empty(0), is_valid=True))
        _, _, hit = cache.prepare(right)
        assert hit is not None and hit.fitness == 0.25
        assert cache.stats.fingerprint_hits == 1

    def test_legacy_cache_misses_mirror(self):
        left, right = mirrored_pair()
        cache = FingerprintCache(canonical=False)
        _, key, _ = cache.prepare(left)
        from repro.core.fitness import FitnessReport
        cache.record(key, FitnessReport(fitness=0.25, ic_valid=0.25,
                                        daily_ic_valid=np.empty(0), is_valid=True))
        _, _, hit = cache.prepare(right)
        assert hit is None

    def test_scorer_evaluates_mirror_once(self, small_taskset):
        left, right = mirrored_pair()
        scorer = CandidateScorer(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        )
        reports = scorer.score_batch([left, right])
        assert scorer.cache.stats.evaluated == 1
        assert scorer.cache.stats.fingerprint_hits == 1
        assert reports[0].fitness == reports[1].fitness


@pytest.fixture(scope="module")
def tiny_taskset():
    market = SyntheticMarket(MarketConfig(num_stocks=12, num_days=160), seed=9)
    return build_taskset(market.generate(), split=Split(train=60, valid=20, test=20))


class TestSearchHitRate:
    """Acceptance: canonical fingerprints strictly increase the cache hit
    rate of a seeded evolutionary search versus the historical fingerprint.
    """

    def run_search(self, taskset, canonical, seed=13, budget=400):
        dims = Dimensions(taskset.num_features, taskset.window)
        controller = EvolutionController(
            evaluator=AlphaEvaluator(taskset, seed=0, max_train_steps=5),
            mutator=Mutator(dims, seed=seed),
            config=EvolutionConfig(population_size=12, tournament_size=4,
                                   max_candidates=budget),
            seed=seed,
        )
        controller.scorer.canonical_fingerprint = canonical
        result = controller.run(domain_expert_alpha(dims))
        return result.cache_stats

    def test_canonical_strictly_increases_hit_rate(self, tiny_taskset):
        legacy = self.run_search(tiny_taskset, canonical=False)
        canonical = self.run_search(tiny_taskset, canonical=True)
        # identical candidate stream (fitness reports are identical), so the
        # searched totals agree and the comparison is one-to-one
        assert canonical.searched == legacy.searched
        assert canonical.fingerprint_hits > legacy.fingerprint_hits
        assert canonical.evaluated < legacy.evaluated
        legacy_rate = legacy.fingerprint_hits / legacy.searched
        canonical_rate = canonical.fingerprint_hits / canonical.searched
        assert canonical_rate > legacy_rate

    def test_hit_rate_never_decreases_across_seeds(self, tiny_taskset):
        """Canonical keys only merge render-identical keys further."""
        for seed in (1, 5, 13):
            legacy = self.run_search(tiny_taskset, canonical=False,
                                     seed=seed, budget=150)
            canonical = self.run_search(tiny_taskset, canonical=True,
                                        seed=seed, budget=150)
            assert canonical.fingerprint_hits >= legacy.fingerprint_hits
