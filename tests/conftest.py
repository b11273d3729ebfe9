"""Shared pytest fixtures: small, fast, deterministic data objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AlphaEvaluator, Dimensions, Mutator
from repro.data import (
    MarketConfig,
    Split,
    SyntheticMarket,
    TaskSet,
    build_taskset,
)


@pytest.fixture(scope="session")
def small_panel():
    """A small synthetic OHLCV panel shared by the data tests."""
    market = SyntheticMarket(MarketConfig(num_stocks=30, num_days=220), seed=123)
    return market.generate()


@pytest.fixture(scope="session")
def small_taskset(small_panel) -> TaskSet:
    """A small task set (30 stocks, ~170 sample days) shared across tests."""
    return build_taskset(small_panel, split=Split(train=110, valid=30, test=30))


@pytest.fixture(scope="session")
def dims(small_taskset) -> Dimensions:
    """Problem dimensions matching the small task set."""
    return Dimensions(small_taskset.num_features, small_taskset.window)


@pytest.fixture()
def evaluator(small_taskset) -> AlphaEvaluator:
    """A fresh evaluator over the small task set."""
    return AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)


@pytest.fixture()
def interpreter(small_taskset) -> AlphaEvaluator:
    """The reference-interpreter twin of ``evaluator``: the parity oracle."""
    return AlphaEvaluator(small_taskset, seed=0, max_train_steps=40,
                          engine="interpreter")


@pytest.fixture()
def mutator(dims) -> Mutator:
    """A seeded mutator over the small dimensions."""
    return Mutator(dims, seed=42)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic RNG for test-local sampling."""
    return np.random.default_rng(7)
