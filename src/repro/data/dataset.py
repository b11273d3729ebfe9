"""Task-set construction: samples, splits, and the container the alpha
interpreter and all baselines consume.

The paper formulates alpha evaluation over a set of tasks ``F_K`` — one
regression task per stock — where each sample pairs an input feature matrix
``X ∈ R^{f×w}`` with a scalar label ``y`` (the next-day return).  All samples
are split chronologically into training, validation and test sets
(Section 2, Section 5.1).

:class:`TaskSet` stores the samples of all tasks in dense arrays so that the
vectorised interpreter can evaluate an alpha for every stock at a time step
in a single numpy call:

* ``features``: shape ``(N, K, f, w)`` — feature matrix per day and stock
* ``labels``:   shape ``(N, K)``       — next-day returns
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..config import WINDOW
from ..errors import DataError
from .features import WARMUP_DAYS, FeaturePanel, compute_feature_panel
from .market_sim import StockPanel
from .relations import SectorTaxonomy
from .universe import UniverseFilter

__all__ = ["Split", "TaskSet", "build_taskset"]


@dataclass(frozen=True)
class Split:
    """Chronological train/validation/test day counts."""

    train: int
    valid: int
    test: int

    def __post_init__(self) -> None:
        if min(self.train, self.valid, self.test) <= 0:
            raise DataError("all splits must contain at least one day")

    @property
    def total(self) -> int:
        """Total number of sample days covered by the split."""
        return self.train + self.valid + self.test

    @classmethod
    def fractional(cls, total: int, train_frac: float = 0.81,
                   valid_frac: float = 0.095) -> "Split":
        """Build a split from fractions of ``total`` days.

        The default fractions mirror the paper's 988/116/116 split of 1220
        days.
        """
        if total < 3:
            raise DataError("need at least 3 sample days to split")
        train = max(1, int(round(total * train_frac)))
        valid = max(1, int(round(total * valid_frac)))
        test = total - train - valid
        if test <= 0:
            train = total - valid - 1
            test = 1
        if train <= 0:
            raise DataError(f"cannot split {total} days into train/valid/test")
        return cls(train=train, valid=valid, test=test)


@dataclass
class TaskSet:
    """Dense sample arrays for all stock-prediction tasks plus metadata."""

    features: np.ndarray
    labels: np.ndarray
    dates: np.ndarray
    taxonomy: SectorTaxonomy
    split: Split
    tickers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 4:
            raise DataError(
                f"features must be (N, K, f, w), got shape {self.features.shape}"
            )
        if self.labels.shape != self.features.shape[:2]:
            raise DataError(
                f"labels shape {self.labels.shape} does not match features "
                f"{self.features.shape[:2]}"
            )
        if self.split.total != self.num_samples:
            raise DataError(
                f"split covers {self.split.total} days but task set has "
                f"{self.num_samples} sample days"
            )
        if self.taxonomy.num_stocks != self.num_tasks:
            raise DataError(
                f"taxonomy covers {self.taxonomy.num_stocks} stocks, task set "
                f"has {self.num_tasks}"
            )

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Number of sample days ``N`` (across all splits)."""
        return int(self.features.shape[0])

    @property
    def num_tasks(self) -> int:
        """Number of tasks (stocks) ``K``."""
        return int(self.features.shape[1])

    @property
    def num_features(self) -> int:
        """Number of feature types ``f``."""
        return int(self.features.shape[2])

    @property
    def window(self) -> int:
        """Input time window ``w`` in days."""
        return int(self.features.shape[3])

    @cached_property
    def value_range(self) -> tuple[float, float]:
        """``(min, max)`` over every feature and label value (NaN if any is).

        Computed once per task-set object with plain reductions — no
        panel-sized temporaries — so ``dataclasses.replace`` with new
        arrays gets a fresh range.
        """
        lo = np.minimum(self.features.min(), self.labels.min())
        hi = np.maximum(self.features.max(), self.labels.max())
        return float(lo), float(hi)

    # ------------------------------------------------------------------
    def _split_slice(self, name: str) -> slice:
        starts = {
            "train": 0,
            "valid": self.split.train,
            "test": self.split.train + self.split.valid,
        }
        lengths = {
            "train": self.split.train,
            "valid": self.split.valid,
            "test": self.split.test,
        }
        if name not in starts:
            raise DataError(f"unknown split {name!r}; use 'train', 'valid' or 'test'")
        start = starts[name]
        return slice(start, start + lengths[name])

    def split_features(self, name: str) -> np.ndarray:
        """Feature array of the given split, shape ``(n, K, f, w)``."""
        return self.features[self._split_slice(name)]

    def split_labels(self, name: str) -> np.ndarray:
        """Label array of the given split, shape ``(n, K)``."""
        return self.labels[self._split_slice(name)]

    def split_dates(self, name: str) -> np.ndarray:
        """Dates of the given split."""
        return self.dates[self._split_slice(name)]

    def subset_tasks(self, indices: np.ndarray) -> "TaskSet":
        """Return a TaskSet restricted to the tasks in ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise DataError("cannot subset to an empty task set")
        return TaskSet(
            features=self.features[:, indices],
            labels=self.labels[:, indices],
            dates=self.dates,
            taxonomy=self.taxonomy.subset(indices),
            split=self.split,
            tickers=tuple(self.tickers[i] for i in indices) if self.tickers else (),
        )

    def describe(self) -> dict[str, int]:
        """Summary dictionary used by logs and examples."""
        return {
            "num_tasks": self.num_tasks,
            "num_samples": self.num_samples,
            "num_features": self.num_features,
            "window": self.window,
            "train_days": self.split.train,
            "valid_days": self.split.valid,
            "test_days": self.split.test,
        }


def build_taskset(
    panel: StockPanel,
    window: int = WINDOW,
    split: Split | None = None,
    universe_filter: UniverseFilter | None = UniverseFilter(),
    normalize_on_train_only: bool = True,
    feature_panel: FeaturePanel | None = None,
) -> TaskSet:
    """Build a :class:`TaskSet` from an OHLCV panel.

    The pipeline follows Section 5.1/5.2 of the paper:

    1. filter the universe (insufficient samples / too-low prices);
    2. compute the 13 feature types per day;
    3. normalise each feature type by its per-stock maximum;
    4. slice ``window``-day feature matrices and pair them with next-day
       returns as labels;
    5. split chronologically into train/validation/test.

    Parameters
    ----------
    panel:
        Raw OHLCV panel (synthetic or loaded from CSV).
    window:
        Input time window ``w`` (13 in the paper).
    split:
        Explicit split; if ``None`` a fractional split mirroring the paper's
        988/116/116 proportions is derived from the number of usable days.
    universe_filter:
        Universe filter to apply first; pass ``None`` to skip filtering.
    normalize_on_train_only:
        If True (default) the per-stock normaliser uses only training days.
    feature_panel:
        Pre-computed feature panel (skips step 2), mainly for tests.
    """
    if window < 1:
        raise DataError("window must be at least one day")

    if universe_filter is not None:
        panel, _ = universe_filter.apply(panel)

    if feature_panel is None:
        feature_panel = compute_feature_panel(panel)
    raw_returns = panel.returns()

    # Sample days: a sample at day t uses features of days [t-window+1, t]
    # and predicts the return of day t+1.  The first usable day must leave a
    # full warm-up for the 30-day moving average plus the window.
    first_day = WARMUP_DAYS + window - 1
    last_day = panel.num_days - 2  # needs a next-day return
    num_sample_days = last_day - first_day + 1
    if num_sample_days < 3:
        raise DataError(
            f"panel too short: only {num_sample_days} usable sample days; "
            f"need at least 3 (panel has {panel.num_days} days, warm-up "
            f"{WARMUP_DAYS}, window {window})"
        )

    if split is None:
        split = Split.fractional(num_sample_days)
    if split.total > num_sample_days:
        raise DataError(
            f"split needs {split.total} sample days but only {num_sample_days} "
            "are available"
        )
    # Trim to exactly the split length, keeping the most recent days.
    num_used = split.total
    first_used = last_day - num_used + 1

    if normalize_on_train_only:
        fit_days = first_used - window + 1 + split.train
    else:
        fit_days = None
    normalized = feature_panel.normalized(fit_days=fit_days)

    K = panel.num_stocks
    F = normalized.num_features
    features = np.empty((num_used, K, F, window), dtype=np.float64)
    labels = np.empty((num_used, K), dtype=np.float64)
    dates = np.empty(num_used, dtype=panel.dates.dtype)

    for i, day in enumerate(range(first_used, last_day + 1)):
        window_values = normalized.values[day - window + 1: day + 1]  # (w, K, F)
        features[i] = np.transpose(window_values, (1, 2, 0))  # (K, F, w)
        labels[i] = raw_returns[day + 1]
        dates[i] = panel.dates[day]

    return TaskSet(
        features=features,
        labels=labels,
        dates=dates,
        taxonomy=panel.taxonomy,
        split=split,
        tickers=panel.tickers,
    )
