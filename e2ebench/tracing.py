"""Spans around each layer's public entry points, installed from outside.

The benchmark traces the system without touching it: :func:`install` wraps
the public functions and methods listed in :data:`TARGETS` where their call
sites read them.  A module-level function is replaced in every loaded
``repro`` module that holds it by name (``fleet.py`` imports
``training_pass`` directly, so patching ``repro.engine.protocol`` alone would
miss its calls); a method is replaced once on its class.  ``prune_program``
and ``fingerprint`` are patched only where the search's fingerprint cache
calls them, so their call counts are per candidate and comparable with the
program's own ``search.candidates`` counter.

Each span records its name, start, end and parent.  Spans stay in memory
until the repetition ends and are only recorded while the benchmark's root
span is open.  Counts that the spans cannot express (redundant prunes,
cache hits, cutoff rejections, batch sizes, stack groups) are kept beside
them in :attr:`SpanRecorder.counts`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: ``(span name, module, attribute path, call-site modules or None)``.  The
#: span name's prefix is the layer its self time is attributed to.
TARGETS = (
    ("data.build_taskset", "repro.experiments.configs", "make_taskset", None),
    ("core.search", "repro.core.mining", "MiningSession.search", None),
    ("core.mutate", "repro.core.mutation", "Mutator.mutate", None),
    ("core.lookup", "repro.core.cache", "FingerprintCache.prepare", None),
    ("core.prune", "repro.core.pruning", "prune_program", ("repro.core.cache",)),
    ("core.fingerprint", "repro.core.cache", "fingerprint", ("repro.core.cache",)),
    ("core.score", "repro.core.interpreter", "AlphaEvaluator.score", None),
    ("core.cutoff", "repro.core.correlation", "CorrelationFilter.max_correlation",
     None),
    ("engine.evaluate_batch", "repro.engine.fleet", "evaluate_program_batch", None),
    ("engine.stack_partition", "repro.engine.fleet", "stack_partition", None),
    ("engine.training_pass", "repro.engine.protocol", "training_pass", None),
    ("engine.add", "repro.engine.fleet", "FleetEngine.add", None),
    ("engine.warm_start", "repro.engine.fleet", "FleetEngine.warm_start", None),
    ("engine.step_bar", "repro.engine.fleet", "FleetEngine.step_bar", None),
    ("engine.reveal", "repro.engine.fleet", "FleetEngine.reveal", None),
    ("engine.correct", "repro.engine.fleet", "FleetEngine.correct", None),
    ("engine.inference_pass", "repro.engine.protocol", "inference_pass", None),
    ("compile.compile_program", "repro.compile.compiler", "compile_program", None),
    ("backtest.portfolio_returns", "repro.backtest.engine",
     "BacktestEngine.portfolio_returns", None),
    ("backtest.evaluate", "repro.backtest.engine", "BacktestEngine.evaluate", None),
    ("parallel.pool_start", "repro.parallel.pool", "EvaluationPool.__init__", None),
    ("parallel.dispatch", "repro.parallel.pool", "EvaluationPool.submit_detailed",
     None),
    ("parallel.wait", "repro.parallel.pool", "PendingEvaluations.result", None),
    ("parallel.pool_close", "repro.parallel.pool", "EvaluationPool.close", None),
    ("stream.register", "repro.stream.server", "AlphaServer.register", None),
    ("stream.warm_start", "repro.stream.server", "AlphaServer.warm_start", None),
    ("stream.on_bar", "repro.stream.server", "AlphaServer.on_bar", None),
    ("stream.reveal", "repro.stream.server", "AlphaServer.reveal", None),
    ("stream.correct_bar", "repro.stream.server", "AlphaServer.correct_bar", None),
    ("stream.stream", "repro.stream.driver", "OnlineBacktestDriver.stream", None),
    ("stream.verify", "repro.stream.driver", "OnlineBacktestDriver.verify", None),
)

#: Name of the benchmark's own root span (its self time is unattributed).
ROOT = "workload"
#: Span around the benchmark client's own bookkeeping inside the root span:
#: known time, so not unattributed, but in no layer of the system.
CLIENT = "client.record"


class SpanRecorder:
    """In-memory spans as parallel lists (name index, start, end, parent)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        #: The program's own ``repro.obs`` counters, read as the root closes.
        self.telemetry: dict[str, int] = {}
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        """Whether a root span is open (spans are only recorded then)."""
        return bool(self._stack)

    def open(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([index, time.perf_counter(), None, parent])
        self._stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attribute


def _count_result(recorder: SpanRecorder, name: str, args, result) -> None:
    """Record the per-call counts a span's name calls for."""
    if name == "core.prune":
        recorder.count("core.prune.redundant", bool(result.is_redundant))
    elif name == "core.lookup":
        _prune, key, cached = result
        recorder.count("core.lookup.hits", key is not None and cached is not None)
    elif name == "core.cutoff":
        recorder.count("core.cutoff.rejects", result > args[0].cutoff)
    elif name in ("engine.evaluate_batch", "parallel.dispatch"):
        # An evaluation batch runs in-process or is dispatched to the pool.
        recorder.count("engine.batch.calls")
        recorder.count("engine.batch.programs", len(args[1]))
    elif name == "engine.stack_partition":
        stacked = [group for group in result if len(group) >= 2]
        recorder.count("engine.stack_partition.groups", len(stacked))
        recorder.count("engine.stack_partition.programs",
                       sum(len(group) for group in stacked))


def _wrap(recorder: SpanRecorder, name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not recorder.active:
            return func(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        _count_result(recorder, name, args, result)
        return result

    return traced


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every :data:`TARGETS` entry; returns the names not wrapped.

    A target a later version of the system renamed or removed, or one its
    call-site modules no longer import by name, is returned rather than
    raised: the run goes on, and ``stats.trace_checks`` fails it, since the
    target's layer would read zero.
    """
    missing = []
    for name, module_name, path, sites in TARGETS:
        try:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapped = _wrap(recorder, name, original)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapped)
            continue
        holders = sites or [
            module for module in list(sys.modules)
            if module == "repro" or module.startswith("repro.")
        ]
        patched = 0
        for holder in holders:
            module = sys.modules.get(holder)
            if module is not None and getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapped)
                patched += 1
        if not patched:
            missing.append(name)
    return missing
