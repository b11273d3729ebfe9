"""Atomic persistence of suspended streaming state.

Thin wrappers around the crash-safe pickle helpers shared with the search
checkpoints (:func:`repro.parallel.checkpoint.atomic_pickle_save`): the
state is pickled to a temporary file and ``os.replace``\\ d over the target,
so a crash mid-write never corrupts a previous snapshot.  Both
:class:`~repro.stream.server.ServerState` (a whole fleet) and a single
:class:`~repro.compile.stacked.TapeState` are plain data and round-trip
through here; structural validation — versions, seeds, registration tables
— happens at ``resume`` time, not at load time, because only the resuming
object knows what it expects.

Since server-state v2 a :class:`~repro.stream.server.ServerState` also
persists the served-bar history, the applied
:class:`~repro.stream.server.CorrectionRecord` log and the per-alpha
delta-replay payloads (warm anchors + snapshot rings), so a resumed server
can keep accepting ``correct_bar`` calls — including for days served before
the restart — without any recompute.
"""

from __future__ import annotations

from ..errors import StreamError
from ..parallel.checkpoint import atomic_pickle_save, load_pickle

__all__ = ["save_state", "load_state"]


def save_state(path: str, state: object) -> None:
    """Atomically pickle ``state`` (a ``ServerState``/``TapeState``) to ``path``."""
    atomic_pickle_save(path, state, error_cls=StreamError, what="stream state")


def load_state(path: str) -> object:
    """Load a state written by :func:`save_state`."""
    return load_pickle(path, error_cls=StreamError, what="stream state")
