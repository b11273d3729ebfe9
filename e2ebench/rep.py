"""One benchmark repetition in a fresh process.

``run.py`` starts this script once per repetition, with ``PYTHONPATH``
pointing at the checkout's ``src`` and the workload's ``PYTHONHASHSEED``.
A fresh process keeps the task-set memo and compile caches from leaking
between repetitions and makes the set-up time honest: it runs from the
parent's spawn time (``--spawned-at``) through interpreter start, imports
and the task-set build.

Usage: ``python3 e2ebench/rep.py --workload W --seed N --traced 0|1
--spawned-at T --out PATH``
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stop(signum, frame):
    # Unwind instead of dying, so that an open pool closes and unlinks its
    # shared-memory panel.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import repro
    import repro.scenarios  # noqa: F401 - the imports are part of set-up

    from e2ebench import tracing, workloads

    source = Path(repro.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    recorder = missing = None
    if args.traced:
        recorder = tracing.SpanRecorder()
        missing = tracing.install(recorder)
    record = workloads.RUNNERS[args.workload](
        args.workload, args.seed, args.spawned_at, recorder
    )
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.traced),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "peak_rss_mb": workloads.peak_rss_mb(),
    })
    if recorder is not None:
        record["trace"] = {**recorder.to_json(), "telemetry": recorder.telemetry,
                           "missing_targets": missing}
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
