"""Re-derive every run summary from its raw records and check it.

Usage::

    python3 e2ebench/summarize.py [RESULTS_DIR ...]

For each run directory under the given directories (default
``e2ebench/results``) this recomputes the summary from ``raw/run.json`` and
``raw/rep-*.json`` alone and compares it with the ``summary.json`` the run
wrote.  It prints one line per run and exits non-zero if any summary does
not re-derive exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_raw(run_dir: Path) -> tuple[dict, list[dict]]:
    """A run's ``run.json`` and its repetition records, in order."""
    raw = run_dir / "raw"
    reps = sorted(raw.glob("rep-*.json"),
                  key=lambda path: int(path.stem.split("-")[1]))
    return (json.loads((raw / "run.json").read_text()),
            [json.loads(path.read_text()) for path in reps])


def run_dirs(paths) -> list[Path]:
    """Every run directory (one holding ``summary.json``) under ``paths``."""
    found = []
    for path in paths:
        found.extend(summary.parent for summary in Path(path).rglob("summary.json"))
    return sorted(found)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from e2ebench import stats

    paths = (argv if argv is not None else sys.argv[1:]) or [
        ROOT / "e2ebench" / "results"
    ]
    mismatched = 0
    for run_dir in run_dirs(paths):
        run_info, reps = load_raw(run_dir)
        derived = json.loads(json.dumps(stats.summarize(run_info, reps)))
        stored = json.loads((run_dir / "summary.json").read_text())
        same = derived == stored
        mismatched += not same
        print(f"{'ok      ' if same else 'MISMATCH'} {run_dir}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
