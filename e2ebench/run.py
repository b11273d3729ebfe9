"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload mine-serial --seed 1 --seconds 25 --trace 0

The run repeats the workload, each repetition in a fresh process, until
``--seconds`` have passed (and at least :data:`MIN_REPETITIONS` times).
With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
repetitions alternate untraced / traced and it prints every per-layer
metric, including the tracing overhead between the two kinds.  Every
repetition's raw record is kept under
``e2ebench/results/<workload>/<run>/raw/`` next to the ``summary.json``
derived from them, which ``summarize.py`` can re-derive and ``compare.py``
can compare.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "e2ebench"
RESULTS = BENCH / "results"

#: Repetitions per run, whatever ``--seconds`` says: set-up time is a
#: median, and the output digest must agree across fresh processes.
MIN_REPETITIONS = 2
#: A run must end within this many seconds; no repetition starts that
#: would be expected to cross it.
RUN_LIMIT_S = 170.0
#: Seconds a timed-out repetition gets to clean up before it is killed.
STOP_GRACE_S = 5.0


def provenance(workload: str, seed: int, hash_seed: int) -> dict:
    """Where and under what settings a run was measured."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        sha = completed.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "git_sha": sha,
        "workload": workload,
        "seed": seed,
        "pythonhashseed": hash_seed,
        # The evaluation pool uses fork where the platform offers it.
        "pool_start_method": (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_start_method()
        ),
    }


def run_repetition(workload: str, seed: int, traced: bool, hash_seed: int,
                   out: Path, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = str(hash_seed)
    command = [
        sys.executable, str(BENCH / "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--traced", str(int(traced)), "--out", str(out),
    ]
    spawned_at = time.time()
    # Its own session, so a timeout also stops the pool workers it forked.
    with subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as process:
        try:
            _stdout, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # SIGTERM first lets the repetition close its pool, which
            # unlinks the pool's shared-memory panel.
            process.terminate()
            try:
                process.communicate(timeout=STOP_GRACE_S)
            finally:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
            raise
    if process.returncode != 0:
        raise RuntimeError(
            f"repetition exited with {process.returncode}:\n{stderr[-4000:]}"
        )
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no system under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from e2ebench import stats, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workers = workloads.POOL_OVERRIDES["num_workers"]
    if args.workload == "mine-pool" and (os.cpu_count() or 1) < workers:
        print(f"error: mine-pool starts {workers} workers but this host "
              f"has {os.cpu_count()} CPUs", file=sys.stderr)
        return 2

    hash_seed = workloads.hash_seed(args.workload, args.seed)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    run_dir = RESULTS / args.workload / (
        f"seed{args.seed}-trace{args.trace}-{stamp}"
    )
    raw = run_dir / "raw"
    raw.mkdir(parents=True)
    run_info = {
        "provenance": provenance(args.workload, args.seed, hash_seed),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    (raw / "run.json").write_text(json.dumps(run_info, indent=2))

    started = time.monotonic()
    reps: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPETITIONS and (
            elapsed >= args.seconds or elapsed + longest > RUN_LIMIT_S
        ):
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_started = time.monotonic()
        try:
            reps.append(run_repetition(
                args.workload, args.seed, traced, hash_seed,
                raw / f"rep-{len(reps)}.json",
                timeout=max(RUN_LIMIT_S - elapsed, 1.0),
            ))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {args.workload} repetition {len(reps)}: {exc}",
                  file=sys.stderr)
            return 1
        longest = max(longest, time.monotonic() - rep_started)

    summary = stats.summarize(run_info, reps)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    section, printed = (
        ("per_layer", stats.PER_LAYER) if args.trace
        else ("end_to_end", stats.END_TO_END)
    )
    metrics = summary[section]
    print(f"{args.workload} seed={args.seed} repetitions={len(reps)} "
          f"digest={summary['digest']} failed_share={summary['failed_share']}")
    print("  provenance: " + " ".join(
        f"{key}={value}" for key, value in summary["provenance"].items()
    ))
    for name, metric in metrics.items():
        samples = metric.get("samples")
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}"
              + (f"  (n={samples})" if samples else ""))
    for check in summary.get("trace_checks", []):
        print(f"  trace check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" ({check['observed']} vs {check['expected']})")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  results: {run_dir.relative_to(ROOT)}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in printed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
