"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout of the repository.  Every measurement is
made in a fresh worker process (bench/worker.py) started from here, with
BLAS pinned to one thread in its environment before the interpreter starts.

--trace 0: SETUP_SAMPLES set-up-only workers, then one worker that runs the
  workload for --seconds; prints the end-to-end metrics.
--trace 1: one worker that alternates untraced and traced rounds; prints the
  per-layer metrics and writes the spans to bench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The full record (every round, the checks' messages, machine and library
versions) goes to bench/out/result-<workload>-seed<n>-trace<t>.json.
A worker that fails makes this script exit with status 1 and print no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("exact_reset", "optimal_reset", "sweep_noreset", "montecarlo")
SETUP_SAMPLES = 4  # set-up-only workers per run, besides the measuring worker
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, mode: str, spans: Path | None = None) -> dict:
    env = {**os.environ, **PINNED}
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"{mode} worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            res = run_worker(args, "trace", spans=OUT / f"spans-{stem}.csv.gz")
            metrics = res["layers"]
        else:
            setups = [run_worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
            res = run_worker(args, "run")
            setups.append(res["setup_s"])
            res["setup_samples_s"] = setups
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": res["wall_s"],
                "cpu_s": res["cpu_s"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for msg in res["messages"]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    (OUT / f"result-{stem}.json").write_text(json.dumps({"args": vars(args), **res}, indent=1))
    print("env: " + json.dumps(res["env"]))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
