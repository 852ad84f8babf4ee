"""One benchmark process: set up a workload, run it in rounds, check it.

Started by run.py, never imported.  The parent pins BLAS threads in this
process's environment before the interpreter starts, and passes the
CLOCK_MONOTONIC reading it took just before starting the process, so
``setup_s`` covers interpreter start, imports and input generation.

Modes:
  setup  stop at the first timed call and report setup_s only;
  run    rounds for about --seconds of timed work, untraced;
  trace  pairs of rounds, one untraced and one traced, alternating which
         goes first, for about --seconds; reports per-layer metrics.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import dickeprep

    if Path(dickeprep.__file__).resolve().parent != ROOT / "src" / "dickeprep":
        raise SystemExit(f"dickeprep imported from {dickeprep.__file__}, not from this checkout's src/")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status") as f:
            threads = next((int(ln.split()[1]) for ln in f if ln.startswith("Threads:")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "process_threads": threads,
    }


def _timed(fn):
    w0, c0 = time.perf_counter(), _cpu_s()
    out = fn()
    return out, time.perf_counter() - w0, _cpu_s() - c0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's CLOCK_MONOTONIC at spawn")
    ap.add_argument("--spans", default=None, help="where trace mode writes its spans")
    args = ap.parse_args()

    _import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.make(args.workload, args.seed, scratch)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _measure(wl, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_s"] = setup_s
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def _measure(wl, args) -> dict:
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    first = None
    mismatched_rounds = 0
    failed_ops = 0
    rounds = 0
    elapsed = 0.0
    # stop when the next round would end past --seconds by more than half a round
    while rounds == 0 or elapsed * (1.0 + 0.5 / rounds) < args.seconds:
        # in trace mode a pair of rounds, alternating which of the two is traced first
        pair = rounds // 2
        order = [False] if tracer is None else ([False, True] if pair % 2 == 0 else [True, False])
        for traced in order:
            fn = (lambda: tracer.run_round(wl.run_round)) if traced else wl.run_round
            out, wall, cpu = _timed(fn)
            walls[traced].append(wall)
            cpus[traced].append(cpu)
            elapsed += wall
            rounds += 1
            if first is None:
                first = out
                program_failed = wl.program_failures(out)
            elif not wl.same(first, out):
                mismatched_rounds += 1
                failed_ops += wl.ops
                continue
            failed_ops += len(program_failed)
    peak = _peak_rss_mb()

    found = wl.check(first)
    check_failed = set().union(*(ops for _, ops in found)) - program_failed
    failed_ops += len(check_failed) * (rounds - mismatched_rounds)
    messages = [msg for msg, _ in found]
    if mismatched_rounds:
        messages.append(f"{mismatched_rounds} of {rounds} rounds differ from the first round's output")
    result = {
        "rounds": rounds,
        "round_wall_s": walls[False],
        "round_cpu_s": cpus[False],
        "traced_round_wall_s": walls[True],
        "wall_s": statistics.median(walls[False]),
        "cpu_s": statistics.median(cpus[False]),
        "peak_rss_mb": peak,
        "attempted": rounds * wl.ops,
        "failed": failed_ops,
        "correct": not messages,
        "messages": messages,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, len(walls[True]))
        # rounds of a pair run back to back, so their difference cancels the machine's drift
        layers["trace.overhead_s"] = statistics.median(t - u for t, u in zip(walls[True], walls[False]))
        result["layers"] = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layers.items()}
        if args.spans:
            tracer.dump(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
