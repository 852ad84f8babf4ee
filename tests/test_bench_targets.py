"""The benchmark's calls into the package, checked before a benchmark run.

The tracer patches package attributes by name (``bench/tracing.py::TARGETS``,
read through ``owner.__dict__[attr]``), so renaming or deleting one of them
breaks every traced run; one test loads that list, without installing the
tracer, and checks each name is there.  Another runs one round of every
workload (``bench/workloads.py``) and its own checks.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

# One round of each workload, then its own check() and program_failures().
# It runs in a child process: bench/oracles.py and tests/oracles.py are both
# the module "oracles".
_SMOKE = """
import json, sys
from pathlib import Path
import workloads
report = {}
for name in workloads.WORKLOADS:
    w = workloads.make(name, 1, Path(sys.argv[1]))
    out = w.run_round()
    report[name] = [[msg for msg, _ in w.check(out)], sorted(w.program_failures(out))]
print(json.dumps(report))
"""


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.TARGETS if attr not in vars(owner)]
    assert not missing, f"bench/tracing.py patches names the package no longer has: {missing}"


def test_each_workload_runs_one_checked_round(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
        PYTHONDONTWRITEBYTECODE="1",  # leave bench/ as it is
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", _SMOKE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert sorted(report) == ["exact_reset", "montecarlo", "optimal_reset", "sweep_noreset"]
    assert report == {name: [[], []] for name in report}
