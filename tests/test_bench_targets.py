"""The benchmark's tracer patches package attributes by name
(``bench/tracing.py::TARGETS``, read through ``owner.__dict__[attr]``), so
renaming or deleting one of them breaks every traced run.  This test loads
that list, without installing the tracer, and checks each name is there.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.TARGETS if attr not in vars(owner)]
    assert not missing, f"bench/tracing.py patches names the package no longer has: {missing}"
