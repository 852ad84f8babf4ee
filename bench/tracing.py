"""Span recording around dickeprep's public functions, and the per-layer
metrics derived from the spans.

The tracer patches module attributes (and two ``PolicyTables`` methods)
from outside the package; calls inside the package resolve those names at
call time, so nested calls are recorded too.  A span is
(id, parent id, name, start ns, end ns, value), where value is an optional
size the wrapper reads off the result: the states and matrix bytes of a
built chain, the iterations sampled by a Monte Carlo batch.  Spans stay in
memory until ``dump`` writes them.  Every traced round opens a root span
``bench.round``, so the spans of one round share that ancestor.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

from dickeprep import angles, chain, cli, simulate, wigner

ROUND = "bench.round"


def _sample_name(args, kwargs) -> str:
    engine = kwargs.get("engine", args[2] if len(args) > 2 else "chain")
    return f"simulate.sample_iterations.{engine}"


# (owner, attribute, span name or function of the call's arguments, value of the result)
TARGETS = (
    (wigner, "transition_probabilities", "wigner.transition_probabilities", None),
    (wigner, "row_probabilities", "wigner.row_probabilities", None),
    (wigner, "d_column", "wigner.d_column", None),
    (wigner, "outcome_distribution", "wigner.outcome_distribution", None),
    (angles, "policy_angles", "angles.policy_angles", None),
    (angles, "optimal_angles_for_target", "angles.optimal_angles_for_target", None),
    (chain, "build_chain", "chain.build_chain", lambda r: (r.size, r.matrix.nbytes)),
    (chain, "expected_steps", "chain.expected_steps", None),
    (chain, "expected_steps_for", "chain.expected_steps_for", None),
    (chain, "mt_sweep", "chain.mt_sweep", None),
    (simulate, "sample_iterations", _sample_name, lambda r: int(r[0].sum())),
    (simulate.PolicyTables, "cumulative", "simulate.PolicyTables.cumulative", None),
    (simulate.PolicyTables, "column", "simulate.PolicyTables.column", None),
    (cli, "run_figure_job", "cli.run_figure_job", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [parent, name, start_ns, end_ns, value]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [self._stack[-1] if self._stack else -1, name, time.perf_counter_ns(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, value):
        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if value is not None:
                rec[4] = value(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, value in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, value))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_round(self, fn):
        """Run fn() traced, under one root span."""
        self.install()
        rec = self._open(ROUND)
        try:
            return fn()
        finally:
            self._close(rec)
            self.uninstall()

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as f:
            f.write("id,parent,name,start_ns,end_ns,value\n")
            for i, (parent, name, t0, t1, value) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{t0},{t1},{'' if value is None else value}\n")


# per-layer metric name -> unit; README.md maps each to the end-to-end
# metric and workload it should move
LAYER_UNITS = {
    "wigner.transition_probabilities.calls": "count",
    "wigner.transition_probabilities.s": "s",
    "wigner.row_probabilities.calls": "count",
    "wigner.row_probabilities.s": "s",
    "wigner.d_column.calls": "count",
    "wigner.d_column.s": "s",
    "wigner.fallbacks": "count",
    "angles.policy_angles.s": "s",
    "angles.optimal_angles_for_target.self_s": "s",
    "angles.overlap_evals": "count",
    "chain.build_chain.calls": "count",
    "chain.build_chain.self_s": "s",
    "chain.rows": "count",
    "chain.expected_steps.s": "s",
    "chain.states": "count",
    "chain.matrix_mb": "MB_computed",
    "simulate.sample_iterations.chain.s": "s",
    "simulate.sample_iterations.statevector.s": "s",
    "simulate.PolicyTables.cumulative.calls": "count",
    "simulate.PolicyTables.cumulative.s": "s",
    "simulate.PolicyTables.column.calls": "count",
    "simulate.steps.chain": "count",
    "simulate.steps.statevector": "count",
    "simulate.steps_per_s.chain": "1/s",
    "simulate.steps_per_s.statevector": "1/s",
    "cli.run_figure_job.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-round averages of the per-layer metrics over `rounds` traced rounds.

    Self time is a span's duration minus the durations of its direct
    children.  Counts "under" a layer are spans whose direct parent is that
    layer's span.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    child = [0.0] * len(spans)
    under = defaultdict(int)  # (parent name, name) -> calls
    values = defaultdict(list)
    for parent, name, t0, t1, value in spans:
        dur = (t1 - t0) * 1e-9
        calls[name] += 1
        total[name] += dur
        if parent >= 0:
            child[parent] += dur
            under[(spans[parent][1], name)] += 1
        if value is not None:
            values[name].append(value)
    self_s = defaultdict(float)
    for i, (_, name, t0, t1, _) in enumerate(spans):
        self_s[name] += (t1 - t0) * 1e-9 - child[i]

    built = values["chain.build_chain"]
    largest = max(built, default=(0, 0))
    steps = {e: sum(values[f"simulate.sample_iterations.{e}"]) for e in ("chain", "statevector")}
    out = {
        "wigner.transition_probabilities.calls": calls["wigner.transition_probabilities"],
        "wigner.transition_probabilities.s": total["wigner.transition_probabilities"],
        "wigner.row_probabilities.calls": calls["wigner.row_probabilities"],
        "wigner.row_probabilities.s": total["wigner.row_probabilities"],
        "wigner.d_column.calls": calls["wigner.d_column"],
        "wigner.d_column.s": total["wigner.d_column"],
        "wigner.fallbacks": under[("wigner.transition_probabilities", "wigner.outcome_distribution")],
        "angles.policy_angles.s": total["angles.policy_angles"],
        "angles.optimal_angles_for_target.self_s": self_s["angles.optimal_angles_for_target"],
        "angles.overlap_evals": under[("angles.optimal_angles_for_target", "wigner.row_probabilities")],
        "chain.build_chain.calls": calls["chain.build_chain"],
        "chain.build_chain.self_s": self_s["chain.build_chain"],
        "chain.rows": under[("chain.build_chain", "wigner.transition_probabilities")],
        "chain.expected_steps.s": total["chain.expected_steps"],
        "simulate.sample_iterations.chain.s": total["simulate.sample_iterations.chain"],
        "simulate.sample_iterations.statevector.s": total["simulate.sample_iterations.statevector"],
        "simulate.PolicyTables.cumulative.calls": calls["simulate.PolicyTables.cumulative"],
        "simulate.PolicyTables.cumulative.s": total["simulate.PolicyTables.cumulative"],
        "simulate.PolicyTables.column.calls": calls["simulate.PolicyTables.column"],
        "simulate.steps.chain": steps["chain"],
        "simulate.steps.statevector": steps["statevector"],
        "cli.run_figure_job.self_s": self_s["cli.run_figure_job"],
        "trace.spans": len(spans) - calls[ROUND],
    }
    out = {k: v / rounds for k, v in out.items()}
    # sizes of the largest chain a round builds, not per-round sums
    out["chain.states"] = largest[0]
    out["chain.matrix_mb"] = largest[1] / 1e6
    for e in ("chain", "statevector"):
        t = total[f"simulate.sample_iterations.{e}"]
        out[f"simulate.steps_per_s.{e}"] = steps[e] / t if t > 0 else 0.0
    return out
