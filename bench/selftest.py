"""Tests of the benchmark's own checks: each passes on the program's output
and rejects a perturbed copy of it.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Small sizes only; takes a few seconds.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from dickeprep import angles, chain, cli, simulate  # noqa: E402
from dickeprep.core import AnglePolicy, ProtocolConfig, ResetPolicy  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SQRT_J = ResetPolicy(kind=ResetPolicy.SQRT_J)


def _e(two_j, two_mt=0, policy=AnglePolicy.GEOMETRIC, reset=SQRT_J):
    return chain.expected_steps_for(two_j, two_mt, policy, reset).expected_steps_from.copy()


def test_oracle_rows_agree_with_dense_expm():
    two_j = 10
    a = oracles.ladder(two_j)
    gen = np.diag(a / 2.0, 1) - np.diag(a / 2.0, -1)
    for i in (0, 3, 10):
        theta = oracles.geometric_angle(two_j, 0, 2 * i - two_j)
        dense = scipy.linalg.expm(theta * gen)[:, i] ** 2
        assert np.allclose(oracles.rotated_probabilities(two_j, 2 * i - two_j, theta), dense, atol=1e-14)


def test_small_chain_check():
    e = _e(16)
    assert oracles.check_small_chain(e, 16, 0, True, {0}) == []
    bumped = e.copy()
    bumped[-1] += 1e-6
    assert oracles.check_small_chain(bumped, 16, 0, True, {0})
    # the oracle applies its own reset routing: the no-reset chain differs
    assert oracles.check_small_chain(_e(16, reset=ResetPolicy()), 16, 0, True, {0})


def test_bellman_check():
    two_j = 256
    e = _e(two_j)
    states = [(tm, oracles.geometric_angle(two_j, 0, tm)) for tm in (two_j, 10, -6)]
    assert oracles.check_bellman(e, two_j, 0, True, states, {0}) == []
    bumped = e.copy()
    bumped[-1] += 1e-6
    assert oracles.check_bellman(bumped, two_j, 0, True, states[:1], {0})
    swapped = e.copy()
    i, k = (10 + two_j) // 2, (-6 + two_j) // 2
    swapped[[i, k]] = swapped[[k, i]]
    assert oracles.check_bellman(swapped, two_j, 0, True, states[1:], {0})
    # a row taken at another angle is caught as well
    off = [(10, states[1][1] + 1e-3)]
    assert oracles.check_bellman(e, two_j, 0, True, off, {0})


def test_ladder_check():
    two_js = (64, 128, 256)
    values = [float(_e(tj)[-1]) for tj in two_js]
    assert oracles.check_ladder(two_js, values) == []
    assert oracles.check_ladder(two_js, [values[0], values[2], values[1]])
    assert oracles.check_ladder(two_js, [values[0], values[1], values[1] + 1.0])
    assert oracles.check_ladder((64, 128, 512), values)


def test_optimal_angle_check():
    two_j, two_m = 128, 20
    res = angles.optimal_angle(two_j, 0, two_m)
    theta = res.angle.radians
    assert oracles.check_optimal_angle(two_j, 0, two_m, theta, res.overlap_probability, {0}) == []
    moved = theta + 1e-3
    assert oracles.check_optimal_angle(two_j, 0, two_m, moved, oracles.overlap(two_j, 0, two_m, moved), {0})
    assert oracles.check_optimal_angle(two_j, 0, two_m, theta, res.overlap_probability + 1e-6, {0})
    worse = 1e-3  # barely rotated: almost no overlap with the target
    msgs = oracles.check_optimal_angle(two_j, 0, two_m, worse, oracles.overlap(two_j, 0, two_m, worse), {0})
    assert any("below the geometric" in m for m, _ in msgs)


def test_sweep_check():
    (BENCH / "out").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=BENCH / "out"))
    try:
        job = cli.FigureJob("fig2d", {"two_j_list": "20"}, out)
        (path,) = cli.run_figure_job(job, no_timestamp=True)
        lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")][1:]
    finally:
        shutil.rmtree(out)
    rows = [(int(a), int(b), float(c)) for a, b, c in (ln.split(",") for ln in lines)]
    assert oracles.check_sweep(rows, 20) == []
    swapped = [rows[0][:2] + rows[-1][2:]] + rows[1:-1] + [rows[-1][:2] + rows[0][2:]]
    assert oracles.check_sweep(swapped, 20)
    assert oracles.check_sweep(rows[1:] + rows[:1], 20)
    lifted = rows[:-1] + [rows[-1][:2] + (1e-9,)]
    assert oracles.check_sweep(lifted, 20)


def test_monte_carlo_checks():
    cfg = ProtocolConfig(two_j=32, reset_policy=SQRT_J, seed=5)
    its, ok = simulate.sample_iterations(cfg, 4000, engine="chain")
    exact = float(_e(32)[-1])
    assert oracles.check_monte_carlo_mean(its, exact, "chain", {0}) == []
    se = its.std(ddof=1) / np.sqrt(len(its))
    assert oracles.check_monte_carlo_mean(its, exact + 5 * se, "chain", {0})
    tables = simulate.PolicyTables(cfg)
    looped = []
    for i in range(16):
        rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables)
        looped.append((rec.iterations, rec.succeeded))
    assert oracles.check_equal_runs(its, ok, looped, "chain", {0}) == []
    shifted = its.copy()
    shifted[7] += 1
    assert oracles.check_equal_runs(shifted, ok, looped, "chain", {0})


def test_ladder_workload_marks_the_perturbed_rung():
    for cls, policy in ((workloads.ResetLadder, AnglePolicy.GEOMETRIC), (workloads.OptimalLadder, AnglePolicy.NUMERIC_OPTIMAL)):
        wl = cls(7, policy, (64, 128, 256))
        out = wl.run_round()
        assert wl.check(out) == []
        out[1] = out[1].copy()
        out[1][-1] += 1e-6
        found = wl.check(out)
        assert found and set().union(*(ops for _, ops in found)) <= {0, 1, 2}
        assert any(ops == {1} for _, ops in found)


def test_tracer_counts_and_restores():
    original = chain.build_chain
    tracer = tracing.Tracer()
    report = tracer.run_round(lambda: chain.expected_steps_for(64, 0, AnglePolicy.GEOMETRIC, SQRT_J))
    assert chain.build_chain is original
    assert report.start_state_value == float(_e(64)[-1])
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["chain.build_chain.calls"] == 1
    assert layers["chain.rows"] == 64  # every state but the target
    assert layers["chain.states"] == 65
    assert layers["wigner.fallbacks"] == 0
    assert set(layers) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
