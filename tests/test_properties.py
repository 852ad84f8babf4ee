"""Property tests of the rotation kernel's and the Monte Carlo walk's
invariants (Hypothesis)."""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dickeprep.core import AnglePolicy, ProtocolConfig, ResetPolicy, SpinSpec  # noqa: E402
from dickeprep import angles as angle_policies, simulate, wigner  # noqa: E402

from oracles import full_range_row, scalar_optimal_table  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

special_angles = st.sampled_from(
    [0.0, 1e-300, 1e-12, math.pi / 2, -math.pi / 2, math.pi, -math.pi, math.pi - 1e-12, 4 * math.pi]
)
angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False) | special_angles


@st.composite
def stacks(draw, max_two_j=300):
    """(two_j, two_ms, thetas): one two_j and up to 12 rows."""
    two_j = draw(st.integers(0, max_two_j))
    count = draw(st.integers(1, 12))
    indices = draw(st.lists(st.integers(0, two_j), min_size=count, max_size=count))
    thetas = draw(st.lists(angles, min_size=count, max_size=count))
    return two_j, [2 * i - two_j for i in indices], thetas


@PROPERTY_SETTINGS
@given(stacks(), st.integers(1, 4 * 301))
def test_stacked_row_equals_single_row(stack, entries):
    two_j, two_ms, thetas = stack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner, "_STACK_ENTRIES", entries)
        rows = np.vstack([w.dense() for _, w in wigner.transition_windows(two_j, two_ms, thetas)])
    for row, two_m, theta in zip(rows, two_ms, thetas):
        assert row.tobytes() == wigner.transition_probabilities(SpinSpec(two_j, two_m), theta).tobytes()


@PROPERTY_SETTINGS
@given(stacks(max_two_j=2048))
def test_rows_sum_to_one(stack):
    two_j, two_ms, thetas = stack
    for _, windows in wigner.transition_windows(two_j, two_ms, thetas):
        probs = windows.dense()
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)


@PROPERTY_SETTINGS
@given(stacks(max_two_j=600))
def test_windowed_rows_match_full_range(stack):
    # each row on its window against full-range inverse iteration: every
    # entry within 1e-15, dropped mass below 1e-15
    two_j, two_ms, thetas = stack
    for rows, windows in wigner.transition_windows(two_j, two_ms, thetas):
        dense = windows.dense()
        for k, row in enumerate(dense):
            ref = full_range_row(two_j, two_ms[rows][k], thetas[rows][k])
            assert np.max(np.abs(row - ref)) <= 1e-15
            assert ref[row == 0.0].sum() < 1e-15


@PROPERTY_SETTINGS
@given(stacks(max_two_j=600))
def test_flip_symmetry_of_rows(stack):
    # |d^j_{-m',-m}(-theta)|^2 = |d^j_{m',m}(theta)|^2: the row of (-m, -theta)
    # is the reversed row of (m, theta), the premise of the m -> -m lumping
    # of the m_t = 0 chain
    two_j, two_ms, thetas = stack
    flipped = [-tm for tm in two_ms], [-theta for theta in thetas]
    rows = np.vstack([w.dense() for _, w in wigner.transition_windows(two_j, two_ms, thetas)])
    mirrored = np.vstack([w.dense() for _, w in wigner.transition_windows(two_j, *flipped)])
    assert np.max(np.abs(mirrored - rows[:, ::-1])) <= 1e-15


@PROPERTY_SETTINGS
@given(st.integers(0, 40), angles)
def test_transpose_is_the_inverse_rotation(two_j, theta):
    # d(theta)^T = d(-theta), signed, for integer and half-integer j
    def matrix(angle):
        return np.column_stack(
            [wigner.d_column(SpinSpec(two_j, 2 * i - two_j), angle).amplitudes for i in range(two_j + 1)]
        )

    assert np.max(np.abs(matrix(theta).T - matrix(-theta))) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 300), st.data())
def test_lockstep_newton_equals_scalar_loop(two_j, data):
    # any target: the stacked rounds give every state the angle and
    # overlap its own one-row Newton loop gives, bit for bit
    two_mt = 2 * data.draw(st.integers(0, two_j)) - two_j
    got_angles, got_overlaps = angle_policies.optimal_angles_for_target(two_j, two_mt)
    ref_angles, ref_overlaps = scalar_optimal_table(two_j, two_mt)
    assert got_angles.tobytes() == ref_angles.tobytes()
    assert got_overlaps.tobytes() == ref_overlaps.tobytes()


@st.composite
def protocol_configs(draw, max_two_j=24):
    """Small ProtocolConfigs: any target, policy, reset and seed."""
    two_j = draw(st.integers(0, max_two_j))
    two_mt = 2 * draw(st.integers(0, two_j)) - two_j
    policies = [AnglePolicy.GEOMETRIC, AnglePolicy.NUMERIC_OPTIMAL]
    if two_mt == 0:
        policies.append(AnglePolicy.APPROX_MT0)
    reset = draw(
        st.sampled_from([ResetPolicy(), ResetPolicy(kind="sqrt_j")])
        | st.builds(ResetPolicy, st.just("custom"), st.floats(0.0, max_two_j / 2.0))
    )
    return ProtocolConfig(
        two_j=two_j,
        target_two_mt=two_mt,
        angle_policy=draw(st.sampled_from(policies)),
        reset_policy=reset,
        seed=draw(st.integers(-(2**63), 2**64 - 1)),
    )


@PROPERTY_SETTINGS
@given(protocol_configs(), st.sampled_from(["chain", "statevector"]))
def test_batched_walk_equals_looped_walk(config, engine):
    runs = 40
    its, ok = simulate.sample_iterations(config, runs, engine=engine)
    walk = simulate.run_statevector if engine == "statevector" else simulate.run_trajectory
    tables = simulate.PolicyTables(config)
    for i in range(runs):
        rec = walk(config, simulate.rng_stream(config.seed, i), tables)
        assert (its[i], ok[i]) == (rec.iterations, rec.succeeded)


# unsorted index vectors with repeats, over the whole uint64 key range
index_vectors = st.lists(
    st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**63, 2**64 - 1]), min_size=1, max_size=6
).flatmap(lambda xs: st.permutations(xs + xs[:2]))


@PROPERTY_SETTINGS
@given(st.integers(-(2**63), 2**64 - 1), index_vectors, st.integers(0, 1000))
def test_philox_block_equals_rng_stream(seed, indices, b):
    # the suite turns an overflow warning of the uint64 arithmetic into an error
    block = simulate._philox_block(seed, np.array(indices, dtype=np.uint64), b)
    assert block.shape == (len(indices), simulate._BLOCK)
    for row, i in zip(block, indices):
        ref = simulate.rng_stream(seed, i).random((b + 1) * simulate._BLOCK)[b * simulate._BLOCK:]
        assert np.array_equal(row, ref)


def test_failing_property_test_does_not_stop_the_suite(tmp_path):
    # with the project's warning filters, a failing @given test reports its
    # failure and the tests after it still run (no INTERNALERROR)
    (tmp_path / "pyproject.toml").write_text((Path(__file__).parents[1] / "pyproject.toml").read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_trivial():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
