import math

import numpy as np
import pytest

from dickeprep.core import OutOfRange, SpinSpec
from dickeprep import wigner

from oracles import rotation_oracle

THETAS = [-2.8, -1.0, -0.2, 0.4, np.pi / 4, 1.3, np.pi / 2, 2.2, 3.0]


@pytest.mark.parametrize("backend", ["a", "b"])
def test_columns_match_dense_exponential_oracle(backend):
    for two_j in range(1, 13):
        for theta in THETAS:
            oracle = rotation_oracle(two_j, theta)
            for i_m in range(two_j + 1):
                spec = SpinSpec(two_j, 2 * i_m - two_j)
                col = wigner.d_column(spec, theta, backend=backend)
                assert np.max(np.abs(col.amplitudes - oracle[:, i_m])) < 1e-10


def test_half_spin_column_closed_form():
    # oracle-pinned convention: column m=+1/2 is (sin t/2, cos t/2) over m'=(-1/2, +1/2)
    theta = 0.7
    col = wigner.d_column(SpinSpec(1, 1), theta)
    assert col.amplitudes == pytest.approx([math.sin(theta / 2), math.cos(theta / 2)], abs=1e-14)
    col = wigner.d_column(SpinSpec(1, -1), theta)
    assert col.amplitudes == pytest.approx([math.cos(theta / 2), -math.sin(theta / 2)], abs=1e-14)


@pytest.mark.parametrize("backend", ["a", "b"])
def test_zero_angle_is_identity(backend):
    for two_j, two_m in [(5, 3), (12, 0), (9, -7)]:
        col = wigner.d_column(SpinSpec(two_j, two_m), 0.0, backend=backend)
        expected = np.zeros(two_j + 1)
        expected[(two_m + two_j) // 2] = 1.0
        assert np.array_equal(col.amplitudes, expected)


def test_binomial_column_j2():
    col = wigner.d_column(SpinSpec(4, 4), np.pi / 2)
    assert col.probabilities * 16 == pytest.approx([1, 4, 6, 4, 1], abs=1e-12)


def test_d_element_matches_column_and_symmetry():
    assert wigner.d_element(SpinSpec(2, 2), 0, np.pi / 2) ** 2 == pytest.approx(0.5, abs=1e-12)
    for two_j in (7, 10):
        for two_m in range(-two_j, two_j + 1, 2):
            assert wigner.d_element(SpinSpec(two_j, two_m), two_m, 0.0) == 1.0
    # d_{m',m} = (-1)^{m'-m} d_{m,m'}
    two_j = 9
    theta = 1.234
    for two_m in range(-two_j, two_j + 1, 2):
        for two_mp in range(-two_j, two_j + 1, 2):
            lhs = wigner.d_element(SpinSpec(two_j, two_m), two_mp, theta)
            rhs = wigner.d_element(SpinSpec(two_j, two_mp), two_m, theta)
            phase = -1.0 if ((two_mp - two_m) // 2) % 2 else 1.0
            assert lhs == pytest.approx(phase * rhs, abs=1e-12)


def test_outcome_distribution_examples():
    probs = wigner.outcome_distribution(SpinSpec(2, 2), np.pi / 2)
    assert probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    probs = wigner.outcome_distribution(SpinSpec(16, 6), 0.0)
    assert probs[(6 + 16) // 2] == 1.0 and probs.sum() == 1.0


def test_first_step_tail_mass_j50():
    # from m=j at pi/2 the outcome is binomial; most mass within sqrt(j)
    two_j = 100
    probs = wigner.outcome_distribution(SpinSpec(two_j, two_j), np.pi / 2)
    two_mp = wigner.two_m_values(two_j)
    inside = two_mp * two_mp <= 2 * two_j
    assert probs[inside].sum() >= 0.8


@pytest.mark.parametrize("two_j", [10, 40, 200, 800])
def test_unitarity_larger_j(two_j):
    for theta in (0.3, np.pi / 2, 2.8):
        for two_m in (two_j, two_j % 2, -(two_j - 2 * (two_j // 3))):
            col = wigner.d_column(SpinSpec(two_j, two_m), theta)
            assert abs(col.probabilities.sum() - 1.0) < 1e-10


def test_backend_agreement_moderate_j():
    rng = np.random.default_rng(7)
    for two_j in (40, 100, 200):
        for theta in rng.uniform(0.05, 3.1, 6):
            two_m = int(2 * rng.integers(0, two_j // 2 + 1) - two_j + (two_j % 2))
            a = wigner.d_column(SpinSpec(two_j, two_m), theta, backend="a").amplitudes
            b = wigner.d_column(SpinSpec(two_j, two_m), theta, backend="b").amplitudes
            assert np.max(np.abs(a - b)) < 1e-8


def test_column_orthogonality():
    two_j = 120
    theta = 1.1
    cols = [
        wigner.d_column(SpinSpec(two_j, two_m), theta).amplitudes
        for two_m in (-two_j, -2, 0, 2, two_j)
    ]
    for i in range(len(cols)):
        for k in range(i + 1, len(cols)):
            assert abs(float(cols[i] @ cols[k])) < 1e-8


def test_pi_rotation_flips_m():
    for two_j, two_m in [(6, 4), (11, -3), (40, 10)]:
        col = wigner.d_column(SpinSpec(two_j, two_m), np.pi)
        expected = np.zeros(two_j + 1)
        expected[(-two_m + two_j) // 2] = 1.0
        assert np.max(np.abs(np.abs(col.amplitudes) - expected)) < 1e-10


def test_rotate_state_general_vector():
    two_j = 14
    rng = np.random.default_rng(3)
    state = rng.standard_normal(two_j + 1)
    state /= np.linalg.norm(state)
    theta = 0.83
    rotated = wigner.rotate_state(two_j, state, theta)
    assert np.max(np.abs(rotated - rotation_oracle(two_j, theta) @ state)) < 1e-12


def test_column_index_validation():
    col = wigner.d_column(SpinSpec(6, 2), 0.4)
    with pytest.raises(OutOfRange):
        col.amplitude(3)   # parity mismatch
    with pytest.raises(OutOfRange):
        col.amplitude(8)   # beyond |two_j|
    assert col.index_of(-6) == 0 and col.index_of(6) == 6


def test_logsum_rejects_large_j():
    with pytest.raises(OutOfRange):
        wigner.d_column(SpinSpec(602, 0), 0.5, backend="a")
    with pytest.raises(OutOfRange):
        wigner.d_column(SpinSpec(4, 0), 0.5, backend="z")


def test_transition_probabilities_matches_column():
    rng = np.random.default_rng(11)
    for two_j in (3, 16, 32, 101, 400):
        for _ in range(4):
            i_m = int(rng.integers(0, two_j + 1))
            spec = SpinSpec(two_j, 2 * i_m - two_j)
            theta = float(rng.uniform(-3.0, 3.0))
            fast = wigner.transition_probabilities(spec, theta)
            exact = wigner.outcome_distribution(spec, theta)
            assert np.max(np.abs(fast - exact)) < 1e-11


def test_transition_probabilities_zero_pivot_case():
    # geometric-angle row that hits an exact zero LU pivot (inverse iteration
    # must floor it rather than produce NaNs)
    spec = SpinSpec(32, 24)
    theta = math.asin((12 * math.sqrt(16 * 17)) / (16.0 * 17.0))
    probs = wigner.transition_probabilities(spec, theta)
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-12
    exact = wigner.outcome_distribution(spec, theta)
    assert np.max(np.abs(probs - exact)) < 1e-11


def test_row_probabilities_is_matrix_row():
    two_j = 24
    theta = 0.9
    oracle = rotation_oracle(two_j, theta)
    row = wigner.row_probabilities(two_j, 4, theta)
    assert np.max(np.abs(row - oracle[(4 + two_j) // 2, :] ** 2)) < 1e-11


def test_start_vector_cache_is_bounded():
    bound = wigner._START_CACHE_SIZE
    first = {n: wigner._start_vector(n, 0).copy() for n in range(2, 2 + 3 * bound)}
    for n in range(2, 2 + 3 * bound):
        for attempt in (1, 2):
            wigner._start_vector(n, attempt)
    assert wigner._start_vector.cache_info().currsize <= bound
    for n, v in first.items():  # evicted vectors come back identical
        assert np.array_equal(wigner._start_vector(n, 0), v)
