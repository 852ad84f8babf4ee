import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

from dickeprep.core import DomainError, NormDrift, OutOfRange, SpinSpec
from dickeprep import wigner

from oracles import full_range_row, greedy_stacks, logsum_column, rotate_state, rotation_oracle

THETAS = [-2.8, -1.0, -0.2, 0.4, np.pi / 4, 1.3, np.pi / 2, 2.2, 3.0]


def _column(backend, spec, theta):
    """The package's column ("b") or the log-gamma oracle's ("a")."""
    if backend == "a":
        return logsum_column(spec.two_j, spec.two_m, theta)
    return wigner.d_column(spec, theta).amplitudes


def _chebyshev_column(two_j, two_m, theta):
    """Reference column: rotate_state of a basis vector (Chebyshev propagation)."""
    v = np.zeros(two_j + 1)
    v[(two_m + two_j) // 2] = 1.0
    return rotate_state(two_j, v, theta)


@pytest.mark.parametrize("backend", ["a", "b"])
def test_columns_match_dense_exponential_oracle(backend):
    for two_j in range(1, 13):
        for theta in THETAS:
            oracle = rotation_oracle(two_j, theta)
            for i_m in range(two_j + 1):
                spec = SpinSpec(two_j, 2 * i_m - two_j)
                col = _column(backend, spec, theta)
                assert np.max(np.abs(col - oracle[:, i_m])) < 1e-10


def test_half_spin_column_closed_form():
    # oracle-pinned convention: column m=+1/2 is (sin t/2, cos t/2) over m'=(-1/2, +1/2)
    for theta in (0.7, -2.0, 3.9, 2 * np.pi):
        s, c = math.sin(theta / 2), math.cos(theta / 2)
        col = wigner.d_column(SpinSpec(1, 1), theta)
        assert col.amplitudes == pytest.approx([s, c], abs=1e-14)
        col = wigner.d_column(SpinSpec(1, -1), theta)
        assert col.amplitudes == pytest.approx([c, -s], abs=1e-14)
        assert wigner.transition_probabilities(SpinSpec(1, 1), theta) == pytest.approx([s * s, c * c], abs=1e-14)
        assert wigner.transition_probabilities(SpinSpec(1, -1), theta) == pytest.approx([c * c, s * s], abs=1e-14)


@pytest.mark.parametrize("backend", ["a", "b"])
def test_zero_angle_is_identity(backend):
    for two_j, two_m in [(5, 3), (12, 0), (9, -7)]:
        col = _column(backend, SpinSpec(two_j, two_m), 0.0)
        expected = np.zeros(two_j + 1)
        expected[(two_m + two_j) // 2] = 1.0
        assert np.array_equal(col, expected)


def test_binomial_column_j2():
    col = wigner.d_column(SpinSpec(4, 4), np.pi / 2)
    assert col.probabilities * 16 == pytest.approx([1, 4, 6, 4, 1], abs=1e-12)


def test_d_element_matches_column_and_symmetry():
    assert wigner.d_column(SpinSpec(2, 2), np.pi / 2).amplitude(0) ** 2 == pytest.approx(0.5, abs=1e-12)
    for two_j in (7, 10):
        for two_m in range(-two_j, two_j + 1, 2):
            assert wigner.d_column(SpinSpec(two_j, two_m), 0.0).amplitude(two_m) == 1.0
    # d_{m',m} = (-1)^{m'-m} d_{m,m'}
    two_j = 9
    theta = 1.234
    for two_m in range(-two_j, two_j + 1, 2):
        for two_mp in range(-two_j, two_j + 1, 2):
            lhs = wigner.d_column(SpinSpec(two_j, two_m), theta).amplitude(two_mp)
            rhs = wigner.d_column(SpinSpec(two_j, two_mp), theta).amplitude(two_m)
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
            a = logsum_column(two_j, two_m, theta)
            b = wigner.d_column(SpinSpec(two_j, two_m), theta).amplitudes
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
    rotated = rotate_state(two_j, state, theta)
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
        logsum_column(602, 0, 0.5)


def test_transition_probabilities_matches_column():
    rng = np.random.default_rng(11)
    for two_j in (3, 16, 32, 101, 400):
        for _ in range(4):
            i_m = int(rng.integers(0, two_j + 1))
            spec = SpinSpec(two_j, 2 * i_m - two_j)
            theta = float(rng.uniform(-3.0, 3.0))
            fast = wigner.transition_probabilities(spec, theta)
            exact = _chebyshev_column(two_j, spec.two_m, theta) ** 2
            assert np.max(np.abs(fast - exact)) < 1e-11


def test_transition_probabilities_zero_pivot_case():
    # geometric-angle row that hits an exact zero LU pivot (inverse iteration
    # must floor it rather than produce NaNs)
    spec = SpinSpec(32, 24)
    theta = math.asin((12 * math.sqrt(16 * 17)) / (16.0 * 17.0))
    probs = wigner.transition_probabilities(spec, theta)
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) < 1e-12
    exact = rotation_oracle(32, theta)[:, (24 + 32) // 2] ** 2
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


def test_kernel_keeps_no_grid_sized_tables():
    # a window's operator entries come from their index formulas, so after
    # the call the kernel keeps only its start vector (one n-long array);
    # cached diagonal and ladder tables kept three
    two_j = 2**20 + 3  # no other test solves at this size
    two_ms, thetas = np.array([1, -1, 3, two_j]), np.array([1e-3, -0.02, 0.01, 1e-4])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _, stack in wigner.transition_windows(two_j, two_ms, thetas):
            assert np.all(stack.widths < two_j // 8)  # windows, not the full range
        del stack
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * 8 * (two_j + 1)


@pytest.mark.parametrize("two_j", [1, 2, 5, 12, 25, 40])
def test_signed_columns_match_dense_exponential_beyond_pi(two_j):
    # half-integer j changes sign under a 2 pi rotation; the sign step must follow
    for theta in (np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3.7, -4.4, 5.9, 3 * np.pi):
        oracle = rotation_oracle(two_j, theta)
        for i_m in range(two_j + 1):
            col = wigner.d_column(SpinSpec(two_j, 2 * i_m - two_j), theta)
            assert np.max(np.abs(col.amplitudes - oracle[:, i_m])) < 1e-10


@pytest.mark.parametrize(
    "two_j, two_m, theta",
    [
        (2048, 2048, np.pi / 2),
        (2048, 0, 0.05),
        (2048, -1500, 2.9),
        (2048, 600, -1.1),
        (2048, -2, -np.pi / 2),
        (4096, 0, 0.3),  # both edge elements underflow below 1e-308
    ],
)
def test_signed_column_matches_chebyshev_large_j(two_j, two_m, theta):
    col = wigner.d_column(SpinSpec(two_j, two_m), theta).amplitudes
    assert np.max(np.abs(col - _chebyshev_column(two_j, two_m, theta))) < 1e-10


def test_signed_transpose_is_inverse_rotation_j1024():
    # d_{m',m}(theta) = d_{m,m'}(-theta), entry by entry with signs
    two_j, theta = 2048, 0.8
    two_ms = (-2048, -700, -2, 0, 2, 300, 1400, 2048)
    fwd = {tm: wigner.d_column(SpinSpec(two_j, tm), theta) for tm in two_ms}
    back = {tm: wigner.d_column(SpinSpec(two_j, tm), -theta) for tm in two_ms}
    for a in two_ms:
        for b in two_ms:
            assert fwd[a].amplitude(b) == pytest.approx(back[b].amplitude(a), abs=1e-12)


def test_failed_inverse_iteration_raises(monkeypatch):
    def broken(dl, d, du, du2, ipiv, b):
        return np.full_like(b, np.nan), 0

    monkeypatch.setattr(wigner, "_gttrs", broken)
    with pytest.raises(NormDrift, match=r"two_j=20, two_m=4"):
        wigner.transition_probabilities(SpinSpec(20, 4), 0.9)
    with pytest.raises(NormDrift):
        wigner.d_column(SpinSpec(20, 4), 0.9)


# ---------------------------------------------------------------------------
# the stacked kernel: K rows from one gttrf and two gttrs calls

ZERO_PIVOT_THETA = math.asin((12 * math.sqrt(16 * 17)) / (16.0 * 17.0))  # at (32, 24)
STACK_THETAS = [
    1e-300, 1e-12, -3e-9,  # tiny
    math.pi / 2, math.pi / 2 - 1e-9, -math.pi / 2 + 1e-12,  # near +-pi/2
    math.pi, -math.pi, math.pi - 1e-12, -math.pi + 1e-9,  # near +-pi
    3.5, -4.2, 7.0, 4 * math.pi - 0.1,  # beyond pi
    0.0, 0.7, -1.9, 0.0,  # theta = 0 rows mixed in
]


def _one_stack(two_j, two_ms, thetas):
    """The rows solved as one stack: the kernel's entry with room for all of them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner, "_STACK_ENTRIES", (two_j + 1) * len(thetas))
        ((_, stack),) = wigner._eigenvector_windows(two_j, two_ms, thetas)
    return stack


def _assert_rows_equal_single(two_j, two_ms, thetas):
    stacked = _one_stack(two_j, two_ms, thetas)
    assert len(stacked.lo) == len(thetas)
    for k, (two_m, theta) in enumerate(zip(two_ms, thetas)):
        lo, single = wigner._eigenvector(two_j, two_m, theta)
        row = stacked.values[stacked.starts[k]:stacked.stops[k]]
        assert (stacked.lo[k], stacked.hi[k]) == (lo, lo + len(single))
        # squared rows bit for bit; signed entries equal as numbers (an
        # underflowed entry may carry either sign of zero at a block edge)
        assert (row * row).tobytes() == (single * single).tobytes()
        assert np.array_equal(row, single)


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 32, 33, 200, 201, 2048])
def test_stacked_rows_equal_single_rows(two_j):
    rng = np.random.default_rng(two_j)
    two_ms = 2 * rng.integers(0, two_j + 1, len(STACK_THETAS)) - two_j
    _assert_rows_equal_single(two_j, two_ms, STACK_THETAS)


def test_stacked_zero_pivot_row():
    thetas = [ZERO_PIVOT_THETA, 0.4, ZERO_PIVOT_THETA, -ZERO_PIVOT_THETA]
    _assert_rows_equal_single(32, [24, 24, -8, 24], thetas)


def _predicted_widths(two_j, two_ms, thetas):
    thetas = np.asarray(thetas, dtype=np.float64)
    lo, hi = wigner._windows(two_j, np.asarray(two_ms), np.cos(thetas), np.sin(thetas))
    return hi - lo


@pytest.mark.parametrize("entries", [1, 33 * 3 + 1, 33 * 5 - 1, 2**14])
def test_stack_sizes_that_do_not_divide_the_rows(monkeypatch, entries):
    monkeypatch.setattr(wigner, "_STACK_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    thetas = rng.uniform(-4.0, 4.0, 17)
    thetas[[3, 11]] = 0.0
    two_ms = 2 * rng.integers(0, 33, len(thetas)) - 32
    _assert_rows_equal_single(32, two_ms, thetas)
    stacks = [(rows, w.dense()) for rows, w in wigner.transition_windows(32, two_ms, thetas)]
    sizes = [s.stop - s.start for s, _ in stacks]
    assert sizes == greedy_stacks(_predicted_widths(32, two_ms, thetas), entries)
    for rows, probs in stacks:
        for k, p in zip(range(rows.start, rows.stop), probs):
            single = wigner.transition_probabilities(SpinSpec(32, int(two_ms[k])), thetas[k])
            assert p.tobytes() == single.tobytes()


def _first_attempt_reference(two_j, two_m, theta):
    """One row's first inverse-iteration attempt written out alone: one
    gttrf, two gttrs, np.linalg.norm after each."""
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.empty(0),))
    off = np.sin(theta) * wigner.ladder_strengths(two_j) / 2.0
    diag = np.cos(theta) * (np.arange(two_j + 1) - two_j / 2.0) - two_m / 2.0
    dl, d, du, du2, ipiv, _ = gttrf(off, diag, off)
    floor = np.finfo(np.float64).eps * max(1.0, two_j / 2.0)
    d = np.where(np.abs(d) < floor, np.where(d < 0.0, -floor, floor), d)
    v = wigner._start_vector(two_j + 1, 0)
    for _ in range(2):
        v, _ = gttrs(dl, d, du, du2, ipiv, v)
        v = v / np.linalg.norm(v)
    r = diag * v
    r[:-1] += off * v[1:]
    r[1:] += off * v[:-1]
    return v, np.max(np.abs(r)) <= 1e-10 * max(1.0, two_j / 2.0)


@pytest.mark.parametrize("two_j", [2, 3, 32, 201, 2048])
def test_stacked_rows_equal_per_row_reference(two_j):
    rng = np.random.default_rng(two_j + 1)
    thetas = [t for t in STACK_THETAS if t != 0.0]
    two_ms = 2 * rng.integers(0, two_j + 1, len(thetas)) - two_j
    stacked = _one_stack(two_j, two_ms, thetas)
    dense = stacked.dense()
    checked = clipped = 0
    for k, (two_m, theta) in enumerate(zip(two_ms, thetas)):
        ref, passed = _first_attempt_reference(two_j, int(two_m), theta)
        if stacked.hi[k] - stacked.lo[k] < two_j + 1:  # a window: the 1e-15 gate
            assert np.max(np.abs(dense[k] ** 2 - ref**2)) <= 1e-15
            clipped += 1
        elif passed:  # the full range: bit for bit (a failed first pass is repeated outside the stack)
            assert (dense[k] * dense[k]).tobytes() == (ref * ref).tobytes()
            checked += 1
    assert checked + clipped >= len(thetas) - 2
    assert clipped > 0 if two_j >= 32 else clipped == 0  # both cases are exercised


def test_row_norms_match_linalg_norm():
    # the stacked normalisation relies on np.vecdot(V, V) giving, per
    # full-range row, the bits of np.linalg.norm; a clipped window's sum
    # depends only on its own entries, so it is the same alone and stacked
    rng = np.random.default_rng(5)
    for n in (3, 33, 65, 201, 2049, 4097):
        rows = rng.standard_normal((9, n)) * np.logspace(-150, 150, 9)[:, None]
        rows = np.vstack([rows, _one_stack(n - 1, [n - 3] * 3, [0.3, 1.7, -2.9]).dense()])
        norms = np.array([np.linalg.norm(v) for v in rows])
        assert np.sqrt(np.vecdot(rows, rows)).tobytes() == norms.tobytes()
        full = wigner.Windows(n, np.zeros(len(rows), dtype=np.int64), np.full(len(rows), n))
        assert np.sqrt(wigner._sum_squares(rows.ravel(), full)).tobytes() == norms.tobytes()
        lo = rng.integers(0, n // 2, len(rows))
        hi = rng.integers(n // 2 + 1, n + 1, len(rows))
        lo[::3], hi[::3] = 0, n  # full-range windows mixed in
        flat = np.concatenate([v[a:b] for v, a, b in zip(rows, lo, hi)])
        got = wigner._sum_squares(flat, wigner.Windows(n, lo, hi))
        for k, (v, a, b) in enumerate(zip(rows, lo, hi)):
            alone = wigner._sum_squares(v[a:b].copy(), wigner.Windows(n, lo[k:k + 1], hi[k:k + 1]))
            assert got[k] == alone[0]
            assert got[k] == pytest.approx(math.fsum(v[a:b] ** 2), rel=1e-15)
            if b - a == n:
                assert np.sqrt(got[k]) == norms[k]


def test_chain_rows_take_few_factorizations(monkeypatch):
    entries = []
    real = wigner._gttrf

    def counting(dl, d, du):
        entries.append(len(d))
        return real(dl, d, du)

    monkeypatch.setattr(wigner, "_gttrf", counting)
    two_ms, thetas = wigner.two_m_values(200), np.full(201, 0.7)
    [w.dense() for _, w in wigner.transition_windows(200, two_ms, thetas)]
    widths = _predicted_widths(200, two_ms, thetas)
    assert len(entries) == len(greedy_stacks(widths, wigner._STACK_ENTRIES))
    assert sum(entries) == widths.sum() < 201 * 201  # no row widened; windows below full range


def test_each_window_is_predicted_once(monkeypatch):
    # the entry predicts every row's window and hands it to its stack; the
    # stacks do not predict again
    predicted = []
    real_band = wigner._band

    def counting(two_j, m, cos, sin):
        predicted.append(np.size(m))
        return real_band(two_j, m, cos, sin)

    gttrf_entries = []
    real_gttrf = wigner._gttrf

    def counting_gttrf(dl, d, du):
        gttrf_entries.append(len(d))
        return real_gttrf(dl, d, du)

    two_ms, thetas = wigner.two_m_values(200)[:200], np.full(200, 0.7)
    widths = _predicted_widths(200, two_ms, thetas)
    monkeypatch.setattr(wigner, "_band", counting)
    monkeypatch.setattr(wigner, "_gttrf", counting_gttrf)
    monkeypatch.setattr(wigner, "_STACK_ENTRIES", 500)
    stacks = [rows for rows, _ in wigner.transition_windows(200, two_ms, thetas)]
    assert len(stacks) > 10
    assert sum(gttrf_entries) == widths.sum()  # no row widened
    assert sum(predicted) == 200


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_poisoned_block_stays_in_its_block(monkeypatch, poison):
    two_j, n = 40, 41
    two_ms = [40, 4, -12, 0, 38]
    thetas = [0.3, 0.9, -2.0, 1.4, 2.9]
    expected = [wigner._eigenvector(two_j, m, t) for m, t in zip(two_ms, thetas)]
    widths = _predicted_widths(two_j, two_ms, thetas)
    assert widths[2] == n  # the poisoned row is on the full range, so it is retried, not widened
    third = slice(int(widths[:2].sum()), int(widths[:3].sum()))  # the third row's block
    real_gttrs, real_solve = wigner._gttrs, wigner._solve_windows
    retried = []
    alone_too = [False]

    def poisoned(dl, d, du, du2, ipiv, b):
        x, info = real_gttrs(dl, d, du, du2, ipiv, b)
        x = x.copy()
        if len(b) == widths.sum():
            x[third] = poison
        elif alone_too[0]:
            x[:] = poison
        return x, info

    def spying(two_j, two_ms, thetas, cos, sin, lo, hi, attempt=None):
        # the full-range rows passed back after their first failed pass
        if attempt is not None:
            retried.extend((int(m), float(t)) for m, t, a in zip(two_ms, thetas, attempt) if a == 1)
        return real_solve(two_j, two_ms, thetas, cos, sin, lo, hi, attempt)

    monkeypatch.setattr(wigner, "_gttrs", poisoned)
    monkeypatch.setattr(wigner, "_solve_windows", spying)
    got = _one_stack(two_j, two_ms, thetas)
    assert retried == [(-12, -2.0)]
    for k in range(len(thetas)):
        assert got.lo[k] == expected[k][0]
        assert got.values[got.starts[k]:got.stops[k]].tobytes() == expected[k][1].tobytes()

    retried.clear()
    alone_too[0] = True
    with pytest.raises(NormDrift, match=r"two_j=40, two_m=-12, theta=-2\.0\)"):
        _one_stack(two_j, two_ms, thetas)
    assert retried == [(-12, -2.0)]


def test_failed_rows_move_through_the_start_vectors(monkeypatch):
    # start 0 all NaN: every pass from it fails, in the stack and outside it,
    # so each row must come back from start 1, after start 0 was read at
    # least twice (the pass in the stack and its repeat)
    two_j = 40
    two_ms = [40, 4, -12, 0, -38]
    thetas = [0.3, 0.9, -2.0, 0.05, 2.9]
    widths = _predicted_widths(two_j, two_ms, thetas)
    assert (widths < two_j + 1).any() and (widths == two_j + 1).any()  # clipped and full-range rows
    real_start = wigner._start_vector
    read = []

    def poisoned(n, start=0):
        read.append(start)
        return np.full(n, np.nan) if start == 0 else real_start(n, start)

    monkeypatch.setattr(wigner, "_start_vector", poisoned)
    got = _one_stack(two_j, two_ms, thetas).dense()
    assert 1 in read and read[:read.index(1)].count(0) >= 2
    assert np.isfinite(got).all()
    for k, (two_m, theta) in enumerate(zip(two_ms, thetas)):
        exact = rotation_oracle(two_j, theta)[:, (two_m + two_j) // 2] ** 2
        assert np.max(np.abs(got[k] ** 2 - exact)) < 1e-12


# ---------------------------------------------------------------------------
# windows: each row solved on its classically allowed window

WINDOW_THETAS = [
    1e-7, 1e-3, -0.02,  # near 0
    0.5, -2.5,
    math.pi / 2 - 1e-3, math.pi / 2, -math.pi / 2,  # near pi/2
    math.pi - 1e-3, math.pi - 1e-7, -math.pi + 1e-4,  # near pi
]


def _assert_window_matches_full_range(two_j, two_m, theta):
    """The row on its window against full-range inverse iteration: every
    entry within 1e-15 and the dropped mass below 1e-15.  True if the
    window is clipped."""
    lo, v = wigner._eigenvector(two_j, two_m, theta)
    hi = lo + len(v)
    ref = full_range_row(two_j, two_m, theta)
    got = np.zeros(two_j + 1)
    got[lo:hi] = v * v
    assert np.max(np.abs(got - ref)) <= 1e-15
    assert ref[:lo].sum() + ref[hi:].sum() < 1e-15
    return hi - lo < two_j + 1


@pytest.mark.parametrize("two_j", [1001, 2048, 8193, 65536])
def test_windowed_rows_match_full_range(two_j):
    near_edge = [two_j, two_j - 2, -two_j, -two_j + 6]
    near_zero = [two_j % 2, -(two_j % 2) - 34]
    clipped = [
        _assert_window_matches_full_range(two_j, two_m, theta)
        for two_m in near_edge + near_zero
        for theta in WINDOW_THETAS
    ]
    assert sum(clipped) >= len(clipped) // 2


def test_full_range_windows_keep_their_bits():
    # at two_j = 40 every row of these angles spans the whole grid; there the
    # windowed kernel is the full-range one and gives its bits
    rng = np.random.default_rng(40)
    two_ms = 2 * rng.integers(0, 41, 12) - 40
    thetas = rng.uniform(0.6, 2.5, 12)
    stack = _one_stack(40, two_ms, thetas)
    assert (stack.lo == 0).all() and (stack.hi == 41).all()
    for k, (two_m, theta) in enumerate(zip(two_ms, thetas)):
        ref, passed = _first_attempt_reference(40, int(two_m), theta)
        assert passed
        assert stack.values[41 * k:41 * (k + 1)].tobytes() == ref.tobytes()


def test_too_narrow_prediction_is_widened(monkeypatch):
    # a predictor that returns three entries around the band centre: every
    # clipped row must be widened until its edges are negligible, and still
    # match the full-range row, alone and stacked
    def narrow(two_j, m, cos, sin):
        centre = m * cos + two_j / 2.0
        return centre - 1.0, centre + 1.0

    solves = []
    real_solve = wigner._solve_windows

    def spying(two_j, two_ms, *args):
        solves.append(len(two_ms))
        return real_solve(two_j, two_ms, *args)

    monkeypatch.setattr(wigner, "_band", narrow)
    monkeypatch.setattr(wigner, "_solve_windows", spying)
    cases = [
        (2048, 2048, 0.5), (2048, 0, math.pi / 2 - 1e-3), (8193, -8193, 3.0), (8193, 1, 1e-3), (101, 33, -2.2),
    ]
    for case in cases:
        _assert_window_matches_full_range(*case)
    assert len(solves) > 2 * len(cases)  # each row needed at least two widenings
    for two_j in (2048, 8193):
        picked = [c for c in cases if c[0] == two_j]
        two_ms, thetas = [c[1] for c in picked], [c[2] for c in picked]
        _assert_rows_equal_single(two_j, two_ms, thetas)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_raises_before_the_kernel(monkeypatch, theta):
    def kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(wigner, "_eigenvectors", kernel)
    calls = [
        lambda: wigner.d_column(SpinSpec(4, 4), theta),
        lambda: wigner.transition_probabilities(SpinSpec(4, 4), theta),
        lambda: wigner.row_probabilities(4, 0, theta),
        lambda: rotate_state(4, np.eye(5)[0], theta),  # the oracle checks its angle the same way
    ]
    for call in calls:
        with pytest.raises(DomainError, match="finite"):
            call()
