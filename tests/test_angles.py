import math

import numpy as np
import pytest

from dickeprep.core import AnglePolicy, DomainError, OutOfRange
from dickeprep import angles, wigner

from oracles import greedy_stacks, scalar_grid_best, scalar_optimal_table


def test_geometric_angle_at_target_is_zero():
    for two_j, two_mt in [(8, 4), (11, -3), (40, 0)]:
        assert angles.geometric_angle(two_j, two_mt, two_mt).radians == 0.0


def test_geometric_angle_direct_substitution():
    # j=2, m_t=0, m=2: arcsin(2 * r_0 / r_0^2) = arcsin(2/sqrt(6))
    got = angles.geometric_angle(4, 0, 4).radians
    assert got == pytest.approx(math.asin(2.0 / math.sqrt(6.0)), abs=1e-15)


@pytest.mark.parametrize("two_j", [6, 20, 101])
def test_geometric_angle_mt0_reduction(two_j):
    j = two_j / 2.0
    for two_m in range(-two_j, two_j + 1, 2):
        got = angles.geometric_angle(two_j, 0 if two_j % 2 == 0 else 1, two_m)
        if two_j % 2 == 0:
            expected = math.asin((two_m / 2.0) / math.sqrt(j * (j + 1.0)))
            assert got.radians == pytest.approx(expected, abs=1e-14)


def test_geometric_angle_antisymmetry_mt0():
    two_j = 30
    for two_m in range(2, two_j + 1, 2):
        plus = angles.geometric_angle(two_j, 0, two_m).radians
        minus = angles.geometric_angle(two_j, 0, -two_m).radians
        assert minus == -plus


def test_approx_angle_examples():
    assert angles.approx_angle_mt0(14, 14).radians == pytest.approx(math.pi / 2)
    assert angles.approx_angle_mt0(14, 0).radians == 0.0
    assert angles.approx_angle_mt0(100, 50).radians == pytest.approx(math.pi / 6)


def test_approx_angle_monotone_in_m():
    two_j = 64
    vals = [angles.approx_angle_mt0(two_j, two_m).radians for two_m in range(0, two_j + 1, 2)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_optimal_angle_j1_closed_form():
    # |d^1_{0,1}(theta)|^2 = sin^2(theta)/2, maximal at pi/2 with value 1/2
    res = angles.optimal_angle(2, 0, 2)
    assert res.angle.radians == pytest.approx(math.pi / 2, abs=1e-7)
    assert res.overlap_probability == pytest.approx(0.5, abs=1e-12)
    assert not res.fell_back


def test_optimal_angle_rejects_target_source():
    with pytest.raises(OutOfRange):
        angles.optimal_angle(8, 2, 2)


@pytest.mark.parametrize("two_j,two_mt", [(10, 0), (40, 0), (100, 10), (400, 0)])
def test_optimal_dominates_geometric(two_j, two_mt):
    for two_m in range(two_mt + 2, two_j + 1, max(2, two_j // 6)):
        res = angles.optimal_angle(two_j, two_mt, two_m)
        geo = angles.geometric_angle(two_j, two_mt, two_m).radians
        geo_overlap = float(wigner.row_probabilities(two_j, two_mt, geo)[(two_m + two_j) // 2])
        assert res.overlap_probability >= geo_overlap - 1e-15


def test_optimal_negative_m_mirror():
    res_pos = angles.optimal_angle(20, 0, 8)
    res_neg = angles.optimal_angle(20, 0, -8)
    assert res_neg.angle.radians == pytest.approx(-res_pos.angle.radians, abs=1e-12)
    assert res_neg.overlap_probability == pytest.approx(res_pos.overlap_probability, rel=1e-12)


def test_optimal_close_to_approx_at_j50():
    # the simple arcsin(m/j) angle tracks the numerically optimal one
    res = angles.optimal_angle(100, 0, 20)
    assert abs(res.angle.radians - math.asin(20 / 100.0)) < 0.08


def test_angle_formulas_converge_at_fixed_scaled_m():
    # arcsin(m/sqrt(j(j+1))) and arcsin(m/j) approach each other as j grows
    gaps = []
    for j in (10, 40, 160, 640):
        m = int(round(math.sqrt(j)))
        exact = math.asin(m / math.sqrt(j * (j + 1.0)))
        approx = math.asin(m / j)
        gaps.append(abs(exact - approx))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_batched_matches_single(two_j=24):
    # one shared refinement: the batched and single-state optimizers agree exactly
    batch_angles, batch_overlaps = angles.optimal_angles_for_target(two_j, 0)
    for two_m in (-two_j, -6, 4, 10, two_j):
        res = angles.optimal_angle(two_j, 0, two_m)
        i = (two_m + two_j) // 2
        assert batch_angles[i] == res.angle.radians
        assert batch_overlaps[i] == res.overlap_probability


def test_batched_nonzero_target():
    for two_j, two_mt in ((16, 4), (16, -4), (41, 1), (41, -11)):
        batch_angles, batch_overlaps = angles.optimal_angles_for_target(two_j, two_mt)
        for two_m in sorted({-two_j, two_mt - 2, -two_mt, 2 - two_mt, two_mt + 2, two_mt + 4, two_j} - {two_mt}):
            res = angles.optimal_angle(two_j, two_mt, two_m)
            i = (two_m + two_j) // 2
            assert batch_angles[i] == res.angle.radians, (two_j, two_mt, two_m)
            assert batch_overlaps[i] == res.overlap_probability, (two_j, two_mt, two_m)


@pytest.mark.parametrize("two_j,two_mt", [(24, 0), (16, 4), (16, -4), (16, 16), (41, 1), (41, -11)])
def test_one_scan_per_target_and_each_source_refined_once(monkeypatch, two_j, two_mt):
    scans, refined = [], []
    grid_scan, refine = angles._grid_scan, angles._refine

    def counted_scan(two_j, two_mt, states):
        scans.append(two_mt)
        return grid_scan(two_j, two_mt, states)

    def counted_refine(two_j, two_mt, states):
        refined.append((two_mt, list(states)))
        return refine(two_j, two_mt, states)

    monkeypatch.setattr(angles, "_grid_scan", counted_scan)
    monkeypatch.setattr(angles, "_refine", counted_refine)
    angles.optimal_angles_for_target(two_j, two_mt)
    target = (two_mt + two_j) // 2
    above = list(range(target + 1, two_j + 1))  # refined at m_t itself
    mirrored = [two_j - i for i in range(target - 1, -1, -1)]  # below: refined at -m_t
    expected = {two_mt: above} if two_mt == 0 else {two_mt: above, -two_mt: mirrored}
    expected = {t: states for t, states in expected.items() if states}
    assert sorted(scans) == sorted(expected)
    assert dict(refined) == expected and len(refined) == len(expected)


def _golden_max(f, lo, hi, tol=1e-10):
    """Golden-section reference maximizer (compares f values only)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


_REFINE_CASES = [(24, 0), (41, 1), (100, 10), (400, 0), (16, 4)]


@pytest.mark.parametrize("two_j,two_mt", _REFINE_CASES)
def test_optimal_angles_are_local_maxima(two_j, two_mt):
    batch_angles, batch_overlaps = angles.optimal_angles_for_target(two_j, two_mt)
    i_t = (two_mt + two_j) // 2
    for i, theta in enumerate(batch_angles):
        if i == i_t:
            continue
        overlap = lambda th: float(wigner.row_probabilities(two_j, two_mt, th)[i])
        here = overlap(theta)
        if i > i_t:  # refined directly, not through the mirror
            assert here == batch_overlaps[i]
        for step in (-1e-4, 1e-4, -1e-7, 1e-7):
            assert overlap(theta + step) <= here, (i, theta, step)


@pytest.mark.parametrize("two_j,two_mt", _REFINE_CASES)
def test_newton_refinement_matches_golden_section(two_j, two_mt):
    # every state the batched optimizer refines, for each target it mirrors through
    for target in sorted({two_mt, -two_mt}):
        states = np.arange((target + two_j) // 2 + 1, two_j + 1)
        grid, best, _, _ = angles._grid_scan(two_j, target, states)
        lo, _, hi = angles._cells(grid, best)
        _, overlaps, fell_back = angles._refine(two_j, target, states)
        assert not fell_back.any()
        for k, i in enumerate(states):
            overlap = lambda th: float(wigner.row_probabilities(two_j, target, th)[i])
            _, ref = _golden_max(overlap, lo[k], hi[k])
            assert overlaps[k] >= ref * (1.0 - 1e-14), (target, i)


_SCALAR_CASES = [(64, 0), (128, 0), (256, 0), (512, 0), (2048, 0), (200, 2), (201, 1), (64, 10), (41, -3)]


@pytest.mark.parametrize("two_j,two_mt", _SCALAR_CASES)
def test_lockstep_newton_equals_scalar_loop(two_j, two_mt):
    # each state takes, in the stacked rounds, the steps it takes alone
    got_angles, got_overlaps = angles.optimal_angles_for_target(two_j, two_mt)
    ref_angles, ref_overlaps = scalar_optimal_table(two_j, two_mt)
    assert got_angles.tobytes() == ref_angles.tobytes()
    assert got_overlaps.tobytes() == ref_overlaps.tobytes()


def test_top_target_scans_the_grid_once(monkeypatch):
    # m_t = j has no source above it, so only the mirrored table (m_t = -j)
    # is refined: one grid scan, then its geometric candidates
    two_j = 64
    ref_angles, ref_overlaps = scalar_optimal_table(two_j, two_j)
    calls = []  # the number of angles per stacked eigenvector solve
    rounds = []  # the same, for the Newton rounds
    original, original_derivatives = wigner._eigenvector_windows, wigner.row_derivatives

    def counting(two_j, two_ms, thetas):
        calls.append(len(thetas))
        return original(two_j, two_ms, thetas)

    def counting_derivatives(two_j, two_mt, thetas, indices):
        rounds.append(len(thetas))
        return original_derivatives(two_j, two_mt, thetas, indices)

    monkeypatch.setattr(wigner, "_eigenvector_windows", counting)
    monkeypatch.setattr(wigner, "row_derivatives", counting_derivatives)
    got_angles, got_overlaps = angles.optimal_angles_for_target(two_j, two_j)
    assert calls == [len(angles._coarse_grid(two_j)), two_j] + rounds
    assert got_angles.tobytes() == ref_angles.tobytes()
    assert got_overlaps.tobytes() == ref_overlaps.tobytes()


def test_optimal_angle_reaches_pi_for_mirror_state():
    # d(pi) maps |m> to |-m>: the optimum for m = -m_t is pi with overlap 1
    res = angles.optimal_angle(16, 4, -4)
    assert abs(res.angle.radians) == pytest.approx(math.pi, abs=1e-9)
    assert res.overlap_probability == pytest.approx(1.0, abs=1e-15)
    half = angles.optimal_angle(41, 1, -1)
    assert half.overlap_probability == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "two_j,two_mt,i", [(24, 0, 18), (41, 1, 30), (41, -3, 5), (100, 10, 80), (7, 1, 7)]
)
def test_row_derivatives_match_finite_differences(two_j, two_mt, i):
    overlap = lambda th: float(wigner.row_probabilities(two_j, two_mt, th)[i])
    h = 1e-4
    thetas = (0.3, 1.1, 2.6, -0.8)
    fs, dfs, d2fs = wigner.row_derivatives(two_j, two_mt, thetas, np.full(len(thetas), i))
    for theta, f, df, d2f in zip(thetas, fs, dfs, d2fs):
        assert f == overlap(theta)
        near = [overlap(theta + k * h) for k in (-2, -1, 1, 2)]
        fd1 = (near[0] - 8.0 * near[1] + 8.0 * near[2] - near[3]) / (12.0 * h)
        fd2 = (-near[0] + 16.0 * near[1] - 30.0 * f + 16.0 * near[2] - near[3]) / (12.0 * h * h)
        assert df == pytest.approx(fd1, abs=1e-9)
        assert d2f == pytest.approx(fd2, abs=1e-6)


def test_refinement_evaluations_per_state(monkeypatch):
    two_j = 256
    one_row, newton_rows = [0], [0]
    original, original_derivatives = wigner._eigenvector, wigner.row_derivatives

    def counting(*args):
        one_row[0] += 1
        return original(*args)

    def counting_derivatives(two_j, two_mt, thetas, indices):
        newton_rows[0] += len(thetas)
        return original_derivatives(two_j, two_mt, thetas, indices)

    monkeypatch.setattr(wigner, "_eigenvector", counting)
    monkeypatch.setattr(wigner, "row_derivatives", counting_derivatives)
    angles.optimal_angles_for_target(two_j, 0)
    refined = two_j // 2  # the m > 0 sources; m < 0 come from the mirror
    # every row comes in a stack, the Newton steps too: the first step reads
    # the grid scan's row, then about three more rows per state
    assert one_row[0] == 0
    assert refined < newton_rows[0] <= 3 * refined


def _scalar_geometric(two_j, two_mt, two_m):
    """The tangency formula in scalar math, the table's bitwise reference."""
    j, mt, m = two_j / 2.0, two_mt / 2.0, two_m / 2.0
    r0_sq = j * (j + 1.0)
    arg = (m * math.sqrt(j * (j + 1.0) - mt * mt) - mt * math.sqrt(j * (j + 1.0) - m * m)) / r0_sq
    return math.asin(max(-1.0, min(1.0, arg)))


@pytest.mark.parametrize("two_j,two_mt", [(7, 1), (64, 0), (64, -20), (201, 201), (2048, 0)])
def test_policy_tables_equal_scalar_loop(two_j, two_mt):
    geo = angles.policy_angles(two_j, two_mt, AnglePolicy.GEOMETRIC)
    ref = [_scalar_geometric(two_j, two_mt, 2 * i - two_j) for i in range(two_j + 1)]
    assert geo.tobytes() == np.array(ref).tobytes()
    for i in range(0, two_j + 1, 5):
        assert angles.geometric_angle(two_j, two_mt, 2 * i - two_j).radians == ref[i]
    if two_j % 2 == 0:
        approx = angles.policy_angles(two_j, 0, AnglePolicy.APPROX_MT0)
        ref = [angles.approx_angle_mt0(two_j, 2 * i - two_j).radians for i in range(two_j + 1)]
        assert approx.tobytes() == np.array(ref).tobytes()


def test_policy_angles_dispatch():
    out = angles.policy_angles(8, 0, AnglePolicy.APPROX_MT0)
    assert out[8] == pytest.approx(math.pi / 2)
    assert out[4] == 0.0
    with pytest.raises(DomainError):
        angles.policy_angles(8, 2, AnglePolicy.APPROX_MT0)
    geo = angles.policy_angles(8, 2, AnglePolicy.GEOMETRIC)
    assert geo[(2 + 8) // 2] == 0.0
    with pytest.raises(OutOfRange):
        angles.policy_angles(8, 0, "sideways")
    # states off the grid: geometric returned nan, numeric_optimal raised IndexError
    for policy in AnglePolicy.ALL:
        for states in ([-1], [9], [0, 4, 9]):
            with pytest.raises(OutOfRange):
                angles.policy_angles(8, 0, policy, states)


def test_geometric_angle_domain_clamp():
    # the tangency argument never exceeds 1 by more than rounding for valid inputs
    for two_j in (2, 9, 51):
        for two_mt in range(-two_j, two_j + 1, 2):
            for two_m in range(-two_j, two_j + 1, 2):
                angles.geometric_angle(two_j, two_mt, two_m)  # must not raise


@pytest.mark.parametrize("entries", [1, 3 * 41 + 5, 2**14])
@pytest.mark.parametrize("two_j,two_mt", [(40, 0), (40, -6), (41, 1), (64, 64)])
def test_stacked_grid_scan_equals_row_loop(monkeypatch, entries, two_j, two_mt):
    # the windowed, stacked scan against one whole row per grid point with
    # the mirror rule written out; at m_t = 0 the states above the target,
    # the ones the optimizer scans there
    monkeypatch.setattr(wigner, "_STACK_ENTRIES", entries)
    states = np.arange(two_j // 2 + 1, two_j + 1) if two_mt == 0 else np.arange(two_j + 1)
    _, best, widened, _ = angles._grid_scan(two_j, two_mt, states)
    assert np.array_equal(best, scalar_grid_best(two_j, two_mt)[states])
    assert not widened.any()


def test_stacked_grid_scan_keeps_the_first_tie(monkeypatch):
    # equal rows at every grid point: each state's best is the first point
    # of its window; where that is an edge, not index 0, the state widens
    # to its whole half and lands on index 0
    def flat_rows(two_j, two_ms, thetas):
        n, step = two_j + 1, 3
        for first in range(0, len(thetas), step):
            k = min(step, len(thetas) - first)
            full = wigner.Windows(n, np.zeros(k, dtype=np.int64), np.full(k, n), np.full(k * n, 0.5))
            yield slice(first, first + k), full

    monkeypatch.setattr(wigner, "_eigenvector_windows", flat_rows)
    _, best, widened, _ = angles._grid_scan(64, 0, np.arange(33, 65))
    assert not best.any()
    assert widened.any()


def test_half_scan_picks_the_full_scan_best_or_its_mirror():
    # the best index of every state the optimizer scans equals the parent's
    # whole-grid argmax k (no mirror rule: rows solved alone, the first
    # strict maximum) or its mirror N - 1 - k
    for two_j, two_mt in [(64, 0), (512, 0), (200, 2), (200, -2), (201, 1)]:
        grid = angles._coarse_grid(two_j)
        rows = np.array([wigner.row_probabilities(two_j, two_mt, th) for th in grid])
        full = np.argmax(rows, axis=0)
        for target in sorted({two_mt, -two_mt}):
            states = np.arange((target + two_j) // 2 + 1, two_j + 1)
            _, best, _, _ = angles._grid_scan(two_j, target, states)
            ref = full if target == two_mt else np.argmax(
                np.array([wigner.row_probabilities(two_j, target, th) for th in grid]), axis=0
            )
            k = ref[states]
            assert np.all((best == k) | (best == len(grid) - 1 - k)), (two_j, target)
            mirrored = (two_mt == 0) | (2 * states == two_j)
            assert np.all(best[~mirrored] == k[~mirrored])  # the whole grid, where f is not mirror-symmetric


def test_shrunk_window_widens_to_the_full_table(monkeypatch):
    # windows of one cell around the geometric angle: the best points land
    # on their edges, those states scan their whole half again, and the
    # table keeps every bit
    two_j = 256
    ref_angles, ref_overlaps = angles.optimal_angles_for_target(two_j, 0)
    widened = []
    grid_scan = angles._grid_scan

    def counted_scan(two_j, two_mt, states):
        out = grid_scan(two_j, two_mt, states)
        widened.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(angles, "_WINDOW", 0.0)
    monkeypatch.setattr(angles, "_WINDOW_CELLS", 1)
    monkeypatch.setattr(angles, "_grid_scan", counted_scan)
    got_angles, got_overlaps = angles.optimal_angles_for_target(two_j, 0)
    assert widened[0] > two_j // 4
    assert got_angles.tobytes() == ref_angles.tobytes()
    assert got_overlaps.tobytes() == ref_overlaps.tobytes()


@pytest.mark.parametrize("two_j,two_mt", [(33, -5), (200, 24), (2048, 0)])
def test_overlap_probabilities_equal_row_entries(two_j, two_mt):
    rng = np.random.default_rng(two_j)
    states = rng.integers(0, two_j + 1, 12)
    thetas = rng.uniform(-3.5, 3.5, 12)
    thetas[4] = 0.0
    got = angles.overlap_probabilities(two_j, two_mt, states, thetas)
    for k in range(12):
        assert got[k] == wigner.row_probabilities(two_j, two_mt, thetas[k])[states[k]]


def test_optimizer_rows_come_in_stacks(monkeypatch):
    # the grid scan, the start state's column, the geometric candidates and
    # each later Newton round are stacked; the first round reads the scan's
    # rows.  Each factorization gets exactly the predicted window entries
    # of its rows: no row is widened.
    two_j = 256
    calls = []  # (rows, predicted window entries) per _eigenvectors call
    solved = []  # (two_ms, thetas) per stacked solve, in order
    original = wigner._eigenvectors
    original_windows = wigner._eigenvector_windows

    def counting_windows(two_j, two_ms, thetas):
        solved.append((np.array(two_ms), np.array(thetas)))
        return original_windows(two_j, two_ms, thetas)

    def counting(two_j, two_ms, thetas, *stack):
        lo, hi = wigner._windows(two_j, np.asarray(two_ms), np.cos(thetas), np.sin(thetas))
        calls.append((len(thetas), int((hi - lo).sum())))
        return original(two_j, two_ms, thetas, *stack)

    factorizations = []
    real_gttrf = wigner._gttrf

    def counting_gttrf(dl, d, du):
        factorizations.append(len(d))
        return real_gttrf(dl, d, du)

    monkeypatch.setattr(wigner, "_eigenvectors", counting)
    monkeypatch.setattr(wigner, "_gttrf", counting_gttrf)
    monkeypatch.setattr(wigner, "_eigenvector_windows", counting_windows)
    angles.optimal_angles_for_target(two_j, 0)
    assert factorizations == [entries for _, entries in calls]
    refined = two_j // 2
    grid = angles._coarse_grid(two_j)
    half = len(grid) // 2
    (row_ms, row_t), (column_ms, column_t), (geo_ms, geo_t), *rounds = solved
    # the rows (columns of the inverse rotation) cover theta < pi/2 from
    # the first grid point on; the start state's column ends at pi/2
    assert not row_ms.any() and row_t.tobytes() == (-grid[:len(row_t)]).tobytes() and len(row_t) <= half
    assert (column_ms == two_j).all() and column_t.tobytes() == grid[half - len(column_t):half].tobytes()
    geo = -angles._geometric_angles(two_j, 0, wigner.m_values(two_j)[two_j // 2 + 1:])
    assert not geo_ms.any() and geo_t.tobytes() == geo.tobytes()
    stacks = []
    for ms, t in solved:
        lo, hi = wigner._windows(two_j, ms, np.cos(t), np.sin(t))
        stacks += greedy_stacks(hi - lo, wigner._STACK_ENTRIES)
    assert [rows for rows, _ in calls] == stacks
    # the start state's first round (its scan read its column, not a row),
    # then the later rounds of every state
    assert len(rounds[0][1]) == 1
    newton = sum(len(t) for _, t in rounds[1:])
    assert refined < newton <= 3 * refined
    assert len(rounds) < newton / 10  # a round holds many states
