import math

import numpy as np
import pytest

from dickeprep.core import AnglePolicy, OutOfRange, ProtocolConfig, ResetPolicy, SingularSystem
from dickeprep import angles, chain, wigner

from oracles import rotation_oracle


def _cfg(two_j, two_mt=0, policy=AnglePolicy.APPROX_MT0, reset="none", **kw):
    return ProtocolConfig(
        two_j=two_j,
        target_two_mt=two_mt,
        angle_policy=policy,
        reset_policy=ResetPolicy(kind=reset) if isinstance(reset, str) else reset,
        **kw,
    )


def test_j1_row_is_binomial():
    built = chain.build_chain(_cfg(2))
    assert built.matrix[2] == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)
    assert built.matrix[0] == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)


def test_absorbing_row_is_point_mass():
    for cfg in (_cfg(2), _cfg(10, policy=AnglePolicy.GEOMETRIC), _cfg(9, 3, AnglePolicy.GEOMETRIC)):
        built = chain.build_chain(cfg)
        row = built.matrix[built.absorbing_index]
        expected = np.zeros(built.size)
        expected[built.absorbing_index] = 1.0
        assert np.array_equal(row, expected)


def test_rows_match_outcome_distribution():
    cfg = _cfg(20, policy=AnglePolicy.GEOMETRIC)
    built = chain.build_chain(cfg)
    for i in range(built.size):
        if i == built.absorbing_index:
            continue
        exact = rotation_oracle(20, built.angles[i])[:, i] ** 2
        assert np.max(np.abs(built.matrix[i] - exact)) < 1e-11


@pytest.mark.parametrize("policy", [AnglePolicy.APPROX_MT0, AnglePolicy.GEOMETRIC])
def test_negation_symmetry_no_reset(policy):
    built = chain.build_chain(_cfg(40, policy=policy))
    flipped = built.matrix[::-1, ::-1]
    assert np.max(np.abs(flipped - built.matrix)) < 1e-9


def test_row_stochastic_medium_j():
    for cfg in (_cfg(128, reset="sqrt_j"), _cfg(401, 1, AnglePolicy.GEOMETRIC)):
        built = chain.build_chain(cfg)
        assert np.max(np.abs(built.matrix.sum(axis=1) - 1.0)) < 1e-9


def test_reset_routing_moves_tail_mass():
    two_j = 72  # j = 36, sqrt(j) = 6
    routed = chain.build_chain(_cfg(two_j, reset="sqrt_j"))
    plain = chain.build_chain(_cfg(two_j))
    two_m_grid = wigner.two_m_values(two_j)
    tail = two_m_grid * two_m_grid > 2 * two_j
    other_tail = tail.copy()
    other_tail[-1] = False  # m = j is in the tail but is the reset destination
    assert np.max(np.abs(routed.matrix[:, other_tail])) == 0.0
    expected_last = plain.matrix[:, -1] + plain.matrix[:, other_tail].sum(axis=1)
    rows = np.arange(two_j + 1) != routed.absorbing_index
    assert routed.matrix[rows, -1] == pytest.approx(expected_last[rows], abs=1e-14)
    # untouched interior columns agree with the unrouted chain
    inside = ~tail
    assert np.max(np.abs(routed.matrix[rows][:, inside] - plain.matrix[rows][:, inside])) == 0.0


def test_custom_reset_threshold():
    built = chain.build_chain(_cfg(20, reset=ResetPolicy(kind="custom", threshold=3.0)))
    two_m_grid = wigner.two_m_values(20)
    gone = np.abs(two_m_grid) / 2.0 > 3.0
    gone[-1] = False
    assert np.max(np.abs(built.matrix[:, gone])) == 0.0


def test_expected_steps_j1_exact():
    # hand oracle: rows are (1/4, 1/2, 1/4), so E = 1 + E/4 + E/4 => E = 2
    report = chain.expected_steps(chain.build_chain(_cfg(2)))
    assert abs(report.start_state_value - 2.0) < 1e-12
    assert report.expected_steps_from[1] == 0.0


def test_expected_steps_target_at_start():
    report = chain.expected_steps_for(12, 12, AnglePolicy.GEOMETRIC)
    assert report.start_state_value == 0.0


def test_naive_formula():
    assert chain.naive_expected_steps(2) == pytest.approx(2.0, abs=1e-14)
    assert chain.naive_expected_steps(4) == pytest.approx(16.0 / 6.0, abs=1e-14)
    # Stirling: 2^n / C(n, n/2) -> sqrt(pi j)
    for j in (200, 800):
        ratio = chain.naive_expected_steps(2 * j) / math.sqrt(math.pi * j)
        assert abs(ratio - 1.0) < 1e-3
    with pytest.raises(Exception):
        chain.naive_expected_steps(3)


def _log_fit(js):
    # R^2 and coefficients of a linear fit of the geometric sqrt_j start values against log j
    steps = np.array([
        chain.expected_steps_for(2 * j, 0, AnglePolicy.GEOMETRIC, ResetPolicy(kind="sqrt_j")).start_state_value
        for j in js
    ])
    x = np.log(js)
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, steps, rcond=None)
    pred = a @ coef
    r2 = 1.0 - np.sum((steps - pred) ** 2) / np.sum((steps - np.mean(steps)) ** 2)
    return r2, coef


def test_log_growth_quick():
    r2, coef = _log_fit([16, 32, 64, 128])
    assert r2 > 0.97
    assert coef[1] > 0


def test_geometric_within_twice_optimal_quick():
    for j in (16, 64):
        reset = ResetPolicy(kind="sqrt_j")
        geo = chain.expected_steps_for(2 * j, 0, AnglePolicy.GEOMETRIC, reset).start_state_value
        opt = chain.expected_steps_for(2 * j, 0, AnglePolicy.NUMERIC_OPTIMAL, reset).start_state_value
        assert geo <= 2.0 * opt
        assert opt <= geo + 1e-9  # the optimizer can only help


def test_mt_sweep_shape():
    sweep = chain.mt_sweep(40)
    two_mts = [s[0] for s in sweep]
    steps = np.array([s[1] for s in sweep])
    assert two_mts == list(range(0, 41, 2))
    assert np.argmax(steps) == 0
    assert steps[-1] == 0.0
    # decreasing expected steps as the target moves toward the start state
    assert all(a >= b - 1e-12 for a, b in zip(steps, steps[1:]))


@pytest.mark.parametrize("two_j", [-4, -1, True, 4.0])
def test_mt_sweep_rejects_invalid_two_j(two_j):
    # mt_sweep(-4) used to return [], so the CLI wrote a header-only CSV
    with pytest.raises(OutOfRange):
        chain.mt_sweep(two_j)


def test_singular_system_detected():
    cfg = _cfg(2)
    bad = np.eye(3)  # no path to the absorbing state from the others
    broken = chain.TransitionChain(config=cfg, matrix=bad, absorbing_index=1, angles=np.zeros(3))
    with pytest.raises(SingularSystem):
        chain.expected_steps(broken)


@pytest.mark.parametrize("two_j", [100, 200])
def test_unreachable_target_raises(two_j):
    # with the sqrt_j reset the walk almost never measures m = -j: (I - Q) is
    # singular to working precision, and the solve used to return 2^53 at
    # two_j = 100 and -4.5e15 at two_j = 200 (t >= 1 holds for every state)
    sqrt_j = ResetPolicy(kind="sqrt_j")
    with pytest.raises(SingularSystem):
        chain.expected_steps_for(two_j, -two_j, AnglePolicy.GEOMETRIC, sqrt_j)
    with pytest.raises(SingularSystem):
        chain.expected_steps(chain.build_chain(_cfg(two_j, -two_j, AnglePolicy.GEOMETRIC, sqrt_j)))


def test_expected_steps_below_one_raise():
    # a well-conditioned (I - Q) can still give no expected-steps vector:
    # the negative entry of this Q puts t below 1
    q = np.array([[0.0, 0.0], [-0.5, 0.0]])
    with pytest.raises(SingularSystem, match="< 1"):
        chain._solve(q)
    assert chain._solve(np.array([[0.0, 0.0], [0.5, 0.0]])).tolist() == [1.0, 1.5]


def test_half_integer_spin_chain():
    report = chain.expected_steps_for(5, 1, AnglePolicy.GEOMETRIC)
    assert np.isfinite(report.start_state_value)
    assert report.start_state_value > 0
    sweep = chain.mt_sweep(5)
    assert [s[0] for s in sweep] == [1, 3, 5]
    assert sweep[-1][1] == 0.0


def _dense_expected_steps(built):
    # reference: the full fundamental-matrix solve over every transient state
    n = built.size
    keep = np.arange(n) != built.absorbing_index
    a = np.eye(n - 1) - built.matrix[np.ix_(keep, keep)]
    out = np.zeros(n)
    out[keep] = np.linalg.solve(a, np.ones(n - 1))
    return out


_SOLVE_CASES = [
    # (two_j, two_mt, reset, some transient state has an all-zero column)
    (40, 0, "none", False),
    (40, 0, "sqrt_j", True),
    (40, 10, ResetPolicy(kind="custom", threshold=3.0), True),  # m_t = 5 lies outside the window
    (40, 0, ResetPolicy(kind="custom", threshold=20.0), False),  # threshold >= j: nothing rerouted
    (41, 1, "none", False),
    (41, 1, "sqrt_j", True),
    (41, 11, ResetPolicy(kind="custom", threshold=3.0), True),
    (41, 1, ResetPolicy(kind="custom", threshold=21.0), False),
]


@pytest.mark.parametrize(
    "policy,two_j,two_mt,reset,shrinks",
    [
        (policy, *case)
        for policy in (AnglePolicy.APPROX_MT0, AnglePolicy.GEOMETRIC, AnglePolicy.NUMERIC_OPTIMAL)
        for case in _SOLVE_CASES
        if policy != AnglePolicy.APPROX_MT0 or case[1] == 0  # approx_mt0 needs m_t = 0
    ],
)
def test_entered_state_solve_matches_dense_reference(policy, two_j, two_mt, reset, shrinks):
    built = chain.build_chain(_cfg(two_j, two_mt, policy, reset))
    transient = np.arange(built.size) != built.absorbing_index
    assert (~built.matrix[:, transient].any(axis=0)).any() == shrinks
    got = chain.expected_steps(built).expected_steps_from
    ref = _dense_expected_steps(built)
    assert got[built.absorbing_index] == 0.0
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12


@pytest.mark.parametrize("two_mt", [1, -1])
def test_spin_half_chain(two_mt):
    # one qubit: every step from the other state succeeds with sin^2(theta/2)
    theta = angles.policy_angles(1, two_mt, AnglePolicy.GEOMETRIC)[(1 - two_mt) // 2]
    report = chain.expected_steps_for(1, two_mt)
    expected = np.zeros(2)
    expected[(1 - two_mt) // 2] = 1.0 / math.sin(theta / 2) ** 2
    assert report.expected_steps_from == pytest.approx(expected, rel=1e-12)


def _rel_err(got, ref):
    return np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0))


@pytest.mark.parametrize(
    "policy,two_j,two_mt,reset",
    [
        (policy, *case[:3])
        for policy in (AnglePolicy.APPROX_MT0, AnglePolicy.GEOMETRIC, AnglePolicy.NUMERIC_OPTIMAL)
        for case in _SOLVE_CASES
        if policy != AnglePolicy.APPROX_MT0 or case[1] == 0
    ]
    + [(AnglePolicy.GEOMETRIC, two_j, two_j % 2, "sqrt_j") for two_j in (512, 2048, 2049)],
)
def test_entered_block_matches_dense_reference(policy, two_j, two_mt, reset):
    cfg = _cfg(two_j, two_mt, policy, reset)
    report = chain.expected_steps_for(two_j, two_mt, policy, cfg.reset_policy)
    ref = _dense_expected_steps(chain.build_chain(cfg))
    got = report.expected_steps_from
    assert got[cfg.target_index] == 0.0
    assert _rel_err(got, ref) < 1e-12
    assert report.start_state_value == got[-1]


def _perturbed_stacks(monkeypatch, rows_to_perturb):
    # returns the two_m of every row requested from the kernel
    original = wigner.transition_windows
    requested = []

    def perturbed(two_j, two_ms, thetas):
        two_ms = np.asarray(two_ms)
        requested.extend(two_ms.tolist())
        for rows, stack in original(two_j, two_ms, thetas):
            stack.values[np.repeat(rows_to_perturb(two_j, two_ms[rows]), stack.widths)] *= 1.0 + 1e-6
            yield rows, stack

    monkeypatch.setattr(wigner, "transition_windows", perturbed)
    return requested


def test_entered_block_row_sum_check(monkeypatch):
    sqrt_j = ResetPolicy(kind="sqrt_j")
    _perturbed_stacks(monkeypatch, lambda two_j, two_ms: two_ms == two_j)  # the start row, in S
    with pytest.raises(SingularSystem):
        chain.expected_steps_for(72, 0, AnglePolicy.GEOMETRIC, sqrt_j)
    # a representative's row outside S surfaces on the fill, not on the start value
    monkeypatch.undo()
    requested = _perturbed_stacks(monkeypatch, lambda two_j, two_ms: two_ms == two_j - 2)
    report = chain.expected_steps_for(72, 0, AnglePolicy.GEOMETRIC, sqrt_j)
    assert np.isfinite(report.start_state_value)
    with pytest.raises(SingularSystem):
        report.expected_steps_from
    # m = -j reads t(j): its row is never computed
    assert 72 - 2 in requested and -72 not in requested


def _count_rows(monkeypatch):
    counted = []
    original = wigner._eigenvectors

    def counting(two_j, two_ms, thetas):
        counted.append(len(thetas))
        return original(two_j, two_ms, thetas)

    monkeypatch.setattr(wigner, "_eigenvectors", counting)
    return counted


def _entered_count(two_j, two_mt):
    # transient states a sqrt_j reset keeps, plus the start state m = j
    kept = [tm for tm in range(-two_j, two_j + 1, 2) if tm * tm <= 2 * two_j and tm != two_mt]
    return len(kept) + (two_j * two_j > 2 * two_j and two_j != two_mt)


def _lumped_row_counts(two_j):
    # rows computed at m_t = 0 under the sqrt_j reset, representatives m > 0
    # only: those in S (0 < m <= sqrt j, plus the start state m = j), then
    # the others on the fill
    kept = sum(1 for tm in range(2, two_j + 1, 2) if tm * tm <= 2 * two_j)
    in_s = kept + (two_j * two_j > 2 * two_j)
    return in_s, two_j // 2 - in_s


def test_start_value_computes_only_entered_rows(monkeypatch):
    counted = _count_rows(monkeypatch)
    report = chain.expected_steps_for(16384, 0, AnglePolicy.GEOMETRIC, ResetPolicy(kind="sqrt_j"))
    assert sum(counted) == _lumped_row_counts(16384)[0] == 91
    assert 10.0 < report.start_state_value < 20.0


def test_other_states_filled_on_first_access(monkeypatch):
    counted = _count_rows(monkeypatch)
    reset = ResetPolicy(kind="sqrt_j")
    report = chain.expected_steps_for(400, 0, AnglePolicy.GEOMETRIC, reset)
    in_s, filled = _lumped_row_counts(400)
    assert (in_s, filled) == (15, 185)
    assert sum(counted) == in_s
    got = report.expected_steps_from
    assert sum(counted) == in_s + filled  # every representative but the target, each row once
    assert report.expected_steps_from is got and sum(counted) == in_s + filled  # cached
    ref = _dense_expected_steps(chain.build_chain(_cfg(400, 0, AnglePolicy.GEOMETRIC, reset)))
    assert _rel_err(got, ref) < 1e-12


@pytest.mark.parametrize("two_j", [40, 64, 200])
@pytest.mark.parametrize(
    "reset",
    # a threshold of 100 >= j reroutes nothing
    ["none", "sqrt_j", ResetPolicy(kind="custom", threshold=3.0), ResetPolicy(kind="custom", threshold=100.0)],
    ids=["none", "sqrt_j", "custom3", "custom100"],
)
@pytest.mark.parametrize("policy", [AnglePolicy.APPROX_MT0, AnglePolicy.GEOMETRIC, AnglePolicy.NUMERIC_OPTIMAL])
def test_lumped_mt0_solve_matches_dense_reference(policy, reset, two_j):
    # the solve on the classes {m, -m} against the unlumped dense solve, and
    # t(-m) = t(m) bit for bit
    cfg = _cfg(two_j, 0, policy, reset)
    got = chain.expected_steps_for(two_j, 0, policy, cfg.reset_policy).expected_steps_from
    ref = _dense_expected_steps(chain.build_chain(cfg))
    assert _rel_err(got, ref) < 1e-12
    assert got.tobytes() == got[::-1].tobytes()


def test_log_growth_to_large_j():
    # the geometric sqrt_j fit of acceptance criterion 04, carried to j = 2^19:
    # the paper's logarithmic-runtime claim two decades past j = 4096
    r2, coef = _log_fit([2**k for k in range(4, 20)])
    assert r2 >= 0.98
    assert coef[1] > 0


def test_start_value_solves_windows_at_two_j_2_20(monkeypatch):
    # the entered rows have O(sqrt j) windows: the kernel factors under 1% of
    # the |S| x n entries that full-range rows would take
    two_j = 2**20
    entries = [0]
    real = wigner._gttrf

    def counting(dl, d, du):
        entries[0] += len(d)
        return real(dl, d, du)

    monkeypatch.setattr(wigner, "_gttrf", counting)
    report = chain.expected_steps_for(two_j, 0, AnglePolicy.GEOMETRIC, ResetPolicy(kind="sqrt_j"))
    assert 0 < entries[0] < 0.01 * _entered_count(two_j, 0) * (two_j + 1)
    assert 15.0 < report.start_state_value < 25.0
