import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from dickeprep.core import AnglePolicy, ProtocolConfig, ResetPolicy
from dickeprep import chain, simulate, wigner

from oracles import rotation_oracle


def _cfg(two_j, two_mt=0, policy=AnglePolicy.APPROX_MT0, reset="none", seed=42, **kw):
    return ProtocolConfig(
        two_j=two_j,
        target_two_mt=two_mt,
        angle_policy=policy,
        reset_policy=ResetPolicy(kind=reset),
        seed=seed,
        **kw,
    )


def test_rng_streams_are_keyed():
    a = simulate.rng_stream(7, 0).random(4)
    b = simulate.rng_stream(7, 0).random(4)
    c = simulate.rng_stream(7, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trajectory_deterministic_and_bounded():
    cfg = _cfg(20)
    rec1 = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, 3))
    rec2 = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, 3))
    assert rec1 == rec2
    assert rec1.iterations == len(rec1.steps) <= cfg.max_iterations
    assert rec1.succeeded


def test_trajectory_trivial_target():
    cfg = _cfg(16, 16, AnglePolicy.GEOMETRIC)
    rec = simulate.run_trajectory(cfg, simulate.rng_stream(0, 0))
    assert rec.iterations == 0 and rec.succeeded


def test_first_step_angle_is_half_pi():
    cfg = _cfg(30)
    rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, 11))
    assert rec.steps[0].two_m_before == 30
    assert rec.steps[0].angle == pytest.approx(math.pi / 2)


def test_batch_equals_sequential_runs():
    configs = [
        _cfg(10, reset="none", seed=9),
        _cfg(10, reset="sqrt_j", seed=9),
        _cfg(200, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=4),
        ProtocolConfig(two_j=60, target_two_mt=4, reset_policy=ResetPolicy(kind="custom", threshold=4.0), seed=5),
        _cfg(41, 1, AnglePolicy.GEOMETRIC, seed=6),  # half-integer j, no reset
    ]
    for cfg in configs:
        its, ok = simulate.sample_iterations(cfg, 300)
        tables = simulate.PolicyTables(cfg)
        for i in range(300):
            rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables)
            assert its[i] == rec.iterations
            assert ok[i] == rec.succeeded


def test_batch_equals_sequential_runs_across_draw_blocks():
    # runs longer than one 32-draw block read later blocks of their stream
    cfg = _cfg(100, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=3)
    its, ok = simulate.sample_iterations(cfg, 300)
    assert its.max() > 32
    tables = simulate.PolicyTables(cfg)
    for i in range(300):
        rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables)
        assert (its[i], ok[i]) == (rec.iterations, rec.succeeded)


def test_block_reader_matches_streams():
    for seed, i in ((7, 0), (2**64 - 1, 5), (-3, 8191)):
        streams = simulate._BlockReader(seed)
        ref = simulate.rng_stream(seed, i).random(3 * simulate._BLOCK)
        blocks = [streams.block(i, b) for b in (2, 0, 1)]
        assert np.array_equal(np.concatenate([blocks[1], blocks[2], blocks[0]]), ref)


@pytest.mark.parametrize("engine", ["chain", "statevector"])
def test_spin_half_both_engines(engine):
    cfg = ProtocolConfig(two_j=1, target_two_mt=-1, seed=4)
    stats = simulate.summarize(cfg, 4000, engine=engine)
    expected = chain.expected_steps_for(1, -1).start_state_value
    assert stats.success_rate == 1.0
    assert abs(stats.mean_iterations - expected) < 4 * stats.std_error


def test_sampler_fetches_only_entered_rows(monkeypatch):
    cfg = _cfg(400, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=17)
    fetched = []
    original = simulate.PolicyTables.cumulative

    def counting(self, i_m):
        fetched.append(i_m)
        return original(self, i_m)

    monkeypatch.setattr(simulate.PolicyTables, "cumulative", counting)
    its, ok = simulate.sample_iterations(cfg, 3000)
    assert ok.all()
    two_m = wigner.two_m_values(400)
    window = int(np.count_nonzero(two_m * two_m <= 2 * 400))  # |m| <= sqrt(j)
    assert len(fetched) == len(set(fetched)) <= window + 1
    assert 400 in fetched  # the start state m = j


def test_reset_flag_consistency():
    cfg = _cfg(36, reset="sqrt_j", seed=5)
    tables = simulate.PolicyTables(cfg)
    sqrt_j = math.sqrt(18.0)
    seen_reset = False
    for i in range(400):
        rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables)
        prev = 36
        for st in rec.steps:
            assert st.two_m_before == prev
            exceeded = abs(st.two_m_after) / 2.0 > sqrt_j
            assert st.reset == (exceeded and st.two_m_after != 0)
            seen_reset = seen_reset or st.reset
            prev = 36 if st.reset else st.two_m_after
    assert seen_reset  # the policy must actually fire somewhere in 400 runs


def test_j1_mean_and_histogram():
    cfg = _cfg(2, seed=123)
    stats = simulate.summarize(cfg, 100_000)
    # geometric(1/2) iteration law: mean 2, sd sqrt(2)
    se = math.sqrt(2.0) / math.sqrt(stats.n_runs)
    assert abs(stats.mean_iterations - 2.0) < 3 * se
    assert stats.success_rate == 1.0
    counts = stats.histogram
    for k in (1, 2, 3, 4, 5):
        ratio = counts[k + 1] / counts[k]
        assert abs(ratio - 0.5) < 0.1


def test_mc_matches_fundamental_matrix_j50():
    cfg = _cfg(100, reset="sqrt_j", seed=2024)
    expected = chain.expected_steps(chain.build_chain(cfg)).start_state_value
    stats = simulate.summarize(cfg, 100_000)
    assert abs(stats.mean_iterations - expected) < 3 * stats.std_error
    assert stats.success_rate == 1.0


def test_statevector_engine_matches_trajectory_law():
    cfg = _cfg(40, seed=77)
    its_chain, ok_chain = simulate.sample_iterations(cfg, 30_000, engine="chain")
    its_state, ok_state = simulate.sample_iterations(cfg, 30_000, engine="statevector")
    assert ok_chain.all() and ok_state.all()
    top = max(its_chain.max(), its_state.max())
    h1 = np.bincount(its_chain, minlength=top + 1)
    h2 = np.bincount(its_state, minlength=top + 1)
    keep = (h1 + h2) >= 10  # merge sparse bins into a tail bucket
    table = np.vstack(
        [
            np.append(h1[keep], h1[~keep].sum()),
            np.append(h2[keep], h2[~keep].sum()),
        ]
    )
    table = table[:, table.sum(axis=0) > 0]
    _, p_value, *_ = chi2_contingency(table)
    assert p_value > 0.01


def test_statevector_columns_match_outcome_distribution():
    cfg = _cfg(24, policy=AnglePolicy.GEOMETRIC)
    tables = simulate.PolicyTables(cfg)
    for i_m in (0, 5, 20, 24):
        if 2 * i_m - 24 == 0:
            continue
        col = tables.column(i_m)
        exact = rotation_oracle(24, tables.angles[i_m])[:, i_m]
        assert np.max(np.abs(col - exact)) < 1e-10


def test_statevector_record_structure():
    cfg = _cfg(12, seed=3)
    rec = simulate.run_statevector(cfg, simulate.rng_stream(cfg.seed, 0))
    assert rec.succeeded
    assert rec.steps[-1].two_m_after == 0
    for st in rec.steps[:-1]:
        assert st.two_m_after != 0


def test_success_rate_is_one_at_default_cap():
    cfg = _cfg(128, reset="sqrt_j", seed=8)
    stats = simulate.summarize(cfg, 20_000)
    assert stats.success_rate == 1.0
    # chain tail bound: after max_iterations steps the unabsorbed mass is
    # far below one expected failure in 20k runs
    built = chain.build_chain(cfg)
    keep = np.arange(built.size) != built.absorbing_index
    q = built.matrix[np.ix_(keep, keep)]
    p = np.zeros(built.size - 1)
    p[-1] = 1.0
    for _ in range(cfg.max_iterations):
        p = p @ q
        if p.sum() < 1e-12:
            break
    assert p.sum() < 1e-9


def test_max_iterations_exceeded_is_recorded_not_thrown():
    cfg = _cfg(40, seed=13, max_iterations=1)
    tables = simulate.PolicyTables(cfg)
    failures = 0
    for i in range(200):
        rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables)
        assert rec.iterations <= 1
        failures += not rec.succeeded
    assert failures > 0  # one step from m=j rarely lands exactly on target
    stats = simulate.summarize(cfg, 200)
    assert stats.success_rate == pytest.approx(1.0 - failures / 200.0)


def test_success_rate_one_at_j2048_by_tail_bound():
    # default-cap claim at the largest supported protocol size: the chain's
    # unabsorbed mass after max_iterations bounds the failure probability
    cfg = _cfg(4096, reset="sqrt_j", seed=1)
    built = chain.build_chain(cfg)
    keep = np.arange(built.size) != built.absorbing_index
    q = built.matrix[np.ix_(keep, keep)]
    p = np.zeros(built.size - 1)
    p[-1] = 1.0
    remaining = 1.0
    for _ in range(cfg.max_iterations):
        p = p @ q
        remaining = p.sum()
        if remaining < 1e-15:
            break
    assert remaining < 1e-12  # ~0 failures expected in any feasible run count
    stats = simulate.summarize(cfg, 20_000)
    assert stats.success_rate == 1.0


def test_monte_carlo_summary_multiple_configs():
    cfgs = [_cfg(2, seed=1), _cfg(10, seed=2)]
    out = simulate.monte_carlo_summary(cfgs, 500)
    assert len(out) == 2
    single = simulate.monte_carlo_summary(cfgs[0], 500)
    assert single[0] == out[0]


def test_summary_independent_of_chunking(monkeypatch):
    cfg = _cfg(14, seed=31)
    baseline = simulate.summarize(cfg, 2_000)
    monkeypatch.setattr(simulate, "_CHUNK", 137)
    chunked = simulate.summarize(cfg, 2_000)
    assert baseline == chunked
