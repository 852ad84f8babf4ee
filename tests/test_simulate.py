import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from dickeprep.core import AnglePolicy, ProtocolConfig, ResetPolicy, SingularSystem, SpinSpec
from dickeprep import angles, chain, simulate, wigner

from oracles import absorption_time_law, dense_draw, rotation_oracle


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


WALK_CONFIGS = [
    _cfg(10, reset="none", seed=9),
    _cfg(10, reset="sqrt_j", seed=9),
    _cfg(200, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=4),
    ProtocolConfig(two_j=60, target_two_mt=4, reset_policy=ResetPolicy(kind="custom", threshold=4.0), seed=5),
    _cfg(41, 1, AnglePolicy.GEOMETRIC, seed=6),  # half-integer j, no reset
]
# each engine's batched sampler against its one-run walk
WALKS = {"chain": simulate.run_trajectory, "statevector": simulate.run_statevector}


def test_batch_equals_sequential_runs():
    for cfg in WALK_CONFIGS:
        for engine, walk in WALKS.items():
            its, ok = simulate.sample_iterations(cfg, 300, engine=engine)
            tables = simulate.PolicyTables(cfg)
            for i in range(300):
                rec = walk(cfg, simulate.rng_stream(cfg.seed, i), tables)
                assert its[i] == rec.iterations
                assert ok[i] == rec.succeeded


def test_batch_equals_sequential_runs_across_draw_blocks():
    # runs longer than one 32-draw block read later blocks of their stream
    cfg = _cfg(100, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=3)
    for engine, walk in WALKS.items():
        its, ok = simulate.sample_iterations(cfg, 300, engine=engine)
        assert its.max() > 32
        tables = simulate.PolicyTables(cfg)
        for i in range(300):
            rec = walk(cfg, simulate.rng_stream(cfg.seed, i), tables)
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


def test_statevector_builds_each_column_cumulative_once(monkeypatch):
    cfg = _cfg(60, policy=AnglePolicy.GEOMETRIC, seed=21)
    built = []
    original = simulate._normalized_cumulative

    def counting(row):
        built.append(row)
        return original(row)

    monkeypatch.setattr(simulate, "_normalized_cumulative", counting)
    tables = simulate.PolicyTables(cfg)
    steps = 0
    for i in range(40):
        steps += simulate.run_statevector(cfg, simulate.rng_stream(cfg.seed, i), tables).iterations
    assert len(built) == len(tables._column_cums) < steps
    for i_m, (lo, cum) in tables._column_cums.items():
        row = wigner.transition_probabilities(SpinSpec(60, 2 * i_m - 60), tables.angles[i_m])
        assert lo == 0 and np.array_equal(cum, original(row))


def test_chain_cumulative_is_the_dense_one_on_its_window():
    # inside the window the windowed cumulative equals the dense one bit for
    # bit; the dense one is 0.0 before the window and exactly 1.0 after it
    for cfg in WALK_CONFIGS:
        tables = simulate.PolicyTables(cfg)
        n = cfg.two_j + 1
        for i_m in range(n):
            lo, cum = tables.cumulative(i_m)
            row = wigner.transition_probabilities(SpinSpec(cfg.two_j, 2 * i_m - cfg.two_j), tables.angles[i_m])
            dense = simulate._normalized_cumulative(row)
            assert lo + len(cum) <= n and cum[-1] == 1.0
            assert np.array_equal(dense[lo:lo + len(cum)], cum)
            assert not dense[:lo].any() and np.all(dense[lo + len(cum):] == 1.0)


def test_sampler_rows_are_checked_not_renormalized(monkeypatch):
    # rows off by about 2e-6 must raise, as they do in the chain solve
    real = wigner._eigenvectors

    def scaled(*args):
        rows = real(*args)
        rows.values = rows.values * (1.0 + 1e-6)
        return rows

    monkeypatch.setattr(wigner, "_eigenvectors", scaled)
    cfg = _cfg(100, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=3)
    with pytest.raises(SingularSystem, match="row sums"):
        simulate.sample_iterations(cfg, 10, engine="chain")
    with pytest.raises(SingularSystem, match="row sums"):
        simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, 0))
    with pytest.raises(SingularSystem, match="row sums"):
        chain.expected_steps_for(100, reset_policy=cfg.reset_policy)


# the edge draws: u == 0.0 (the only draw where the windowed and the dense
# searchsorted differ) and the largest double below 1, then ordinary draws
# of a fixed stream until the run ends
TOP = float(np.nextafter(1.0, 0.0))
EDGE_PREFIX = [0.0, TOP, 0.0, 0.0, 0.3, TOP, TOP, 0.7]
EDGE_CONFIGS = [
    _cfg(400, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j"),
    _cfg(401, 1, AnglePolicy.GEOMETRIC),
    _cfg(600, 4, AnglePolicy.GEOMETRIC),
    _cfg(40),
    _cfg(400, policy=AnglePolicy.GEOMETRIC),
]


def _edge_draws(cfg):
    ordinary = simulate.rng_stream(cfg.seed, 0).random(cfg.max_iterations - len(EDGE_PREFIX))
    return np.concatenate([EDGE_PREFIX, ordinary, np.full(simulate._BLOCK, 0.5)])


def _dense_row(cfg, i_m):
    theta = angles.policy_angles(cfg.two_j, cfg.target_two_mt, cfg.angle_policy)[i_m]
    return wigner.transition_probabilities(SpinSpec(cfg.two_j, 2 * i_m - cfg.two_j), theta)


def _dense_walk(cfg, draws):
    """The walk on dense rows, drawn by oracles.dense_draw: its steps as
    (two_m_before, two_m_after, reset), and whether it reached the target."""
    two_j, rerouted = cfg.two_j, cfg.rerouted()
    i_cur, steps = two_j, []
    for u in draws[:cfg.max_iterations]:
        i_next = dense_draw(_dense_row(cfg, i_cur), u)
        steps.append((2 * i_cur - two_j, 2 * i_next - two_j, bool(rerouted[i_next])))
        if i_next == cfg.target_index:
            return steps, True
        i_cur = two_j if rerouted[i_next] else i_next
    return steps, False


class _FixedDraws:
    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@pytest.mark.parametrize("engine", ["chain", "statevector"])
def test_edge_draws_match_the_dense_cumulative(monkeypatch, engine):
    name = simulate._SOURCES[engine]
    source = getattr(simulate.PolicyTables, name)
    fetched = []

    def recording(self, i_m):
        fetched.append(i_m)
        return source(self, i_m)

    for cfg in EDGE_CONFIGS:
        draws = _edge_draws(cfg)
        monkeypatch.setattr(
            simulate._BlockReader, "block",
            lambda self, index, b: draws[b * simulate._BLOCK:(b + 1) * simulate._BLOCK].copy(),
        )
        steps, reached = _dense_walk(cfg, draws)
        assert reached
        if cfg.two_j >= 400:  # a u == 0.0 step from a state whose chain window starts above 0
            tables = simulate.PolicyTables(cfg)
            assert any(
                after == -cfg.two_j and tables.cumulative((before + cfg.two_j) // 2)[0] > 0
                for before, after, _ in steps
            )
        rec = WALKS[engine](cfg, _FixedDraws(draws))
        assert [(s.two_m_before, s.two_m_after, s.reset) for s in rec.steps] == steps
        assert rec.succeeded
        # the batch's path shows in the states whose cumulatives it fetches
        fetched.clear()
        monkeypatch.setattr(simulate.PolicyTables, name, recording)
        its, ok = simulate.sample_iterations(cfg, 3, engine=engine)
        monkeypatch.setattr(simulate.PolicyTables, name, source)
        assert its.tolist() == [len(steps)] * 3 and ok.all()
        assert set(fetched) == {(before + cfg.two_j) // 2 for before, _, _ in steps}


def test_chain_engine_reaches_two_j_2_to_the_20():
    # 2000 runs at two_j = 2**20 under the sqrt_j reset, in a fresh process
    # so that its peak RSS is the sampler's; each row is kept on its
    # O(sqrt j) window (a dense cumulative per entered state needed about
    # 1.5 GB at two_j = 2**18)
    code = (
        "import json, resource\n"
        "from dickeprep import chain, simulate\n"
        "from dickeprep.core import ProtocolConfig, ResetPolicy\n"
        "cfg = ProtocolConfig(two_j=2**20, reset_policy=ResetPolicy(kind='sqrt_j'), seed=2020)\n"
        "its, ok = simulate.sample_iterations(cfg, 2000, engine='chain')\n"
        "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "exact = chain.expected_steps_for(2**20, 0, cfg.angle_policy, cfg.reset_policy).start_state_value\n"
        "print(json.dumps({'rss_mb': rss_mb, 'mean': its.mean(), 'se': its.std(ddof=1) / len(its) ** 0.5,\n"
        "                  'ok': bool(ok.all()), 'exact': exact}))\n"
    )
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["rss_mb"] < 500
    assert out["ok"]
    assert abs(out["mean"] - out["exact"]) < 4 * out["se"]


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


@pytest.mark.parametrize("engine", ["chain", "statevector"])
def test_summary_independent_of_chunking(monkeypatch, engine):
    cfg = _cfg(14, seed=31)
    baseline = simulate.summarize(cfg, 2_000, engine=engine)
    monkeypatch.setattr(simulate, "_CHUNK", 137)
    chunked = simulate.summarize(cfg, 2_000, engine=engine)
    assert baseline == chunked


def test_statevector_records_equal_trajectory_records():
    for cfg in WALK_CONFIGS:
        tables = simulate.PolicyTables(cfg)
        for i in range(60):
            rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables)
            assert simulate.run_statevector(cfg, simulate.rng_stream(cfg.seed, i), tables) == rec


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError, match="engine"):
        simulate.sample_iterations(_cfg(4), 10, engine="dense")


# ---------------------------------------------------------------------------
# the exact absorption-time law as the independent check of both engines

LAW_ALPHA = 1e-3  # chi-square significance, fixed before any run
LAW_RUNS = 20_000


def _merge_sparse(observed, expected, floor=5.0):
    """Pool consecutive bins until each pooled bin expects at least floor
    counts; a short remainder joins the last pooled bin."""
    obs, exp, o, e = [], [], 0, 0.0
    for ob, ex in zip(observed, expected):
        o, e = o + ob, e + ex
        if e >= floor:
            obs.append(o)
            exp.append(e)
            o, e = 0, 0.0
    obs[-1] += o
    exp[-1] += e
    return np.array(obs), np.array(exp)


def test_exact_law_oracle_is_consistent():
    # j = 1 under arcsin(m/j): every step rotates m = +-1 by pi/2 and lands
    # on m = 0 with probability 1/2
    built = chain.build_chain(_cfg(2))
    law = absorption_time_law(built.matrix, built.absorbing_index, built.size - 1, 40)
    assert np.allclose(law[1:], 0.5 ** np.arange(1, 41), rtol=0, atol=1e-15)
    for two_j, reset in ((16, "none"), (100, "sqrt_j")):
        built = chain.build_chain(_cfg(two_j, policy=AnglePolicy.GEOMETRIC, reset=reset))
        law = absorption_time_law(built.matrix, built.absorbing_index, built.size - 1, 4000)
        assert 1.0 - law.sum() < 1e-12
        mean = float(np.arange(len(law)) @ law)
        assert mean == pytest.approx(chain.expected_steps(built).start_state_value, rel=1e-9)


@pytest.mark.parametrize("engine", ["chain", "statevector"])
@pytest.mark.parametrize("reset", ["none", "sqrt_j"])
@pytest.mark.parametrize("two_j", [2, 16, 100])
def test_engine_histograms_follow_exact_law(two_j, reset, engine):
    cfg = _cfg(two_j, policy=AnglePolicy.GEOMETRIC, reset=reset, seed=1000 + two_j)
    built = chain.build_chain(cfg)
    cap = cfg.max_iterations
    law = absorption_time_law(built.matrix, built.absorbing_index, built.size - 1, cap)
    its, ok = simulate.sample_iterations(cfg, LAW_RUNS, engine=engine)
    # bins T = 1..cap, then "not absorbed within the cap"
    observed = np.append(np.bincount(its[ok], minlength=cap + 1)[1:], np.count_nonzero(~ok))
    expected = LAW_RUNS * np.append(law[1:], 1.0 - law.sum())
    obs, exp = _merge_sparse(observed, expected)
    assert len(obs) >= 2
    assert chisquare(obs, exp).pvalue > LAW_ALPHA
    exact_mean = chain.expected_steps(built).start_state_value
    std_error = its.std(ddof=1) / math.sqrt(LAW_RUNS)
    assert ok.all()
    assert abs(its.mean() - exact_mean) < 4 * std_error
