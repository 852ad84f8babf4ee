import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from dickeprep.core import AnglePolicy, NormDrift, OutOfRange, ProtocolConfig, ResetPolicy, SingularSystem, SpinSpec
from dickeprep import angles, chain, cli, simulate, wigner

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
# each engine label's batched sampler against its one-run walk
WALKS = {"chain": simulate.run_trajectory, "statevector": simulate.run_trajectory}
# the batched walk sorts its runs on their states, held in 8 bits below
# two_j = 256, 16 bits at 4096 and 32 bits at 2^16.  At 4096 under the
# sqrt_j reset one step holds most of the ~90 entered states.
BATCH_RUNS = [(cfg, 300) for cfg in WALK_CONFIGS] + [
    (_cfg(4096, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=25), 2000),
    (_cfg(2**16, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=25), 200),
]


def test_batch_equals_sequential_runs():
    for cfg, runs in BATCH_RUNS:
        for engine, walk in WALKS.items():
            its, ok = simulate.sample_iterations(cfg, runs, engine=engine)
            tables = simulate.PolicyTables(cfg)
            for i in range(runs):
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
        ref = simulate.rng_stream(seed, i).random(3 * simulate._BLOCK)
        blocks = [simulate._philox_block(seed, np.array([i]), b)[0] for b in (2, 0, 1)]
        assert np.array_equal(np.concatenate([blocks[1], blocks[2], blocks[0]]), ref)


@pytest.mark.parametrize("m", simulate._PHILOX_M, ids=hex)
def test_mulhilo_matches_integer_products(m):
    # the edge words of the 32-bit halves, then seeded random words
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = edges + np.random.default_rng(m % 1000).integers(0, 2**64, 500, dtype=np.uint64).tolist()
    hi, lo = simulate._mulhilo(m, np.array(words, dtype=np.uint64))
    assert hi.dtype == lo.dtype == np.uint64
    assert [(h << 64) | w for h, w in zip(hi.tolist(), lo.tolist())] == [m * x for x in words]


# the engine axes below hold one label: both labels name one walk
# (test_statevector_engine_matches_trajectory_law), and the axis keeps the ids
@pytest.mark.parametrize("engine", ["chain"])
def test_spin_half_both_engines(engine):
    cfg = ProtocolConfig(two_j=1, target_two_mt=-1, seed=4)
    stats = simulate.summarize(cfg, 4000, engine=engine)
    expected = chain.expected_steps_for(1, -1).start_state_value
    assert stats.success_rate == 1.0
    assert abs(stats.mean_iterations - expected) < 4 * stats.std_error


def test_sampler_fetches_only_entered_rows(monkeypatch):
    cfg = _cfg(400, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=17)
    fetched = []
    original = chain._checked_rows

    def counting(two_j, theta, states):
        fetched.extend(states.tolist())
        return original(two_j, theta, states)

    monkeypatch.setattr(chain, "_checked_rows", counting)
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
    # the two labels name one walk: the same arrays, bit for bit, so the
    # exact-law tests below cover both
    for cfg in WALK_CONFIGS:
        its_chain, ok_chain = simulate.sample_iterations(cfg, 2000, engine="chain")
        its_state, ok_state = simulate.sample_iterations(cfg, 2000, engine="statevector")
        assert np.array_equal(its_chain, its_state) and np.array_equal(ok_chain, ok_state)


def test_statevector_columns_match_outcome_distribution():
    cfg = _cfg(24, policy=AnglePolicy.GEOMETRIC)
    tables = simulate.PolicyTables(cfg)
    theta = angles.policy_angles(24, 0, AnglePolicy.GEOMETRIC)
    for i_m in (0, 5, 20, 24):
        if 2 * i_m - 24 == 0:
            continue
        col = tables.column(i_m)
        exact = rotation_oracle(24, theta[i_m])[:, i_m]
        assert np.max(np.abs(col - exact)) < 1e-10


def test_statevector_column_norm_is_checked(monkeypatch):
    d_column = wigner.d_column

    def drifted(spec, theta):
        column = d_column(spec, theta)
        return dataclasses.replace(column, amplitudes=column.amplitudes * (1.0 + 1e-8))  # norm off by 2e-8

    monkeypatch.setattr(wigner, "d_column", drifted)
    with pytest.raises(NormDrift, match="norm off by"):
        simulate.PolicyTables(_cfg(24, policy=AnglePolicy.GEOMETRIC)).column(5)


@pytest.mark.parametrize("policy", [AnglePolicy.GEOMETRIC, AnglePolicy.NUMERIC_OPTIMAL])
def test_policy_tables_reject_states_off_the_grid(policy):
    # cumulative(-1) raised IndexError, and a geometric fetch cached nan
    tables = simulate.PolicyTables(_cfg(24, policy=policy))
    for call in (lambda: tables.fetch([3, 25]), lambda: tables.cumulative(-1), lambda: tables.angle(25)):
        with pytest.raises(OutOfRange):
            call()
    assert not tables._rows


def test_run_trajectory_rejects_tables_of_another_config():
    # m_t = 0 tables walked towards m_t = 2 "succeeded" in one step
    cfg = _cfg(24, 4, policy=AnglePolicy.GEOMETRIC)
    tables = simulate.PolicyTables(_cfg(24, policy=AnglePolicy.GEOMETRIC))
    with pytest.raises(OutOfRange):
        simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, 0), tables)


def test_walk_builds_each_cumulative_once(monkeypatch):
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
        steps += simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables).iterations
    theta = angles.policy_angles(60, 0, AnglePolicy.GEOMETRIC)
    assert len(built) == len(tables._rows) < steps
    for i_m, (_, lo, cum) in tables._rows.items():
        row = wigner.transition_probabilities(SpinSpec(60, 2 * i_m - 60), theta[i_m])
        assert np.array_equal(cum, original(row)[lo:lo + len(cum)])


def test_chain_cumulative_is_the_dense_one_on_its_window():
    # inside the window the windowed cumulative equals the dense one bit for
    # bit; the dense one is 0.0 before the window and exactly 1.0 after it
    for cfg in WALK_CONFIGS:
        tables = simulate.PolicyTables(cfg)
        theta = angles.policy_angles(cfg.two_j, cfg.target_two_mt, cfg.angle_policy)
        n = cfg.two_j + 1
        for i_m in range(n):
            lo, cum = tables.cumulative(i_m)
            row = wigner.transition_probabilities(SpinSpec(cfg.two_j, 2 * i_m - cfg.two_j), theta[i_m])
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
    for engine in ("chain", "statevector"):
        with pytest.raises(SingularSystem, match="row sums"):
            simulate.sample_iterations(cfg, 10, engine=engine)
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
    two_j = cfg.two_j
    i_cur, steps = two_j, []
    for u in draws[:cfg.max_iterations]:
        i_next = dense_draw(_dense_row(cfg, i_cur), u)
        reset = bool(cfg.rerouted(i_next))
        steps.append((2 * i_cur - two_j, 2 * i_next - two_j, reset))
        if i_next == cfg.target_index:
            return steps, True
        i_cur = two_j if reset else i_next
    return steps, False


class _FixedDraws:
    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@pytest.mark.parametrize("engine", ["chain", "statevector"])
def test_edge_draws_match_the_dense_cumulative(monkeypatch, engine):
    source = chain._checked_rows
    fetched = []

    def recording(two_j, theta, states):
        fetched.extend(states.tolist())
        return source(two_j, theta, states)

    for cfg in EDGE_CONFIGS:
        draws = _edge_draws(cfg)
        monkeypatch.setattr(
            simulate, "_philox_block",
            lambda seed, indices, b: np.tile(draws[b * simulate._BLOCK:(b + 1) * simulate._BLOCK], (len(indices), 1)),
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
        monkeypatch.setattr(chain, "_checked_rows", recording)
        its, ok = simulate.sample_iterations(cfg, 3, engine=engine)
        monkeypatch.setattr(chain, "_checked_rows", source)
        assert its.tolist() == [len(steps)] * 3 and ok.all()
        assert set(fetched) == {(before + cfg.two_j) // 2 for before, _, _ in steps}


# the cache's stacked fetch against one-state fetches and the whole angle
# table, over every angle policy, every reset kind and a half-integer target
FETCH_CONFIGS = [
    _cfg(200, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j"),
    _cfg(64),
    _cfg(64, policy=AnglePolicy.NUMERIC_OPTIMAL, reset="sqrt_j"),
    ProtocolConfig(two_j=60, target_two_mt=4, reset_policy=ResetPolicy(kind="custom", threshold=4.0)),
    ProtocolConfig(two_j=24, target_two_mt=2, angle_policy=AnglePolicy.NUMERIC_OPTIMAL,
                   reset_policy=ResetPolicy(kind="custom", threshold=3.0)),
    _cfg(41, 1, AnglePolicy.GEOMETRIC),
    _cfg(17, 1, AnglePolicy.NUMERIC_OPTIMAL, reset="sqrt_j"),
]


@pytest.mark.parametrize(
    "cfg", FETCH_CONFIGS, ids=lambda c: f"{c.angle_policy}-{c.reset_policy.kind}-{c.two_j}-{c.target_two_mt}"
)
def test_stacked_fetch_gives_the_one_state_bits(cfg):
    table = angles.policy_angles(cfg.two_j, cfg.target_two_mt, cfg.angle_policy)
    sources = np.flatnonzero(np.arange(cfg.two_j + 1) != cfg.target_index)
    states = np.random.default_rng(cfg.two_j).permutation(sources)  # one stack, in no particular order
    stacked = simulate.PolicyTables(cfg)
    fetched = stacked.fetch(states)  # the rows of the states asked for, in their order
    alone = simulate.PolicyTables(cfg)
    for s, (angle, stacked_lo, stacked_cum) in zip(states.tolist(), fetched, strict=True):
        lo, cum = alone.cumulative(s)  # a one-state fetch
        assert angle.hex() == alone.angle(s).hex() == float(table[s]).hex()
        assert stacked_lo == lo and stacked_cum.tobytes() == cum.tobytes()
    assert len(stacked._rows) == len(alone._rows) == len(states)


def test_monte_carlo_fetches_angles_and_rows_per_entered_state(monkeypatch):
    # no walk asks for the whole angle table, and the batched sampler solves
    # the rows of the states its runs first stand on at a step in one call
    cfg = _cfg(200, policy=AnglePolicy.GEOMETRIC, reset="sqrt_j", seed=19)
    runs = 300
    table_calls, row_calls = [], []
    policy_angles, checked_rows = angles.policy_angles, chain._checked_rows

    def angles_recorded(two_j, two_mt, policy, states=None):
        table_calls.append(states is None)
        return policy_angles(two_j, two_mt, policy, states)

    def rows_recorded(two_j, theta, states):
        row_calls.append(states.tolist())
        return checked_rows(two_j, theta, states)

    monkeypatch.setattr(angles, "policy_angles", angles_recorded)
    monkeypatch.setattr(chain, "_checked_rows", rows_recorded)
    its, ok = simulate.sample_iterations(cfg, runs)
    batched_calls = row_calls[:]
    row_calls.clear()
    tables = simulate.PolicyTables(cfg)
    records = [simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables) for i in range(runs)]
    assert table_calls and not any(table_calls)
    assert all(len(states) == 1 for states in row_calls)
    # the step at which some run first stands on each state, from the one-run walks
    first = {}
    for rec in records:
        for k, step in enumerate(rec.steps):
            i_m = (step.two_m_before + cfg.two_j) // 2
            first[i_m] = min(first.get(i_m, k), k)
    assert runs <= simulate._CHUNK and ok.all()
    assert len(batched_calls) <= len(set(first.values()))
    fetched = [s for states in batched_calls for s in states]
    assert len(fetched) == len(set(fetched)) and set(fetched) == set(first)
    assert sorted(row_calls) == sorted([s] for s in first)
    # the row cache, not a grid mask, keeps a state from being solved twice
    # in one call: with a reset (above) and without one
    row_calls.clear()
    simulate.sample_iterations(_cfg(200, policy=AnglePolicy.GEOMETRIC, seed=19), runs)
    fetched = [s for states in row_calls for s in states]
    assert len(fetched) == len(set(fetched)) > 0


# SHA-256 of seeded outputs, recorded before the sampler fetched its angles
# and rows per entered state; a change of any draw changes them
PINNED_RUNS = {
    "geometric_sqrt_j_2048": (dict(two_j=2048, reset_policy=ResetPolicy(kind="sqrt_j"), seed=1901), 2000,
                              "c7d1a463dfabc07357d1a23892d6ab5df65c9126aa7cc7f9f21f3021d37def1b"),
    "numeric_optimal_sqrt_j_512": (dict(two_j=512, angle_policy=AnglePolicy.NUMERIC_OPTIMAL,
                                        reset_policy=ResetPolicy(kind="sqrt_j"), seed=1902), 1000,
                                   "32c7d26305fc5454d05ef8e1b89f93733dc0b8e005f40f49c2e4deb73b11e424"),
    "approx_mt0_none_64": (dict(two_j=64, angle_policy=AnglePolicy.APPROX_MT0, seed=1903), 1000,
                           "4453b7ccd15ffd6365f509dbafc1239a2aedec95ef496ce14dab2368e4f5c4ec"),
    "geometric_none_257_half": (dict(two_j=257, target_two_mt=1, seed=1904), 1000,
                                "b100080f3825e37b4db484d9fe96e094d71744e0f994d544bc93484ee9dcb279"),
}
PINNED_DUMP = "f067ae20bf5067d4c8577c1eda51103e5fef2ec3e8e4f076dc80936b0dab94d6"


@pytest.mark.parametrize("engine", ["chain", "statevector"])
@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_seeded_outputs_are_pinned(case, engine):
    kw, runs, digest = PINNED_RUNS[case]
    its, ok = simulate.sample_iterations(ProtocolConfig(**kw), runs, engine=engine)
    assert hashlib.sha256(its.tobytes() + ok.tobytes()).hexdigest() == digest


def test_trajectory_dump_is_pinned(tmp_path):
    # the whole file, header included: a new package version changes it too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"two_j": 64, "angle_policy": "geometric", "reset_policy": "sqrt_j", "seed": 1905}))
    dump = tmp_path / "traj.csv"
    rc = cli.main(["--no-timestamp", "simulate", "--config", str(cfg), "--runs", "200",
                   "--out", str(tmp_path / "stats.json"), "--dump-trajectories", str(dump)])
    assert rc == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == PINNED_DUMP


def test_numeric_optimal_walk_refines_only_visited_states(monkeypatch):
    # the whole numeric_optimal table at two_j = 8192 takes about 12 s; the
    # walk refines the states it stands on, at most |S| + 1 of them
    cfg = _cfg(8192, policy=AnglePolicy.NUMERIC_OPTIMAL, reset="sqrt_j", seed=8192)
    refined, fetched = [], []
    refine, checked_rows = angles._refine, chain._checked_rows

    def refine_recorded(two_j, two_mt, states):
        refined.extend(states.tolist())
        return refine(two_j, two_mt, states)

    def rows_recorded(two_j, theta, states):
        fetched.extend(states.tolist())
        return checked_rows(two_j, theta, states)

    monkeypatch.setattr(angles, "_refine", refine_recorded)
    monkeypatch.setattr(chain, "_checked_rows", rows_recorded)
    its, ok = simulate.sample_iterations(cfg, 2000)
    in_s = np.count_nonzero(~cfg.rerouted(np.arange(cfg.two_j + 1)))
    assert len(refined) <= len(fetched) <= in_s + 1
    # a state below the target is refined as its mirror
    assert set(refined) <= set(fetched) | {cfg.two_j - s for s in fetched}
    monkeypatch.undo()
    exact = chain.expected_steps_for(8192, 0, cfg.angle_policy, cfg.reset_policy).start_state_value
    assert ok.all()
    assert abs(its.mean() - exact) < 4 * its.std(ddof=1) / math.sqrt(len(its))


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
    rec = simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, 0))
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
    keep = np.arange(built.size) != built.config.target_index
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
    keep = np.arange(built.size) != built.config.target_index
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
    out = [simulate.summarize(cfg, 500) for cfg in cfgs]
    assert len(out) == 2
    assert simulate.summarize(cfgs[0], 500) == out[0]


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
            assert simulate.run_trajectory(cfg, simulate.rng_stream(cfg.seed, i), tables) == rec


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError, match="engine"):
        simulate.sample_iterations(_cfg(4), 10, engine="dense")
    with pytest.raises(OutOfRange, match="engine"):
        simulate.summarize(_cfg(4), 10, engine="Chain")


@pytest.mark.parametrize("n_runs", [0, -2, True, 2.5, "3"])
def test_bad_run_counts_are_rejected(n_runs):
    with pytest.raises(OutOfRange, match="n_runs"):
        simulate.sample_iterations(_cfg(4), n_runs)


# ---------------------------------------------------------------------------
# the exact absorption-time law as the independent check of the walk

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
    law = absorption_time_law(built.matrix, built.config.target_index, built.size - 1, 40)
    assert np.allclose(law[1:], 0.5 ** np.arange(1, 41), rtol=0, atol=1e-15)
    for two_j, reset in ((16, "none"), (100, "sqrt_j")):
        built = chain.build_chain(_cfg(two_j, policy=AnglePolicy.GEOMETRIC, reset=reset))
        law = absorption_time_law(built.matrix, built.config.target_index, built.size - 1, 4000)
        assert 1.0 - law.sum() < 1e-12
        mean = float(np.arange(len(law)) @ law)
        assert mean == pytest.approx(chain.expected_steps(built).start_state_value, rel=1e-9)


def _assert_sample_follows(cfg, law, exact_mean, engine="chain"):
    """LAW_RUNS runs of cfg against the absorption-time law on k = 0..cap:
    chi-square at LAW_ALPHA, every run absorbed, mean within 4 SE."""
    cap = cfg.max_iterations
    its, ok = simulate.sample_iterations(cfg, LAW_RUNS, engine=engine)
    # bins T = 1..cap, then "not absorbed within the cap"
    observed = np.append(np.bincount(its[ok], minlength=cap + 1)[1:], np.count_nonzero(~ok))
    expected = LAW_RUNS * np.append(law[1:], 1.0 - law.sum())
    obs, exp = _merge_sparse(observed, expected)
    assert len(obs) >= 2
    assert chisquare(obs, exp).pvalue > LAW_ALPHA
    std_error = its.std(ddof=1) / math.sqrt(LAW_RUNS)
    assert ok.all()
    assert abs(its.mean() - exact_mean) < 4 * std_error


@pytest.mark.parametrize("engine", ["chain"])
@pytest.mark.parametrize("reset", ["none", "sqrt_j"])
@pytest.mark.parametrize("two_j", [2, 16, 100])
def test_engine_histograms_follow_exact_law(two_j, reset, engine):
    cfg = _cfg(two_j, policy=AnglePolicy.GEOMETRIC, reset=reset, seed=1000 + two_j)
    built = chain.build_chain(cfg)
    law = absorption_time_law(built.matrix, built.config.target_index, built.size - 1, cfg.max_iterations)
    _assert_sample_follows(cfg, law, chain.expected_steps(built).start_state_value, engine)


def _expm_matrix(cfg):
    """The protocol's transition matrix from dense matrix exponentials: row
    i holds the squares of column i of exp(-i theta_i J_y), the mass measured
    at rerouted states moves to m = j, and the target absorbs."""
    theta = angles.policy_angles(cfg.two_j, cfg.target_two_mt, cfg.angle_policy)
    n = cfg.two_j + 1
    matrix = np.array([rotation_oracle(cfg.two_j, theta[i])[:, i] ** 2 for i in range(n)])
    rerouted = cfg.rerouted(np.arange(n))
    moved = matrix[:, rerouted].sum(axis=1)
    matrix[:, rerouted] = 0.0
    matrix[:, -1] += moved
    matrix[cfg.target_index] = np.arange(n) == cfg.target_index
    return matrix


# m_t = 0 on every policy, then off-centre and half-integer targets, where
# the law from m = j differs from the law from m = -j (at m_t = 0 the mirror
# symmetry makes them equal, so a reset routed to the wrong end would pass)
EXPM_CASES = [
    (policy, reset, two_j, 0)
    for policy in (AnglePolicy.APPROX_MT0, AnglePolicy.GEOMETRIC, AnglePolicy.NUMERIC_OPTIMAL)
    for reset in ("none", "sqrt_j")
    for two_j in (2, 16, 40)
    if policy is not AnglePolicy.NUMERIC_OPTIMAL or two_j <= 16
] + [
    (policy, reset, two_j, two_mt)
    for policy, two_j, two_mt in (
        (AnglePolicy.GEOMETRIC, 16, 4),
        (AnglePolicy.GEOMETRIC, 40, 4),
        (AnglePolicy.GEOMETRIC, 17, 1),
        (AnglePolicy.NUMERIC_OPTIMAL, 16, 4),
    )
    for reset in ("none", "sqrt_j")
]


@pytest.mark.parametrize("policy,reset,two_j,two_mt", EXPM_CASES)
def test_walk_follows_the_dense_expm_law(policy, reset, two_j, two_mt):
    # the chain and the walk against a law that shares none of their code
    # past the angle table: rows from dense expm, routing and absorption
    # written out here, mean from a dense solve of (I - Q) t = 1
    cfg = _cfg(two_j, two_mt, policy=policy, reset=reset, seed=17000 + two_j)
    expm = _expm_matrix(cfg)
    start, i_t, cap = cfg.two_j, cfg.target_index, cfg.max_iterations
    law = absorption_time_law(expm, i_t, start, cap)
    built = chain.build_chain(cfg)
    assert np.max(np.abs(absorption_time_law(built.matrix, i_t, start, cap) - law)) < 1e-12
    keep = np.arange(two_j + 1) != i_t
    t = np.linalg.solve(np.eye(two_j) - expm[np.ix_(keep, keep)], np.ones(two_j))
    _assert_sample_follows(cfg, law, float(t[-1]))
