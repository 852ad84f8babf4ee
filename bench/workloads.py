"""The four benchmark workloads, driven through dickeprep's public API.

A workload is built from a seed (``make``), then run in rounds: one round
is one pass over the workload's operations, the same operations every
round, and is the unit that ``wall_s`` and ``cpu_s`` time.  ``run_round``
holds only calls into the program, so it is the timed phase.  ``check``
verifies a round's output against ``oracles`` and returns
(message, failed operation indices) pairs; ``program_failures`` names
operations the program itself reports as failed.

Every call into the package goes through a module attribute
(``chain.expected_steps_for``, not a bound name), so the tracer in
``tracing`` can wrap it.

Input sizes: each round takes about 1-3 s on one core of a shared 2-core
Xeon machine, so a 24 s run holds 8-25 rounds.  On that machine the
speed of a core drifts by +-10% within seconds; in one alternating
comparison of six runs each, the median of many short rounds spread half
as much as the median of a few long ones (6.5% against 12% quartile
spread of wall_s).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from dickeprep import angles, chain, cli, simulate
from dickeprep.core import AnglePolicy, ProtocolConfig, ResetPolicy

import oracles

SQRT_J = ResetPolicy(kind=ResetPolicy.SQRT_J)
NO_RESET = ResetPolicy()
SAMPLED_STATES = 2  # seeded Bellman / angle check states per chain, besides the start state


def _sample_states(rng: np.random.Generator, two_j: int, two_mt: int, k: int) -> list[int]:
    """The start state m = j and k distinct other non-target states."""
    others = [tm for tm in range(-two_j, two_j, 2) if tm != two_mt]
    picked = rng.choice(len(others), size=min(k, len(others)), replace=False)
    return [two_j] + [others[p] for p in sorted(picked)]


class ResetLadder:
    """Exact expected steps on a doubling ladder of two_j, target m_t = 0,
    sqrt_j reset; one operation per rung."""

    SMALL_MAX = 64  # rungs up to this size are checked against the dense-expm chain

    def __init__(self, seed: int, policy: str, two_js: tuple[int, ...]):
        rng = np.random.default_rng(seed)
        self.policy = policy
        self.two_js = two_js
        self.states = {tj: _sample_states(rng, tj, 0, SAMPLED_STATES) for tj in two_js}
        self.ops = len(two_js)

    def run_round(self):
        return [
            chain.expected_steps_for(tj, 0, self.policy, SQRT_J).expected_steps_from
            for tj in self.two_js
        ]

    @staticmethod
    def same(a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def program_failures(self, out) -> set:
        return set()

    def angle_of(self, two_j: int, two_m: int, ops: set) -> tuple[float, list]:
        """The angle the chain applies at two_m, and what checking it found."""
        return oracles.geometric_angle(two_j, 0, two_m), []

    def check(self, out):
        found = oracles.check_ladder(self.two_js, [float(e[-1]) for e in out])
        for op, (tj, e) in enumerate(zip(self.two_js, out)):
            if self.policy == AnglePolicy.GEOMETRIC and tj <= self.SMALL_MAX:
                found += oracles.check_small_chain(e, tj, 0, True, {op})
            pairs = []
            for two_m in self.states[tj]:
                theta, angle_found = self.angle_of(tj, two_m, {op})
                found += angle_found
                pairs.append((two_m, theta))
            found += oracles.check_bellman(e, tj, 0, True, pairs, {op})
        return found


class OptimalLadder(ResetLadder):
    """ResetLadder under numeric_optimal angles.  The angle at each checked
    state comes from the public single-state optimizer, which the check
    holds to the oracle: no worse than the geometric angle, a local maximum."""

    def angle_of(self, two_j: int, two_m: int, ops: set):
        res = angles.optimal_angle(two_j, 0, two_m)
        theta = res.angle.radians
        return theta, oracles.check_optimal_angle(two_j, 0, two_m, theta, res.overlap_probability, ops)


class Sweep:
    """The fig2d figure job through the CLI layer: no reset, geometric
    angles, every target m_t = 0..j; one operation per CSV row."""

    TWO_J = 200

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.job = cli.FigureJob("fig2d", {"two_j_list": str(self.TWO_J)}, out_dir)
        targets = list(range(0, self.TWO_J, 2))  # m_t = j is checked as a property
        picked = rng.choice(len(targets), size=SAMPLED_STATES, replace=False)
        self.checked = {targets[p]: _sample_states(rng, self.TWO_J, targets[p], SAMPLED_STATES) for p in sorted(picked)}
        self.ops = self.TWO_J // 2 + 1

    def run_round(self):
        (path,) = cli.run_figure_job(self.job, no_timestamp=True, seed=self.seed)
        return Path(path).read_text()

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def program_failures(self, out) -> set:
        return set()

    def check(self, out):
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        reader = csv.reader(lines)
        if next(reader) != ["two_j", "two_mt", "expected_steps"]:
            return [("fig2d CSV header changed", set(range(self.ops)))]
        rows = [(int(a), int(b), float(c)) for a, b, c in reader]
        found = oracles.check_sweep(rows, self.TWO_J)
        if found:
            return found
        for two_mt, states in self.checked.items():
            op = two_mt // 2
            e = chain.expected_steps_for(self.TWO_J, two_mt, AnglePolicy.GEOMETRIC, NO_RESET).expected_steps_from
            if float(e[-1]) != rows[op][2]:
                found.append((f"two_mt={two_mt}: CSV {rows[op][2]!r}, library {float(e[-1])!r}", {op}))
            pairs = [(tm, oracles.geometric_angle(self.TWO_J, two_mt, tm)) for tm in states]
            found += oracles.check_bellman(e, self.TWO_J, two_mt, False, pairs, {op})
        return found


class MonteCarlo:
    """Chain-engine runs with the sqrt_j reset, then statevector-engine runs
    without reset, both at two_j = 2048; one operation per trajectory.

    The chain engine's streams come from the seed.  The statevector runs use
    one fixed stream key: their cost is one Chebyshev propagation,
    O(|theta| j^2), per distinct state visited, and without reset a few
    far states with large angles dominate it, so 200 runs cost 1.1-3.0 s
    depending on the draw.  The 8192 chain-engine runs fill exactly one
    batch chunk, which sets the engine's peak memory.  A fixed draw keeps that work the same in every
    run, so wall_s measures the code rather than the draw.
    """

    TWO_J = 2048
    CHAIN_RUNS = 8192
    STATEVECTOR_RUNS = 50
    STATEVECTOR_SEED = 0
    LOOPED = 64  # chain-engine runs replayed one by one through run_trajectory

    def __init__(self, seed: int):
        self.chain_cfg = ProtocolConfig(two_j=self.TWO_J, reset_policy=SQRT_J, seed=seed)
        self.sv_cfg = ProtocolConfig(two_j=self.TWO_J, reset_policy=NO_RESET, seed=self.STATEVECTOR_SEED)
        self.ops = self.CHAIN_RUNS + self.STATEVECTOR_RUNS

    def run_round(self):
        return (
            simulate.sample_iterations(self.chain_cfg, self.CHAIN_RUNS, engine="chain"),
            simulate.sample_iterations(self.sv_cfg, self.STATEVECTOR_RUNS, engine="statevector"),
        )

    @staticmethod
    def same(a, b) -> bool:
        return all(np.array_equal(x, y) for pa, pb in zip(a, b) for x, y in zip(pa, pb))

    def program_failures(self, out) -> set:
        (_, ok_c), (_, ok_s) = out
        return set(np.flatnonzero(~ok_c).tolist()) | set((self.CHAIN_RUNS + np.flatnonzero(~ok_s)).tolist())

    def check(self, out):
        (its_c, ok_c), (its_s, _) = out
        chain_ops = set(range(self.CHAIN_RUNS))
        sv_ops = set(range(self.CHAIN_RUNS, self.ops))
        found = []
        for cfg, its, ops, label, reset in (
            (self.chain_cfg, its_c, chain_ops, "chain engine", True),
            (self.sv_cfg, its_s, sv_ops, "statevector engine", False),
        ):
            e = chain.expected_steps_for(self.TWO_J, 0, AnglePolicy.GEOMETRIC, cfg.reset_policy).expected_steps_from
            start = [(self.TWO_J, oracles.geometric_angle(self.TWO_J, 0, self.TWO_J))]
            found += oracles.check_bellman(e, self.TWO_J, 0, reset, start, ops)
            found += oracles.check_monte_carlo_mean(its, float(e[-1]), label, ops)
        tables = simulate.PolicyTables(self.chain_cfg)
        looped = []
        for i in range(self.LOOPED):
            rec = simulate.run_trajectory(self.chain_cfg, simulate.rng_stream(self.chain_cfg.seed, i), tables)
            looped.append((rec.iterations, rec.succeeded))
        found += oracles.check_equal_runs(its_c, ok_c, looped, "chain engine", chain_ops)
        return found


WORKLOADS = ("exact_reset", "optimal_reset", "sweep_noreset", "montecarlo")


def make(name: str, seed: int, scratch: Path):
    if name == "exact_reset":
        return ResetLadder(seed, AnglePolicy.GEOMETRIC, tuple(64 << k for k in range(6)))  # 64..2048
    if name == "optimal_reset":
        return OptimalLadder(seed, AnglePolicy.NUMERIC_OPTIMAL, tuple(64 << k for k in range(4)))  # 64..512
    if name == "sweep_noreset":
        return Sweep(seed, scratch)
    if name == "montecarlo":
        return MonteCarlo(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
