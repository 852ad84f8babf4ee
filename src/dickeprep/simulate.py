"""Monte Carlo sampling of the measurement-feedback protocol.

Two engines cross-validate the Markov-chain abstraction:

* the chain engine samples measurement outcomes directly from the cached
  per-state outcome distributions (the chain's rows);
* the statevector engine maintains the full symmetric-subspace state,
  applies the orthogonal rotation to it, and samples from the squared
  amplitudes before collapsing.

Both engines consume per-trajectory Philox streams keyed by
(base_seed, trajectory_index), so results are reproducible and independent
of batching or worker count.  Within a trajectory, the k-th step consumes
the k-th draw of its stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    NormDrift,
    ProtocolConfig,
    SpinSpec,
)
from . import angles as angles_mod
from . import wigner

_BLOCK = 32            # uniforms drawn per trajectory per refill
_CHUNK = 8192          # trajectories stepped together in the batch sampler


def _stream_key(base_seed: int, index: int) -> np.ndarray:
    return np.array([np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])


def rng_stream(base_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory: Philox keyed on (seed, index)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(base_seed, index)))


class _BlockReader:
    """Draws rng_stream(seed, i)'s b-th block of _BLOCK uniforms from one
    reused Philox: a uniform takes one 64-bit output, four per counter
    step, so the block starts at counter _BLOCK / 4 * b with an empty
    buffer (the counter is incremented before each step)."""

    def __init__(self, base_seed: int):
        self.base_seed = base_seed
        self.bits = np.random.Philox(key=_stream_key(base_seed, 0))
        self.gen = np.random.Generator(self.bits)
        self.state = self.bits.state

    def block(self, index: int, b: int) -> np.ndarray:
        st = self.state
        st["state"]["key"] = _stream_key(self.base_seed, index)
        st["state"]["counter"] = np.array([_BLOCK // 4 * b, 0, 0, 0], dtype=np.uint64)
        st["buffer_pos"] = 4
        self.bits.state = st
        return self.gen.random(_BLOCK)


class TrajectoryStep(NamedTuple):
    two_m_before: int
    angle: float
    two_m_after: int   # the measured outcome, before any reset
    reset: bool


@dataclass(frozen=True)
class TrajectoryRecord:
    """One protocol run: the (state, angle, outcome, reset) sequence."""

    config: ProtocolConfig
    steps: tuple[TrajectoryStep, ...]
    iterations: int
    succeeded: bool


@dataclass(frozen=True)
class SymmetricState:
    """Real state vector over the |j, m> basis; unit norm within 1e-9."""

    two_j: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        norm_dev = abs(float(self.amplitudes @ self.amplitudes) - 1.0)
        if norm_dev > 1e-9:
            raise NormDrift(f"symmetric state norm off by {norm_dev:.3e}")


class PolicyTables:
    """Per-config cache: rotation angle, outcome row and its cumulative,
    per source state.  Write-once per state, safe for concurrent reads."""

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.two_j = config.two_j
        self.angles = angles_mod.policy_angles(
            config.two_j, config.target_two_mt, config.angle_policy
        )
        self._rows: dict[int, np.ndarray] = {}
        self._cums: dict[int, np.ndarray] = {}
        self._columns: dict[int, np.ndarray] = {}
        self._column_cums: dict[int, np.ndarray] = {}

    def row(self, i_m: int) -> np.ndarray:
        cached = self._rows.get(i_m)
        if cached is None:
            spec = SpinSpec(self.two_j, 2 * i_m - self.two_j)
            cached = wigner.transition_probabilities(spec, self.angles[i_m])
            self._rows[i_m] = cached
        return cached

    def cumulative(self, i_m: int) -> np.ndarray:
        cached = self._cums.get(i_m)
        if cached is None:
            cached = _normalized_cumulative(self.row(i_m))
            self._cums[i_m] = cached
        return cached

    def column(self, i_m: int) -> np.ndarray:
        """Rotated basis column (signed amplitudes) for the statevector engine.

        Built once per state: its norm is checked (NormDrift beyond 1e-8,
        then SymmetricState's 1e-9) and the cumulative of its squares is
        stored with it.
        """
        cached = self._columns.get(i_m)
        if cached is None:
            spec = SpinSpec(self.two_j, 2 * i_m - self.two_j)
            cached = wigner.d_column(spec, self.angles[i_m]).amplitudes
            norm_dev = abs(float(cached @ cached) - 1.0)
            if norm_dev > 1e-8:
                raise NormDrift(f"statevector norm drifted by {norm_dev:.3e}")
            SymmetricState(two_j=self.two_j, amplitudes=cached)
            self._column_cums[i_m] = _normalized_cumulative(cached**2)
            self._columns[i_m] = cached
        return cached

    def column_cumulative(self, i_m: int) -> np.ndarray:
        """Cumulative outcome distribution of column(i_m)."""
        cached = self._column_cums.get(i_m)
        if cached is None:
            self.column(i_m)
            cached = self._column_cums[i_m]
        return cached


def _normalized_cumulative(row: np.ndarray) -> np.ndarray:
    # extended-precision cumulative, normalized so the last entry is exactly 1
    cum = np.cumsum(row.astype(np.longdouble))
    cum /= cum[-1]
    return cum.astype(np.float64)


def _draw(cum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cum, u, side="left"))
    return min(idx, len(cum) - 1)


def run_trajectory(
    config: ProtocolConfig,
    rng: np.random.Generator,
    tables: PolicyTables | None = None,
) -> TrajectoryRecord:
    """Sample one protocol run; terminates at the target or max_iterations."""
    tables = tables if tables is not None else PolicyTables(config)
    two_j = config.two_j
    i_t = config.target_index
    i_cur = two_j  # start from m = j
    steps: list[TrajectoryStep] = []
    succeeded = i_cur == i_t
    while not succeeded and len(steps) < config.max_iterations:
        u = float(rng.random())
        i_next = _draw(tables.cumulative(i_cur), u)
        two_m_next = 2 * i_next - two_j
        reset = False
        if i_next == i_t:
            succeeded = True
        elif config.reset_policy.triggers(two_j, two_m_next):
            reset = True
        steps.append(
            TrajectoryStep(
                two_m_before=2 * i_cur - two_j,
                angle=float(tables.angles[i_cur]),
                two_m_after=two_m_next,
                reset=reset,
            )
        )
        i_cur = two_j if reset else i_next
    return TrajectoryRecord(
        config=config, steps=tuple(steps), iterations=len(steps), succeeded=succeeded
    )


def run_statevector(
    config: ProtocolConfig,
    rng: np.random.Generator,
    tables: PolicyTables | None = None,
) -> TrajectoryRecord:
    """Sample one run while maintaining the full symmetric-subspace state.

    Each iteration rotates the current state by the policy angle (an
    orthogonal map; PolicyTables checks each rotated column's norm when it
    first builds it) and projectively measures J_z,
    collapsing to a basis vector; the visited-m process has the same law
    as run_trajectory's.
    """
    tables = tables if tables is not None else PolicyTables(config)
    two_j = config.two_j
    i_t = config.target_index
    i_cur = two_j
    steps: list[TrajectoryStep] = []
    succeeded = i_cur == i_t
    while not succeeded and len(steps) < config.max_iterations:
        # pre-measurement state: the rotated basis vector, sampled by its squares
        u = float(rng.random())
        i_next = _draw(tables.column_cumulative(i_cur), u)
        two_m_next = 2 * i_next - two_j
        reset = False
        if i_next == i_t:
            succeeded = True
        elif config.reset_policy.triggers(two_j, two_m_next):
            reset = True
        steps.append(
            TrajectoryStep(
                two_m_before=2 * i_cur - two_j,
                angle=float(tables.angles[i_cur]),
                two_m_after=two_m_next,
                reset=reset,
            )
        )
        # post-measurement collapse to |j, m'> (then optional reset to |j, j>)
        i_cur = two_j if reset else i_next
    return TrajectoryRecord(
        config=config, steps=tuple(steps), iterations=len(steps), succeeded=succeeded
    )


# ---------------------------------------------------------------------------
# batched sampling and summaries


def sample_iterations(
    config: ProtocolConfig,
    n_runs: int,
    engine: str = "chain",
) -> tuple[np.ndarray, np.ndarray]:
    """Iteration counts and success flags for n_runs independent runs.

    The chain engine is vectorized in chunks; trajectory i always consumes
    draws from rng_stream(config.seed, i) in step order, so the result is
    identical to looping run_trajectory over i (tested), and independent of
    chunking.  Each step groups the active trajectories by state and draws
    with the same searchsorted rule as run_trajectory, so a cumulative row
    is fetched only for a state some trajectory stands on.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if engine == "statevector":
        tables = PolicyTables(config)
        its = np.empty(n_runs, dtype=np.int64)
        ok = np.empty(n_runs, dtype=bool)
        for i in range(n_runs):
            rec = run_statevector(config, rng_stream(config.seed, i), tables)
            its[i] = rec.iterations
            ok[i] = rec.succeeded
        return its, ok
    if engine != "chain":
        raise ValueError(f"unknown engine {engine!r}")

    tables = PolicyTables(config)
    two_j = config.two_j
    i_t = config.target_index
    max_iters = config.max_iterations
    reset_to_start = config.reset_policy.mask(two_j)
    reset_to_start[i_t] = False  # absorption wins over reset
    cums: dict[int, np.ndarray] = {}  # rows of the states some trajectory stood on
    streams = _BlockReader(config.seed)

    iterations = np.zeros(n_runs, dtype=np.int64)
    succeeded = np.zeros(n_runs, dtype=bool)
    for lo in range(0, n_runs, _CHUNK):
        hi = min(lo + _CHUNK, n_runs)
        size = hi - lo
        cur = np.full(size, two_j, dtype=np.int64)
        done = np.zeros(size, dtype=bool)
        iters = np.zeros(size, dtype=np.int64)
        if i_t == two_j:
            done[:] = True
        step = 0
        while not done.all() and step < max_iters:
            if step % _BLOCK == 0:
                block = np.empty((size, _BLOCK))
                for k in np.flatnonzero(~done).tolist():
                    block[k] = streams.block(lo + k, step // _BLOCK)
            idx_active = np.flatnonzero(~done)
            u = block[idx_active, step % _BLOCK]
            src = cur[idx_active]
            # group the active trajectories by state; draw each group from its row
            order = np.argsort(src, kind="stable")
            states, starts = np.unique(src[order], return_index=True)
            nxt = np.empty_like(src)
            for s, group in zip(states.tolist(), np.split(order, starts[1:])):
                cum = cums.get(s)
                if cum is None:
                    cum = cums[s] = tables.cumulative(s)
                nxt[group] = np.searchsorted(cum, u[group], side="left")
            np.clip(nxt, 0, two_j, out=nxt)
            hit = nxt == i_t
            resetting = reset_to_start[nxt] & ~hit
            nxt[resetting] = two_j
            iters[idx_active] += 1
            cur[idx_active] = nxt
            done[idx_active[hit]] = True
            step += 1
        iterations[lo:hi] = iters
        succeeded[lo:hi] = done
    return iterations, succeeded


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate statistics of many protocol runs."""

    config: ProtocolConfig
    engine: str
    n_runs: int
    mean_iterations: float
    variance: float
    std_error: float
    success_rate: float
    histogram: dict[int, int]


def summarize(config: ProtocolConfig, n_runs: int, engine: str = "chain") -> SummaryStats:
    its, ok = sample_iterations(config, n_runs, engine=engine)
    mean = float(its.mean())
    var = float(its.var(ddof=1)) if n_runs > 1 else 0.0
    counts = np.bincount(its)
    hist = {int(v): int(c) for v, c in enumerate(counts) if c > 0}
    return SummaryStats(
        config=config,
        engine=engine,
        n_runs=n_runs,
        mean_iterations=mean,
        variance=var,
        std_error=float(np.sqrt(var / n_runs)) if n_runs > 1 else 0.0,
        success_rate=float(ok.mean()),
        histogram=hist,
    )


def monte_carlo_summary(
    configs: ProtocolConfig | Sequence[ProtocolConfig],
    n_runs: int,
    engine: str = "chain",
) -> list[SummaryStats]:
    """Summaries for one or several configurations.

    Deterministic given (seed, n_runs) for each config, regardless of how
    the work is chunked or scheduled.
    """
    if isinstance(configs, ProtocolConfig):
        configs = [configs]
    return [summarize(cfg, n_runs, engine=engine) for cfg in configs]
