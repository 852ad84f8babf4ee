"""Monte Carlo sampling of the measurement-feedback protocol.

The measured m performs one Markov walk: the outcome m' is drawn by
inverse CDF from the current state's cumulative outcome distribution, the
target absorbs, and an outcome the reset policy reroutes returns the
register to m = j within the same step.  The walk is written once, as a
recording one-run walk (run_trajectory, run_statevector) and as a batched
sampler (sample_iterations), parameterised only by its cumulative source,
a pair (lo, cum) with the outcome lo + searchsorted(cum, u).  The chain
engine reads the rows the chain solve reads (chain._checked_rows, each row
checked to sum to 1, on its O(sqrt j) window under the sqrt_j reset), so
its memory does not grow with j times the states visited.  The
statevector engine rotates the basis state by the policy angle and samples
the squares of the norm-checked rotated column over the whole grid
(lo = 0) before collapsing.  Both sources come from one O(j) kernel and
draw the same outcomes bit for bit, so the engines do not check each
other; the independent check is the chain's exact absorption-time law
Pr[T = k] = e_start Q^(k-1) r (Kemeny & Snell, 1960), held against both
engines' histograms in the tests.

Every run consumes a per-trajectory Philox stream keyed by
(base_seed, trajectory_index), so results are reproducible and independent
of batching or worker count.  Within a trajectory, the k-th step consumes
the k-th draw of its stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import NormDrift, ProtocolConfig, SpinSpec
from . import angles as angles_mod
from . import chain
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
    """Per-config cache: rotation angle and rerouted states, and the
    cumulative outcome distribution of each source state as (lo, cum),
    built on first use.  Write-once per state, safe for concurrent reads.

    The outcome of a uniform u in (0, 1) is lo + searchsorted(cum, u,
    "left").  That is the searchsorted of the dense cumulative, which holds
    0.0 before lo, cum inside the window (adding zeros in the long-double
    sum is exact) and exactly 1.0 after it, so no draw lands past the
    window.  The one draw where they differ is u == 0.0, which the dense
    cumulative maps to index 0; both walks map it there too.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.two_j = config.two_j
        self.angles = angles_mod.policy_angles(
            config.two_j, config.target_two_mt, config.angle_policy
        )
        self.rerouted = config.rerouted()
        self._cums: dict[int, tuple[int, np.ndarray]] = {}
        self._column_cums: dict[int, tuple[int, np.ndarray]] = {}

    def cumulative(self, i_m: int) -> tuple[int, np.ndarray]:
        """(lo, cum) for the chain's row of source state i_m, the chain
        engine's outcome source: the row comes from the chain's checked rows
        on its window [lo, hi) (chain._checked_rows, which raises
        SingularSystem on a row that does not sum to 1), and cum is the
        cumulative of its window values only.  O(window), not O(j)."""
        cached = self._cums.get(i_m)
        if cached is None:
            ((_, stack),) = chain._checked_rows(self.two_j, self.angles, np.array([i_m]))
            cached = self._cums[i_m] = (int(stack.lo[0]), _normalized_cumulative(stack.values))
        return cached

    def column(self, i_m: int) -> np.ndarray:
        """Rotated basis column (signed amplitudes) for the statevector engine.

        Its norm is checked by SymmetricState: NormDrift beyond 1e-9.
        """
        spec = SpinSpec(self.two_j, 2 * i_m - self.two_j)
        column = wigner.d_column(spec, self.angles[i_m]).amplitudes
        SymmetricState(two_j=self.two_j, amplitudes=column)
        return column

    def column_cumulative(self, i_m: int) -> tuple[int, np.ndarray]:
        """(0, cum) with cum the cumulative of the squares of column(i_m)
        over the whole grid, built once per state: the statevector engine's
        outcome source."""
        cached = self._column_cums.get(i_m)
        if cached is None:
            cached = self._column_cums[i_m] = (0, _normalized_cumulative(self.column(i_m) ** 2))
        return cached


# the PolicyTables method each engine draws its outcomes from, looked up on
# the instance at call time so that a method replaced on the class is used
_SOURCES = {"chain": "cumulative", "statevector": "column_cumulative"}


def _normalized_cumulative(row: np.ndarray) -> np.ndarray:
    # extended-precision cumulative, normalized so the last entry is exactly 1
    cum = np.cumsum(row.astype(np.longdouble))
    cum /= cum[-1]
    return cum.astype(np.float64)


def _walk(
    config: ProtocolConfig, rng: np.random.Generator, tables: PolicyTables | None, engine: str
) -> TrajectoryRecord:
    """One recorded run from m = j; terminates at the target or max_iterations.

    Each step draws u from rng, takes the outcome from the current state's
    (lo, cum) in the engine's source (see PolicyTables), and returns to
    m = j within the same step if the outcome is rerouted (never the target).
    """
    tables = tables if tables is not None else PolicyTables(config)
    source = getattr(tables, _SOURCES[engine])
    two_j = config.two_j
    i_t = config.target_index
    i_cur = two_j  # start from m = j
    steps: list[TrajectoryStep] = []
    succeeded = i_cur == i_t
    while not succeeded and len(steps) < config.max_iterations:
        u = float(rng.random())
        lo, cum = source(i_cur)
        i_next = lo + int(cum.searchsorted(u, side="left")) if u > 0.0 else 0
        reset = bool(tables.rerouted[i_next])
        angle = float(tables.angles[i_cur])
        steps.append(TrajectoryStep(2 * i_cur - two_j, angle, 2 * i_next - two_j, reset))
        succeeded = i_next == i_t
        i_cur = two_j if reset else i_next
    return TrajectoryRecord(
        config=config, steps=tuple(steps), iterations=len(steps), succeeded=succeeded
    )


def run_trajectory(
    config: ProtocolConfig,
    rng: np.random.Generator,
    tables: PolicyTables | None = None,
) -> TrajectoryRecord:
    """Sample one protocol run from the chain's outcome rows; terminates at
    the target or max_iterations."""
    return _walk(config, rng, tables, "chain")


def run_statevector(
    config: ProtocolConfig,
    rng: np.random.Generator,
    tables: PolicyTables | None = None,
) -> TrajectoryRecord:
    """Sample one run by rotating and measuring the symmetric-subspace state.

    Each iteration rotates the current basis state |j, m> by the policy
    angle (an orthogonal map; PolicyTables checks each rotated column's
    norm when it first builds it), projectively measures J_z by sampling
    the column's squared amplitudes, and collapses to the outcome |j, m'>
    (then to |j, j> on a reset).  The walk is run_trajectory's; only the
    cumulative it draws from differs, and since the squared columns equal
    the chain rows bit for bit, so do the records.
    """
    return _walk(config, rng, tables, "statevector")


# ---------------------------------------------------------------------------
# batched sampling and summaries


def sample_iterations(
    config: ProtocolConfig,
    n_runs: int,
    engine: str = "chain",
) -> tuple[np.ndarray, np.ndarray]:
    """Iteration counts and success flags for n_runs independent runs.

    Both engines are vectorized in chunks; trajectory i always consumes
    draws from rng_stream(config.seed, i) in step order, so the result is
    identical to looping run_trajectory (or run_statevector) over i
    (tested), and independent of chunking.  Each step groups the active
    trajectories by state and draws with the one-run walk's rule, so a
    state's cumulative is fetched only once some trajectory stands on it.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if engine not in _SOURCES:
        raise ValueError(f"unknown engine {engine!r}")
    tables = PolicyTables(config)
    source = getattr(tables, _SOURCES[engine])
    two_j = config.two_j
    i_t = config.target_index
    max_iters = config.max_iterations
    cums: dict[int, tuple[int, np.ndarray]] = {}  # (lo, cum) of the states some trajectory stood on
    streams = _BlockReader(config.seed)

    iterations = np.zeros(n_runs, dtype=np.int64)
    succeeded = np.zeros(n_runs, dtype=bool)
    for lo in range(0, n_runs, _CHUNK):
        hi = min(lo + _CHUNK, n_runs)
        size = hi - lo
        cur = np.full(size, two_j, dtype=np.int64)
        done = np.full(size, i_t == two_j)
        iters = np.zeros(size, dtype=np.int64)
        step = 0
        while not done.all() and step < max_iters:
            if step % _BLOCK == 0:
                block = np.empty((size, _BLOCK))
                for k in np.flatnonzero(~done).tolist():
                    block[k] = streams.block(lo + k, step // _BLOCK)
            idx_active = np.flatnonzero(~done)
            u = block[idx_active, step % _BLOCK]
            src = cur[idx_active]
            # group the active trajectories by state; draw each group from its cumulative
            order = np.argsort(src, kind="stable")
            states, starts = np.unique(src[order], return_index=True)
            nxt = np.empty_like(src)
            for s, group in zip(states.tolist(), np.split(order, starts[1:])):
                cached = cums.get(s)
                if cached is None:
                    cached = cums[s] = source(s)
                offset, cum = cached  # the state's (lo, cum)
                nxt[group] = offset + cum.searchsorted(u[group], side="left")
            nxt[u == 0.0] = 0  # as in the one-run walk
            hit = nxt == i_t
            nxt[tables.rerouted[nxt]] = two_j
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
