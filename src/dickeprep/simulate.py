"""Monte Carlo sampling of the measurement-feedback protocol.

The measured m performs one Markov walk: the outcome m' is drawn by
inverse CDF from the current state's cumulative outcome distribution, the
target absorbs, and an outcome the reset policy reroutes returns the
register to m = j within the same step.  The walk is written once, as a
recording one-run walk (run_trajectory) and as a batched sampler
(sample_iterations), and it has one outcome source: the rows the chain
solve reads (chain._checked_rows, each row checked to sum to 1, on its
O(sqrt j) window under the sqrt_j reset), so its memory does not grow with
j times the states visited.  Both walks read one cache, PolicyTables,
which holds the policy angle and the row's cumulative of the states some
run has stood on, and nothing of the others: no O(j) angle table is
built.  The batched sampler fetches the states its runs first stand on at
a step in one stack (one angles.policy_angles call on those states, one
chain._checked_rows call), and the one-run walk fetches one state at a
time; either way a state gets the same bits.  Each step of the sampler
sorts its runs on their states, held in the narrowest unsigned type that
holds two_j (up to two_j = 65535 that is at most 16 bits, which numpy's
stable sort sorts by radix), cuts the sorted runs into one slice per state
where the state changes, hands those states to the cache, which fetches
the ones it does not hold, and searches each state's cumulative on its
slice of the draws.  A run's outcome depends only on its state and its
draw, so the order of the runs within a slice changes nothing.  The reset
rule (ProtocolConfig.rerouted) is asked about the outcomes just drawn, as
the protocol decides from one measured m: neither walk keeps an array
over the grid.  A chain row is the outcome law |d^j_{m',m}(theta)|^2 of
rotating |j, m> by the policy angle and measuring J_z, so the walk is also
the statevector protocol: the engine labels "chain" and "statevector"
name the same walk and draw the same outcomes.
The independent check is the exact absorption-time law
Pr[T = k] = e_start Q^(k-1) r (Kemeny & Snell, 1960) of the transition
matrix built from dense matrix exponentials of J_y, held against the
chain and against the walk's histograms in the tests.

Every run consumes a per-trajectory Philox stream keyed by
(base_seed, trajectory_index), so results are reproducible and independent
of batching or worker count.  Within a trajectory, the k-th step consumes
the k-th draw of its stream.  The one-run walk draws from rng_stream,
numpy's Philox4x64-10.  Philox is counter-based (Salmon, Moraes, Dror and
Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11): a block of a
stream is a pure function of (seed, trajectory index, block number).  So
the batched sampler computes the next _BLOCK draws of every live
trajectory in one numpy pass (_philox_block), with rng_stream as the
kernel's reference, held against it bit for bit in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import NormDrift, OutOfRange, ProtocolConfig, SpinSpec, rng_stream  # noqa: F401 (rng_stream re-exported)
from . import angles as angles_mod
from . import chain
from . import wigner

_BLOCK = 8             # uniforms drawn per trajectory per refill, a multiple of 4
_CHUNK = 8192          # trajectories stepped together in the batch sampler
_ENGINES = ("chain", "statevector")  # labels of the one walk, recorded in the summaries

# Philox4x64-10's round multipliers and key increments (Salmon et al. 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = 0xFFFFFFFFFFFFFFFF
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of the 128-bit products m * x, from 32-bit
    halves as in mulhu of Hacker's Delight (Warren, ch. 8): the middle sums
    t and w each fit in 64 bits, and uint64 array products wrap modulo
    2^64 without a warning."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = m_hi * x_lo + ((m_lo * x_lo) >> _SHIFT32)
    w = m_lo * x_hi + (t & _LOW32)
    return m_hi * x_hi + (t >> _SHIFT32) + (w >> _SHIFT32), x * np.uint64(m)


def _philox_block(seed: int, indices: np.ndarray, b: int) -> np.ndarray:
    """The b-th block of _BLOCK uniforms of rng_stream(seed, i) for every i
    in indices, as a (len(indices), _BLOCK) array, bit for bit.

    rng_stream is numpy's Philox4x64-10 keyed on (seed mod 2^64, i) with
    its counter at 0.  Philox is counter-based (Salmon et al., SC'11): each
    counter value c gives four 64-bit words by ten rounds of the key and c
    alone, and the stream increments the counter before each use, so
    block b is counters cb+1 .. cb+c, c = _BLOCK / 4, and every row is
    computed at once.  A word x becomes the uniform (x >> 11) * 2^-53, as
    Generator.random.
    """
    n = len(indices)
    c = _BLOCK // 4  # counters per block, four words each
    x0 = np.broadcast_to(np.arange(c * b + 1, c * b + c + 1, dtype=np.uint64), (n, c))
    x1 = x2 = x3 = np.zeros((n, c), dtype=np.uint64)
    k0 = seed & _U64
    k1 = np.asarray(indices, dtype=np.uint64).reshape(n, 1)
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _U64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(n, _BLOCK)
    return (words >> np.uint64(11)) * 2.0**-53


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


class PolicyTables:
    """Per-config cache of the states some run has stood on: each one's
    policy angle and the cumulative outcome distribution of its chain row
    as (lo, cum).  The walks' one cache.
    Write-once per state, safe for concurrent reads.

    Nothing is computed up front.  fetch(states) fills in the states not
    cached yet with one angles.policy_angles call on those states and one
    chain._checked_rows call, which solves their rows in stacks.  Both give
    a state the bits it gets alone or in the whole table, so what is cached
    does not depend on which states were fetched together.  The batched
    sampler passes a step's group states to fetch, which skips the ones it
    holds; cumulative, angle and column fetch their one state on a miss.
    A state outside 0..two_j raises OutOfRange (angles.policy_angles).

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
        self._rows: dict[int, tuple[float, int, np.ndarray]] = {}  # state -> (angle, lo, cum)

    def fetch(self, states) -> None:
        """Cache (angle, lo, cum) of the given source states (grid indices)
        that are not cached yet, in one stack.  The rows come from the
        chain's checked rows on their windows [lo, hi) (chain._checked_rows,
        which raises SingularSystem on a row that does not sum to 1), and
        cum is the cumulative of a row's window values only.  O(window) per
        state, not O(j)."""
        missing = np.array([s for s in states if s not in self._rows], dtype=np.int64)
        if not len(missing):
            return
        cfg = self.config
        theta = angles_mod.policy_angles(self.two_j, cfg.target_two_mt, cfg.angle_policy, states=missing)
        for rows, stack in chain._checked_rows(self.two_j, theta, missing):
            for s, angle, lo, a, b in zip(
                missing[rows].tolist(), theta[rows].tolist(),
                stack.lo.tolist(), stack.starts.tolist(), stack.stops.tolist(),
            ):
                self._rows[s] = (angle, lo, _normalized_cumulative(stack.values[a:b]))

    def _row(self, i_m: int) -> tuple[float, int, np.ndarray]:
        row = self._rows.get(i_m)
        if row is None:
            self.fetch([i_m])
            row = self._rows[i_m]
        return row

    def cumulative(self, i_m: int) -> tuple[int, np.ndarray]:
        """(lo, cum) of source state i_m's chain row, the walk's one outcome
        source, fetched alone on a miss."""
        _, lo, cum = self._row(i_m)
        return lo, cum

    def angle(self, i_m: int) -> float:
        """The policy angle of source state i_m, fetched alone on a miss."""
        return self._row(i_m)[0]

    def column(self, i_m: int) -> np.ndarray:
        """Rotated basis column (signed amplitudes) of source state i_m at its
        cached angle, whose squares are the chain row.  No walk reads it.

        Raises NormDrift when its norm is off 1 by more than 1e-9.
        """
        spec = SpinSpec(self.two_j, 2 * i_m - self.two_j)
        column = wigner.d_column(spec, self.angle(i_m)).amplitudes
        norm_dev = abs(float(column @ column) - 1.0)
        if norm_dev > 1e-9:
            raise NormDrift(f"rotated column norm off by {norm_dev:.3e}")
        return column


def _normalized_cumulative(row: np.ndarray) -> np.ndarray:
    # extended-precision cumulative, normalized so the last entry is exactly 1
    cum = np.cumsum(row.astype(np.longdouble))
    cum /= cum[-1]
    return cum.astype(np.float64)


def run_trajectory(
    config: ProtocolConfig,
    rng: np.random.Generator,
    tables: PolicyTables | None = None,
) -> TrajectoryRecord:
    """One recorded run from m = j; terminates at the target or max_iterations.

    Each step draws u from rng, takes the outcome from the current state's
    (lo, cum) (see PolicyTables.cumulative), and returns to m = j within the
    same step if config.rerouted says so of the outcome (never the target).
    tables, if given, must be built for config; OutOfRange otherwise.

    Rotating |j, m> by the policy angle and measuring J_z gives m' with
    probability |d^j_{m',m}(theta)|^2, which is the chain row drawn here,
    so this is also the statevector run: one walk with one record.
    """
    tables = tables if tables is not None else PolicyTables(config)
    if tables.config != config:
        raise OutOfRange("tables were built for another config")
    two_j = config.two_j
    i_t = config.target_index
    i_cur = two_j  # start from m = j
    steps: list[TrajectoryStep] = []
    succeeded = i_cur == i_t
    while not succeeded and len(steps) < config.max_iterations:
        u = float(rng.random())
        lo, cum = tables.cumulative(i_cur)
        i_next = lo + int(cum.searchsorted(u, side="left")) if u > 0.0 else 0
        reset = bool(config.rerouted(i_next))
        angle = tables.angle(i_cur)
        steps.append(TrajectoryStep(2 * i_cur - two_j, angle, 2 * i_next - two_j, reset))
        succeeded = i_next == i_t
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

    The runs are vectorized in chunks; trajectory i always consumes draws
    from rng_stream(config.seed, i) in step order, so the result is
    identical to looping run_trajectory over i (tested), and independent of
    chunking.  Each step groups the active trajectories by one stable
    argsort on their states, held in the narrowest unsigned type that holds
    two_j (at most 16 bits up to two_j = 65535, which numpy sorts by
    radix), with the groups cut where the sorted state changes.  The
    groups' states go to PolicyTables.fetch, which computes in one stack
    the ones no trajectory has stood on before, so a state's angle and row
    are computed only once some trajectory stands on it.  The draws are
    gathered once in that order, each group's outcomes are searched in its
    state's cumulative on its slice (the one-run walk's rule), the windows'
    offsets are added with one np.repeat, and config.rerouted is asked
    about the outcomes.  The draw block is allocated once per call and
    refilled every _BLOCK steps.  engine is one of _ENGINES, labels of the
    same walk: it is checked here and changes no draw.
    """
    if isinstance(n_runs, bool) or not isinstance(n_runs, (int, np.integer)) or n_runs < 1:
        raise OutOfRange(f"n_runs must be an integer >= 1, got {n_runs!r}")
    if engine not in _ENGINES:
        raise OutOfRange(f"unknown engine {engine!r}; choose from {_ENGINES}")
    two_j = config.two_j
    i_t = config.target_index
    if i_t == two_j:  # every run starts on the target
        return np.zeros(n_runs, dtype=np.int64), np.ones(n_runs, dtype=bool)
    tables = PolicyTables(config)
    max_iters = config.max_iterations
    cached = tables._rows  # (angle, lo, cum) of the states some trajectory stood on
    key = np.min_scalar_type(two_j)  # the dtype of a state, the sort key

    iterations = np.zeros(n_runs, dtype=np.int64)
    succeeded = np.zeros(n_runs, dtype=bool)
    block = np.empty((min(n_runs, _CHUNK), _BLOCK))  # the draws of a chunk's runs
    for lo in range(0, n_runs, _CHUNK):
        active = np.arange(min(_CHUNK, n_runs - lo))  # the chunk's runs still walking
        state = np.full(len(active), two_j, dtype=key)
        step = 0
        while len(active) and step < max_iters:
            if step % _BLOCK == 0:
                block[active] = _philox_block(config.seed, lo + active, step // _BLOCK)
            # group the active runs by state; draw each group from its cumulative
            order = np.argsort(state, kind="stable")
            state, active = state[order], active[order]
            u = block[active, step % _BLOCK]
            bounds = [0, *(np.flatnonzero(state[1:] != state[:-1]) + 1).tolist(), len(state)]
            heads = state[bounds[:-1]].tolist()  # each group's state
            tables.fetch(heads)  # the ones not cached yet, in one stack
            rows = [cached[s] for s in heads]  # (angle, lo, cum)
            nxt = np.concatenate([
                cum.searchsorted(u[a:b], side="left")
                for (_, _, cum), a, b in zip(rows, bounds, bounds[1:])
            ])
            nxt += np.repeat([offset for _, offset, _ in rows], np.diff(bounds))
            nxt[u == 0.0] = 0  # as in the one-run walk
            hit = nxt == i_t
            finished = lo + active[hit]
            iterations[finished] = step + 1
            succeeded[finished] = True
            keep = ~hit
            active, nxt = active[keep], nxt[keep]
            state = nxt.astype(key)
            state[config.rerouted(nxt)] = two_j
            step += 1
        iterations[lo + active] = step  # runs cut at max_iterations walked every step
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
