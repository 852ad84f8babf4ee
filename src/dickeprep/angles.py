"""Rotation-angle policies.

Three ways to pick the rotation angle applied from state |j,m> when aiming
for |j,m_t>:

* geometric_angle: the ring-tangency formula
  theta = arcsin[(m r_{m_t} - m_t r_m) / r_0^2], which tilts the Husimi ring
  of |j,m> until it touches the target ring with a shared tangent.
* approx_angle_mt0: the m_t = 0 simplification theta = arcsin(m/j).
* optimal_angle: deterministic numerical maximization of the overlap
  |d^j_{m_t,m}(theta)|^2 (coarse grid at resolution pi/(8j+16), then a
  safeguarded Newton refinement on the analytic theta-derivatives of the
  overlap, wigner.row_derivatives, to 1e-10 rad).

optimal_angles_for_target does the same for every source state at once,
and policy_angles with states for the states asked for: the grid rows,
the geometric candidates and each Newton round come as stacked solves, a
round holding every state still refining, about four rounds per state;
the first round reads the grid rows at the best points.
optimal_angle is the one-state case of the same code (_optimal), and a
state's angle does not depend on which other states are asked for, so
all three agree bit for bit.

The grid scan (_grid_scan) scans each state on part of the grid only.
Where the overlap is mirror-symmetric, f(theta) = f(pi - theta) exactly
(at m_t = 0, and at m = 0 for any target), it scans theta < pi/2 only, so
the mirror tie is settled exactly, toward the smaller theta.  At m_t = 0
it scans only a window of about +-1.5/sqrt(j) around the geometric angle,
where the best point lies, and rescans the whole half if the best point
lands on the window's edge.  The entered states of the sqrt_j reset
(|m| <= sqrt(j), so theta <~ 2/sqrt(j)) then need O(sqrt j) narrow rows,
and the start state m = j its own O(sqrt j)-wide column: O(j) in all.
For m_t != 0 the scan covers the whole grid.

Angle signs: for m < m_t the same formulas produce negative angles; the
optimizer mirrors through (m_t, m) -> (-m_t, -m), which leaves the overlap
invariant, in one place (_optimal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Angle,
    AnglePolicy,
    DomainError,
    OutOfRange,
    _grid_indices,
    validate_spin,
    validate_target,
)
from . import wigner

_CLAMP_TOL = 1e-12
_NEWTON_TOL = 1e-10  # rad: stop once the Newton step is this small
# an m_t = 0 state scans the grid within _WINDOW / sqrt(j) of its geometric
# angle, plus _WINDOW_CELLS cells each side (_grid_scan); its best point lay
# within 0.997 / sqrt(j) of that angle at every two_j measured to 8192
_WINDOW = 1.5
_WINDOW_CELLS = 2


@dataclass(frozen=True)
class AnglePolicyResult:
    """An angle choice together with the overlap probability it achieves."""

    angle: Angle
    overlap_probability: float
    fell_back: bool = False  # optimizer degraded to the geometric angle


def _asin(arg: np.ndarray) -> np.ndarray:
    """math.asin of every entry.  np.arcsin differs from it in the last ulp
    on some entries, which would change seeded outputs."""
    return np.fromiter(map(math.asin, arg), float, len(arg))


def _geometric_angles(two_j: int, two_mt: int, m: np.ndarray) -> np.ndarray:
    """Tangency angles for the sources m (floats), in geometric_angle's
    operation order."""
    j = two_j / 2.0
    mt = two_mt / 2.0
    r0_sq = j * (j + 1.0)
    arg = (m * math.sqrt(r0_sq - mt * mt) - mt * np.sqrt(r0_sq - m * m)) / r0_sq
    over = np.abs(arg) - 1.0 > _CLAMP_TOL
    if over.any():
        raise DomainError(f"tangency arcsin argument {arg[over][0]} out of [-1, 1]")
    return _asin(np.clip(arg, -1.0, 1.0))


def geometric_angle(two_j: int, two_mt: int, two_m: int) -> Angle:
    """Ring-tangency angle arcsin[(m r_{m_t} - m_t r_m) / r_0^2].

    For m_t = 0 this reduces to arcsin(m / sqrt(j(j+1))).  The arcsin
    argument is clamped when within 1e-12 of +-1; beyond that it is a
    DomainError.
    """
    validate_target(two_j, two_mt)
    source = validate_spin(two_j, two_m)
    if two_m == two_mt:  # also the only state of j = 0, where r_0 = 0
        return Angle(0.0)
    return Angle(float(_geometric_angles(two_j, two_mt, np.array([source.m]))[0]))


def approx_angle_mt0(two_j: int, two_m: int) -> Angle:
    """The m_t = 0 approximation theta_m = arcsin(m/j)."""
    validate_spin(two_j, two_m)
    return Angle(float(policy_angles(two_j, 0, AnglePolicy.APPROX_MT0, [(two_j + two_m) // 2])[0]))


def _coarse_grid(two_j: int) -> np.ndarray:
    """Interior theta grid on (0, pi) at resolution ~pi/(8j+16).

    The overlap oscillates in theta on a scale O(1/j); this grid samples
    roughly eight points per finest oscillation so the global maximum's
    basin is always bracketed.
    """
    points = 4 * two_j + 16
    return np.linspace(0.0, math.pi, points + 2)[1:-1]


def _scan(
    two_j: int,
    two_ms: np.ndarray,
    thetas: np.ndarray,
    points: np.ndarray,
    entries: np.ndarray,
    first: np.ndarray,
    stop: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reader k's best grid point: the point in first[k] .. stop[k] - 1
    where the square of entry entries[k] of the eigenvector rows
    (two_ms, thetas) is largest, the first, smallest-theta one on a tie.
    Row r lies at grid point points[r]; points increase.  Also returns,
    per reader, the unsquared entries entries[k] + wigner.STENCIL of the
    row at its best point (NaN where no entry is positive).

    The rows come in stacks on their windows.  A stack is read only by the
    readers whose range meets its points and whose entry lies in the span
    of its windows; the others would read zeros there, which never beat a
    positive entry.  A reader whose entries are all zero keeps first.
    """
    best, best_val = first.copy(), np.zeros(len(entries))
    near = np.full((len(entries), len(wigner.STENCIL)), np.nan)
    for rows, stack in wigner._eigenvector_windows(two_j, two_ms, thetas):
        g = points[rows, None]
        live = np.flatnonzero(
            (first <= g[-1]) & (stop > g[0]) & (stack.lo.min() <= entries) & (entries < stack.hi.max())
        )
        vals = stack.at(entries[live])
        vals *= vals  # transition_windows' squares, bit for bit
        vals[(g < first[live]) | (g >= stop[live])] = -1.0
        top = np.argmax(vals, axis=0)  # the first, smallest-theta maximum in the stack
        val = vals[top, np.arange(len(live))]
        better = val > best_val[live]  # strict: an earlier stack keeps its tie
        won = live[better]
        best_val[won] = val[better]
        best[won] = g[top[better], 0]
        near[won] = stack.at(entries[won, None] + wigner.STENCIL, top[better])
    return best, near


def _best_points(
    two_j: int, two_mt: int, grid: np.ndarray, states: np.ndarray, first: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per source state, its best index on the coarse grid in first .. stop - 1,
    and the unsquared row entries around it (_scan; NaN for the start
    state's column, whose entries are not its row's).

    A grid theta yields the whole row |d^j_{m_t,.}(theta)|^2 on its window
    in O(window), so one row serves every state whose range holds its
    point, and only the union of the ranges is solved.  At m_t = 0 the
    start state m = j reads its own column |d^j_{.,j}(theta)|^2 instead:
    the column is O(sqrt j) wide, its rows near pi/2 are O(j) wide.
    """
    column = (states == two_j) & (two_mt == 0)
    best = first.copy()
    near = np.full((len(states), len(wigner.STENCIL)), np.nan)
    row = np.flatnonzero(~column)
    depth = np.zeros(len(grid) + 1, dtype=np.int64)
    np.add.at(depth, first[row], 1)
    np.add.at(depth, stop[row], -1)
    points = np.flatnonzero(np.cumsum(depth[:-1]))
    best[row], near[row] = _scan(
        two_j, np.full(len(points), two_mt), -grid[points], points, states[row], first[row], stop[row]
    )
    target = np.array([(two_mt + two_j) // 2])
    for k in np.flatnonzero(column):
        points = np.arange(first[k], stop[k])
        at = slice(k, k + 1)
        best[at] = _scan(two_j, np.full(len(points), two_j), grid[points], points, target, first[at], stop[at])[0]
    return best, near


def _grid_scan(two_j: int, two_mt: int, states) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coarse grid, the index of each source state's best grid point,
    the mask of the states whose scan was widened, and the unsquared row
    entries around each state at its best point (_best_points).

    A state scans only part of the grid:
    * theta < pi/2, the first half, where f(theta) = f(pi - theta) holds
      exactly: at m_t = 0 and at m = 0.  This settles the mirror tie
      exactly.  Elsewhere it scans the whole grid;
    * at m_t = 0, only the points within _WINDOW / sqrt(j) of its
      geometric angle, plus _WINDOW_CELLS cells each side.  Every state's
      best point lies within about 1 / sqrt(j) of that angle: the
      semiclassical band of the d-functions (Brussaard & Tolhoek, Physica
      23 (1957)).  A state whose best point lands on an edge of its window
      that is not an end of its half scans the whole half again, and is
      flagged in the mask.
    Any other tie, which only rounding can make, goes to the smaller theta.
    """
    grid = _coarse_grid(two_j)
    states = np.asarray(states, dtype=np.int64)
    end = np.where((two_mt == 0) | (2 * states == two_j), len(grid) // 2, len(grid))
    first, stop = np.zeros(len(states), dtype=np.int64), end
    if two_mt == 0 and len(states):
        theta_geo = _geometric_angles(two_j, 0, states - two_j / 2.0)
        reach = _WINDOW / math.sqrt(two_j / 2.0)
        first = np.maximum(np.searchsorted(grid, theta_geo - reach) - _WINDOW_CELLS, 0)
        stop = np.minimum(np.searchsorted(grid, theta_geo + reach) + _WINDOW_CELLS, end)
    best, near = _best_points(two_j, two_mt, grid, states, first, stop)
    widened = ((best == first) & (first > 0)) | ((best == stop - 1) & (stop < end))
    if widened.any():
        best[widened], near[widened] = _best_points(
            two_j, two_mt, grid, states[widened], np.zeros_like(stop[widened]), end[widened]
        )
    return grid, best, widened, near


def _cells(grid: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, start, hi) per state: the one-cell bracket around its best grid
    point, and that point.

    The first cell starts at grid[0] / 2 and the last ends at pi itself:
    for m = -m_t the maximum is d^j_{-m,m}(pi)^2 = 1 there.
    """
    edges = np.concatenate(([grid[0] / 2.0], grid, [math.pi]))
    return edges[best], edges[best + 1], edges[best + 2]


def overlap_probabilities(two_j: int, two_mt: int, states, thetas) -> np.ndarray:
    """|d^j_{m_t,m}(theta)|^2 for each source index in states at its own
    theta: entry k is row_probabilities(two_j, two_mt, thetas[k])[states[k]],
    bit for bit, read off stacked rows on their windows.  Raises OutOfRange
    for a state outside 0..two_j.
    """
    validate_spin(two_j, two_mt)  # validates now, not at the first stack
    states = _grid_indices(two_j, states)
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.empty(len(states))
    for rows, stack in wigner.transition_windows(two_j, np.full(len(thetas), two_mt), -thetas):
        out[rows] = stack.at(states[rows, None])[:, 0]
    return out


def _refine(two_j: int, two_mt: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize f(theta) = |d^j_{m_t,m}(theta)|^2 for every source index in
    states; returns (angles, overlaps, fell_back), one entry per state.

    One coarse scan (_grid_scan) gives each state its one-cell bracket.
    Then safeguarded Newton on the analytic derivatives runs for all states
    in lockstep: each round evaluates f, f' and f'' at every live state's
    theta from one stacked solve (wigner.row_derivatives).  The first round
    is at the best grid points, so it reads the rows the scan solved there
    (wigner.stencil_derivatives); only a state whose scan read a column
    solves its row.  Per state, the
    bracket shrinks to the side where f' says the maximum lies; the step
    -f'/f'' is taken when f'' < 0 and it lands strictly inside the bracket,
    and the bracket is bisected otherwise.  A state stops once
    |f'/f''| < 1e-10 rad (or its bracket is that narrow) and keeps its last
    evaluated theta with its f; the others go on to the next round.  A
    stacked row has the bits of the same row solved alone, so each state
    takes the steps it would take alone.  Its geometric angle, evaluated in
    one stack beforehand, is then compared as a candidate (fell_back where
    it wins).
    """
    grid, best, _, near = _grid_scan(two_j, two_mt, states)
    lo, theta, hi = _cells(grid, best)
    theta_geo = _geometric_angles(two_j, two_mt, states - two_j / 2.0)
    overlap_geo = overlap_probabilities(two_j, two_mt, states, theta_geo)
    derivatives = wigner.stencil_derivatives(two_j, near, states[:, None] + wigner.STENCIL)
    redo = np.isnan(near[:, 0])
    if redo.any():
        derivatives[:, redo] = wigner.row_derivatives(two_j, two_mt, theta[redo], states[redo])
    f = np.empty(len(states))
    live = np.arange(len(states))
    while len(live):
        at = theta[live]
        f[live], df, d2f = derivatives
        peak = d2f < 0.0
        done = peak & (np.abs(df) < _NEWTON_TOL * -d2f)
        up = df > 0.0
        low, high = np.where(up, at, lo[live]), np.where(up, hi[live], at)
        lo[live], hi[live] = low, high
        done |= high - low < _NEWTON_TOL
        with np.errstate(divide="ignore", invalid="ignore"):  # d2f = 0 takes no Newton step
            newton = at - df / d2f
        step = np.where(peak & (low < newton) & (newton < high), newton, 0.5 * (low + high))
        theta[live[~done]] = step[~done]
        live = live[~done]
        if len(live):
            derivatives = wigner.row_derivatives(two_j, two_mt, theta[live], states[live])
    fell_back = f < overlap_geo
    return np.where(fell_back, theta_geo, theta), np.where(fell_back, overlap_geo, f), fell_back


def _optimal(two_j: int, two_mt: int, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(angles, overlaps, fell_back) of the optimizer for each source index
    in states, none of them the target.

    A source above the target is refined directly.  One below is refined
    as its mirror (m_t, m) -> (-m_t, -m), which leaves the overlap
    invariant, and its angle is negated.  Each distinct target gets one
    _refine call, so one grid scan, with each of its sources once.
    """
    states = np.asarray(states, dtype=np.int64)
    below = states < (two_mt + two_j) // 2
    sources = np.where(below, two_j - states, states)
    targets = np.where(below, -two_mt, two_mt)
    angles, overlaps = np.empty(len(states)), np.empty(len(states))
    fell_back = np.empty(len(states), dtype=bool)
    for target in np.unique(targets):
        at = targets == target
        refined, back = np.unique(sources[at], return_inverse=True)
        angle, overlap, fell = _refine(two_j, int(target), refined)
        angles[at] = np.where(below[at], -angle[back], angle[back])
        overlaps[at], fell_back[at] = overlap[back], fell[back]
    return angles, overlaps, fell_back


def optimal_angle(two_j: int, two_mt: int, two_m: int) -> AnglePolicyResult:
    """Deterministically maximize the overlap |d^j_{m_t,m}(theta)|^2.

    Coarse grid scan (_grid_scan: only theta < pi/2 where the overlap is
    mirror-symmetric, f(theta) = f(pi - theta), at m_t = 0 or m = 0, and at
    m_t = 0 only a window around the geometric angle), then a safeguarded
    Newton refinement on the analytic theta-derivatives of the overlap, to
    1e-10 rad, inside the best point's one-cell bracket.
    The geometric angle is always a candidate, so the returned overlap is
    >= the geometric one; if refinement somehow degrades below it, the
    geometric angle is returned with fell_back=True.
    """
    validate_target(two_j, two_mt)
    validate_spin(two_j, two_m)
    if two_m == two_mt:
        raise OutOfRange("optimal_angle requires m != m_t")
    angle, overlap, fell_back = _optimal(two_j, two_mt, [(two_m + two_j) // 2])
    return AnglePolicyResult(
        angle=Angle(float(angle[0])),
        overlap_probability=float(overlap[0]),
        fell_back=bool(fell_back[0]),
    )


def optimal_angles_for_target(two_j: int, two_mt: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal angles and overlaps for every source m at a fixed target.

    Returns (angles, overlaps) indexed like the amplitude grid; the target
    entry gets angle 0 and overlap 1.  Sources below the target come from
    the mirror symmetry theta*(m_t, m) = -theta*(-m_t, -m), which leaves
    the overlap invariant.
    """
    validate_target(two_j, two_mt)
    states = np.delete(np.arange(two_j + 1), (two_mt + two_j) // 2)
    angles, overlaps = np.zeros(two_j + 1), np.ones(two_j + 1)
    angles[states], overlaps[states], _ = _optimal(two_j, two_mt, states)
    return angles, overlaps


def policy_angles(two_j: int, two_mt: int, policy: str, states=None) -> np.ndarray:
    """Per-source-state rotation angles for a whole chain, indexed by m;
    given states (grid indices), one angle per state, with the bits of the
    whole table's entries.  numeric_optimal refines only those states.

    The target entry is 0 (absorbing, no rotation applied).  Raises
    OutOfRange for a state outside 0..two_j.
    """
    at = np.arange(two_j + 1) if states is None else _grid_indices(two_j, states)
    m = at - two_j / 2.0
    if policy == AnglePolicy.APPROX_MT0:
        if two_mt != 0:
            raise DomainError("approx_mt0 policy requires target_two_mt = 0")
        return _asin(m / (two_j / 2.0)) if two_j else np.zeros(len(at))
    validate_target(two_j, two_mt)
    target = at == (two_mt + two_j) // 2
    if policy == AnglePolicy.GEOMETRIC:
        out = _geometric_angles(two_j, two_mt, m) if two_j else np.zeros(len(at))
    elif policy == AnglePolicy.NUMERIC_OPTIMAL:
        out = np.zeros(len(at))
        out[~target] = _optimal(two_j, two_mt, at[~target])[0]
    else:
        raise OutOfRange(f"unknown angle policy {policy!r}")
    out[target] = 0.0
    return out
