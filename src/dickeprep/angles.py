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

optimal_angles_for_target does the same for every source state at once:
the grid rows, the geometric candidates and each Newton round come as
stacked solves, a round holding every state still refining, about four
rounds per state.  optimal_angle is the one-state case of the same code
(_optimal), so the two agree bit for bit.

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
    validate_spin,
    validate_target,
)
from . import wigner

_CLAMP_TOL = 1e-12
_NEWTON_TOL = 1e-10  # rad: stop once the Newton step is this small


@dataclass(frozen=True)
class AnglePolicyResult:
    """An angle choice together with the overlap probability it achieves."""

    angle: Angle
    overlap_probability: float
    policy: str
    fell_back: bool = False  # optimizer degraded to the geometric angle


def _asin(arg: np.ndarray) -> np.ndarray:
    """math.asin of every entry.  np.arcsin differs from it in the last ulp
    on some entries, which would change seeded outputs."""
    return np.array([math.asin(a) for a in arg.tolist()])


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
    spec = validate_spin(two_j, two_m)
    if two_j == 0:
        return Angle(0.0)
    return Angle(math.asin(spec.m / spec.j))


def _coarse_grid(two_j: int) -> np.ndarray:
    """Interior theta grid on (0, pi) at resolution ~pi/(8j+16).

    The overlap oscillates in theta on a scale O(1/j); this grid samples
    roughly eight points per finest oscillation so the global maximum's
    basin is always bracketed.
    """
    points = 4 * two_j + 16
    return np.linspace(0.0, math.pi, points + 2)[1:-1]


def _grid_scan(two_j: int, two_mt: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse grid and, per source state, the index of its best point.

    Each grid theta yields the whole row |d^j_{m_t,.}(theta)|^2 in O(j), so
    one scan serves every m; the rows come in stacks of increasing theta,
    and ties go to the smallest theta.
    """
    grid = _coarse_grid(two_j)
    states = np.arange(two_j + 1)
    best_val = np.full(two_j + 1, -1.0)
    best_idx = np.zeros(two_j + 1, dtype=np.int64)
    for rows, stack in wigner.row_stacks(two_j, two_mt, grid):
        top = np.argmax(stack, axis=0)  # the first, smallest-theta maximum in the stack
        val = stack[top, states]
        better = val > best_val  # strict: an earlier stack keeps its tie
        best_val[better] = val[better]
        best_idx[better] = rows.start + top[better]
    return grid, best_idx


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
    bit for bit, from stacked rows.
    """
    states = np.asarray(states, dtype=np.int64)
    out = np.empty(len(states))
    for rows, stack in wigner.row_stacks(two_j, two_mt, thetas):
        out[rows] = stack[np.arange(len(stack)), states[rows]]
    return out


def _refine(two_j: int, two_mt: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize f(theta) = |d^j_{m_t,m}(theta)|^2 for every source index in
    states; returns (angles, overlaps, fell_back), one entry per state.

    One coarse scan (_grid_scan) gives each state its one-cell bracket.
    Then safeguarded Newton on the analytic derivatives runs for all states
    in lockstep: each round evaluates f, f' and f'' at every live state's
    theta from one stacked solve (wigner.row_derivatives).  Per state, the
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
    grid, best_idx = _grid_scan(two_j, two_mt)
    lo, theta, hi = _cells(grid, best_idx[states])
    theta_geo = _geometric_angles(two_j, two_mt, wigner.m_values(two_j)[states])
    overlap_geo = overlap_probabilities(two_j, two_mt, states, theta_geo)
    f = np.empty(len(states))
    live = np.arange(len(states))
    while len(live):
        at = theta[live]
        f[live], df, d2f = wigner.row_derivatives(two_j, two_mt, at, states[live])
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

    Coarse grid scan over (0, pi), ties broken toward the smaller theta,
    then a safeguarded Newton refinement on the analytic theta-derivatives
    of the overlap, to 1e-10 rad, inside the best point's one-cell bracket.
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
        policy=AnglePolicy.NUMERIC_OPTIMAL,
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


def policy_angles(two_j: int, two_mt: int, policy: str) -> np.ndarray:
    """Per-source-state rotation angles for a whole chain, indexed by m.

    The target entry is 0 (absorbing, no rotation applied).
    """
    if policy == AnglePolicy.GEOMETRIC:
        validate_target(two_j, two_mt)
        out = _geometric_angles(two_j, two_mt, wigner.m_values(two_j)) if two_j else np.zeros(1)
        out[(two_mt + two_j) // 2] = 0.0
    elif policy == AnglePolicy.APPROX_MT0:
        if two_mt != 0:
            raise DomainError("approx_mt0 policy requires target_two_mt = 0")
        m = wigner.m_values(two_j)
        out = _asin(m / (two_j / 2.0)) if two_j else np.zeros(1)
    elif policy == AnglePolicy.NUMERIC_OPTIMAL:
        out, _ = optimal_angles_for_target(two_j, two_mt)
    else:
        raise OutOfRange(f"unknown angle policy {policy!r}")
    return out
