"""Reference computations and output checks, written apart from dickeprep.

Nothing here imports the package under test.  The oracles rebuild the
protocol from its definition:

* ``small_chain_expected_steps`` builds the whole absorbing chain from a
  dense ``scipy.linalg.expm`` of the real generator -i J_y, takes the
  geometric angle from its closed form and applies the reset routing itself;
* ``rotated_probabilities`` gets one outcome distribution in O(j) as the
  eigenvector of cos(theta) J_z + sin(theta) J_x with eigenvalue m, via
  LAPACK's tridiagonal eigensolver (``eigh_tridiagonal``), which shares no
  code with the package's inverse-iteration row path;
* ``bellman_residual`` uses those rows for the one-step identity
  E(m) = 1 + sum_m' P(m -> m') E(route(m')), which every exact solution of
  the chain must satisfy at every state.

Each ``check_*`` function returns a list of (message, failed_indices) pairs,
empty when the check passes; the indices name the operations the failure
invalidates.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# expected steps are O(10); a dense solve of (I - Q) is accurate to ~1e-12
EXACT_TOL = 1e-9
BELLMAN_TOL = 1e-10
ANGLE_STEP = 1e-4


def m_grid(two_j: int) -> np.ndarray:
    return np.arange(two_j + 1, dtype=np.float64) - two_j / 2.0


def ladder(two_j: int) -> np.ndarray:
    """a_i = sqrt(j(j+1) - m_i(m_i+1)): <m_i+1| J_+ |m_i> (Condon-Shortley)."""
    j = two_j / 2.0
    m = np.arange(two_j, dtype=np.float64) - j
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def geometric_angle(two_j: int, two_mt: int, two_m: int) -> float:
    """Closed form arcsin[(m r_mt - m_t r_m) / (j(j+1))], r_m = sqrt(j(j+1) - m^2)."""
    j, m, mt = two_j / 2.0, two_m / 2.0, two_mt / 2.0
    r0_sq = j * (j + 1.0)
    arg = (m * math.sqrt(r0_sq - mt * mt) - mt * math.sqrt(r0_sq - m * m)) / r0_sq
    return math.asin(max(-1.0, min(1.0, arg)))


def sqrt_j_reset(two_j: int, two_m: int) -> bool:
    """|m| > sqrt(j), i.e. (two_m)^2 > 2 two_j."""
    return two_m * two_m > 2 * two_j


def routing(two_j: int, two_mt: int, reset: bool) -> np.ndarray:
    """Index each measured outcome is routed to: the outcome itself, or the
    start state m = j when a reset fires (the target never resets)."""
    n = two_j + 1
    route = np.arange(n)
    if reset:
        for i in range(n):
            two_m = 2 * i - two_j
            if two_m != two_mt and sqrt_j_reset(two_j, two_m):
                route[i] = n - 1
    return route


def rotated_probabilities(two_j: int, two_m: int, theta: float) -> np.ndarray:
    """|<j,m'| exp(-i theta J_y) |j,m>|^2 over m' by a tridiagonal eigensolve."""
    n = two_j + 1
    i = (two_m + two_j) // 2
    if n == 1:
        return np.ones(1)
    diag = math.cos(theta) * m_grid(two_j)
    off = math.sin(theta) * ladder(two_j) / 2.0
    _, vec = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(i, i))
    return vec[:, 0] ** 2


def small_chain_expected_steps(two_j: int, two_mt: int, reset: bool) -> np.ndarray:
    """Expected steps from every state under geometric angles, from a dense
    matrix exponential of the generator.  For small two_j only."""
    n = two_j + 1
    i_t = (two_mt + two_j) // 2
    a = ladder(two_j)
    gen = np.zeros((n, n))  # -i J_y = (J_- - J_+)/2, real antisymmetric
    gen[np.arange(n - 1), np.arange(1, n)] = a / 2.0
    gen[np.arange(1, n), np.arange(n - 1)] = -a / 2.0
    route = routing(two_j, two_mt, reset)
    p = np.zeros((n, n))
    for i in range(n):
        if i == i_t:
            continue
        theta = geometric_angle(two_j, two_mt, 2 * i - two_j)
        column = scipy.linalg.expm(theta * gen)[:, i]
        np.add.at(p[i], route, column**2)
    keep = np.arange(n) != i_t
    q = p[np.ix_(keep, keep)]
    e = np.zeros(n)
    e[keep] = np.linalg.solve(np.eye(n - 1) - q, np.ones(n - 1))
    return e


def bellman_residual(
    expected: np.ndarray, two_j: int, two_mt: int, reset: bool, two_m: int, theta: float
) -> float:
    """E(m) - 1 - sum_m' P(m -> m') E(route(m')) with an oracle row."""
    i_t = (two_mt + two_j) // 2
    e = np.array(expected, dtype=np.float64)
    e[i_t] = 0.0  # absorption: the target contributes no further steps
    row = rotated_probabilities(two_j, two_m, theta)
    route = routing(two_j, two_mt, reset)
    return float(expected[(two_m + two_j) // 2] - 1.0 - row @ e[route])


# ---------------------------------------------------------------------------
# checks


def check_small_chain(expected: np.ndarray, two_j: int, two_mt: int, reset: bool, ops: set):
    ref = small_chain_expected_steps(two_j, two_mt, reset)
    dev = float(np.max(np.abs(np.asarray(expected) - ref)))
    if not dev <= EXACT_TOL:
        return [(f"two_j={two_j}: expected steps differ from the dense-expm chain by {dev:.3e}", ops)]
    return []


def check_bellman(expected, two_j, two_mt, reset, states_and_angles, ops: set):
    """One-step identity at each (two_m, theta) given."""
    out = []
    for two_m, theta in states_and_angles:
        res = bellman_residual(expected, two_j, two_mt, reset, two_m, theta)
        if not abs(res) <= BELLMAN_TOL * max(1.0, abs(float(expected[(two_m + two_j) // 2]))):
            out.append((f"two_j={two_j}, two_mt={two_mt}, two_m={two_m}: Bellman residual {res:.3e}", ops))
    return out


def check_ladder(two_js, start_values):
    """Each doubling of j adds between 0 and 1 expected step."""
    out = []
    for k in range(1, len(two_js)):
        if two_js[k] != 2 * two_js[k - 1]:
            out.append((f"rungs {two_js[k - 1]} -> {two_js[k]} are not a doubling", {k - 1, k}))
            continue
        step = start_values[k] - start_values[k - 1]
        if not 0.0 < step < 1.0:
            out.append(
                (f"E({two_js[k]}) - E({two_js[k - 1]}) = {step:.6f} lies outside (0, 1)", {k - 1, k})
            )
    return out


def overlap(two_j: int, two_mt: int, two_m: int, theta: float) -> float:
    """|d^j_{m_t,m}(theta)|^2 from the oracle row."""
    return float(rotated_probabilities(two_j, two_m, theta)[(two_mt + two_j) // 2])


def check_optimal_angle(two_j, two_mt, two_m, theta, reported_overlap, ops: set):
    """The chosen angle beats the geometric one and is a local maximum."""
    out = []
    here = overlap(two_j, two_mt, two_m, theta)
    geo = overlap(two_j, two_mt, two_m, geometric_angle(two_j, two_mt, two_m))
    tag = f"two_j={two_j}, two_m={two_m}, theta={theta!r}"
    if not abs(here - reported_overlap) <= EXACT_TOL:
        out.append((f"{tag}: reported overlap {reported_overlap!r}, oracle {here!r}", ops))
    if not here >= geo - 1e-12:
        out.append((f"{tag}: overlap {here:.12f} below the geometric angle's {geo:.12f}", ops))
    for side in (-ANGLE_STEP, ANGLE_STEP):
        near = overlap(two_j, two_mt, two_m, theta + side)
        if not near <= here:
            out.append((f"{tag}: overlap rises to {near:.12f} at {side:+.0e} rad", ops))
    return out


def check_sweep(rows, two_j: int):
    """rows: (two_j, two_mt, expected_steps) in CSV order, targets 0..j."""
    out = []
    targets = [r[1] for r in rows]
    want = list(range(two_j % 2, two_j + 1, 2))
    if targets != want or any(r[0] != two_j for r in rows):
        return [(f"sweep rows are not the targets {want[0]}..{want[-1]} of two_j={two_j}", set(range(len(rows))))]
    values = [r[2] for r in rows]
    if values[-1] != 0.0:
        out.append((f"E(m_t = j) = {values[-1]!r}, not 0", {len(rows) - 1}))
    top = max(range(len(values)), key=values.__getitem__)
    if top != 0 or values.count(values[0]) != 1:
        out.append((f"largest E at two_mt={targets[top]}, not at m_t = 0", {0, top}))
    return out


def check_monte_carlo_mean(iterations: np.ndarray, exact: float, label: str, ops: set):
    """Sample mean within 4 standard errors of the exact expected steps."""
    its = np.asarray(iterations, dtype=np.float64)
    mean = float(its.mean())
    se = float(its.std(ddof=1) / math.sqrt(len(its)))
    if not abs(mean - exact) <= 4.0 * se:
        return [(f"{label}: mean {mean:.4f} is {abs(mean - exact) / se:.1f} SE from exact {exact:.6f}", ops)]
    return []


def check_equal_runs(batched_its, batched_ok, looped, label: str, ops: set):
    """The batched sampler's first runs equal a loop of single runs."""
    for i, (its, ok) in enumerate(looped):
        if int(batched_its[i]) != its or bool(batched_ok[i]) != ok:
            return [(f"{label}: run {i} gives ({batched_its[i]}, {batched_ok[i]}) batched, ({its}, {ok}) looped", ops)]
    return []
