"""Absorbing Markov chain of the protocol and exact expected running times.

The protocol's measurement record is a discrete-time Markov chain over the
2j+1 magnetization states: from state m the next state is drawn from
|d^j_{m',m}(theta_policy(m))|^2, with the target m_t absorbing.  A reset
policy reroutes, within the same time step, any probability mass measured
at |m'| above the threshold into the all-up state m = j (measure + reset
count as one loop iteration).

Expected absorption times come from the standard fundamental-matrix
identity: on the transient states, (I - Q) t = 1 (Kemeny & Snell, Finite
Markov Chains, 1960).  expected_steps_for solves it on the entered set S,
read off the policy alone: the transient states a reset leaves in place
(|m| within the threshold) plus the start state m = j, or every transient
state when there is no reset.  A routed row puts all of its mass in S and
the target, so S is closed: only S's rows are computed and only the S x S
block is stored.  Every other transient state r follows from its own row,
t_r = 1 + P[r, S] t_S, filled when the report's expected_steps_from is
first read.  Rows stay on their windows (wigner.transition_windows), so
routing a row, its part in the S block and its fill cost O(window), not
O(n).  _checked_rows reads them and checks their sums, for this module and
for simulate's chain engine alike.  build_chain and expected_steps keep the
dense n x n matrix for callers that want the matrix itself.

At m_t = 0 (integer j) the chain is strongly lumpable on the classes
{m, -m} (Kemeny & Snell, 1960, ch. VI).  Every angle policy has
theta(-m) = -theta(m), up to the mirror theta -> pi - theta, which
reverses a row and so leaves its class sums alone; and
|d^j_{-m',-m}(-theta)|^2 = |d^j_{m',m}(theta)|^2.  Reset masks are
symmetric in m, and the reset destination m = j is its own class's
representative.  So P(-m -> -m') = P(m -> m') and t(-m) = t(m) exactly.
expected_steps_for then computes only the rows of the representatives
m >= 0, sums each onto its columns' classes, solves the lumped S block
and gives every state the value of its class.  At any other target the
class map is the identity, and the same code is the unlumped solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import scipy.linalg

from .core import (
    AnglePolicy,
    OutOfRange,
    ProtocolConfig,
    ResetPolicy,
    SingularSystem,
    validate_spin,
)
from . import angles as angles_mod
from . import wigner

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TransitionChain:
    """Row-stochastic transition matrix P[a, b] = Pr[m_a -> m_b]."""

    config: ProtocolConfig
    matrix: np.ndarray
    absorbing_index: int
    angles: np.ndarray  # rotation angle applied from each source state

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class AbsorptionReport:
    """Expected steps before absorption, per starting state.

    expected_steps_from is indexed like the m grid, with 0 at the target.
    It is computed on first access and cached; start_state_value, from the
    protocol's start state m = j, does not need it.
    """

    start_state_value: float
    angle_policy: str
    reset_policy: ResetPolicy
    two_j: int
    target_two_mt: int
    _fill: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def expected_steps_from(self) -> np.ndarray:
        return self._fill()


def _report(config: ProtocolConfig, start: float, fill: Callable[[], np.ndarray]) -> AbsorptionReport:
    return AbsorptionReport(
        start_state_value=start,
        angle_policy=config.angle_policy,
        reset_policy=config.reset_policy,
        two_j=config.two_j,
        target_two_mt=config.target_two_mt,
        _fill=fill,
    )


def _checked_rows(two_j: int, theta: np.ndarray, states: np.ndarray) -> Iterator[tuple[slice, wigner.Windows]]:
    """The outcome rows of the source states (grid indices) at their policy
    angles theta[states], on their windows (wigner.transition_windows), one
    stack at a time.  Each row is checked to sum to 1 within 1e-9 and
    raises SingularSystem otherwise; it is never renormalized here.  The
    chain and the Monte Carlo sampler both read their rows from here.
    """
    for rows, stack in wigner.transition_windows(two_j, 2 * states - two_j, theta[states]):
        row_dev = np.max(np.abs(np.add.reduceat(stack.values, stack.starts) - 1.0))
        if row_dev > _ROW_SUM_TOL:
            raise SingularSystem(f"row sums deviate from 1 by {row_dev:.3e}")
        yield rows, stack


def _routed_rows(
    config: ProtocolConfig, theta: np.ndarray, rerouted: np.ndarray, states: np.ndarray
) -> Iterator[tuple[slice, wigner.Windows, np.ndarray]]:
    """The checked rows of the source states (_checked_rows), with the mass
    measured at rerouted states zeroed.  Yields (rows, stack, moved):
    moved[k] is row k's rerouted mass, which goes to the start state m = j.
    Every step costs O(window), not O(n).
    """
    for rows, stack in _checked_rows(config.two_j, theta, states):
        moved = np.zeros(len(stack.lo))
        if rerouted.any():
            at = rerouted[stack.columns]
            moved = np.add.reduceat(np.where(at, stack.values, 0.0), stack.starts)
            stack.values[at] = 0.0
        yield rows, stack, moved


def _solve(q: np.ndarray) -> np.ndarray:
    """t with (I - q) t = 1; q is overwritten.

    Raises SingularSystem when (I - q) is singular to working precision
    (LAPACK's reciprocal condition estimate below eps) or when t is not an
    expected-steps vector: every transient state takes at least one step,
    so each entry must be finite and at least 1 (within 1e-9).
    """
    np.negative(q, out=q)
    q[np.diag_indices_from(q)] += 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            t = scipy.linalg.solve(q, np.ones(len(q)), overwrite_a=True, overwrite_b=True)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
        raise SingularSystem(f"(I - Q) is numerically singular: {exc}") from exc
    if not np.all(np.isfinite(t)):
        raise SingularSystem("(I - Q) solve produced non-finite expected steps")
    if len(t) and t.min() < 1.0 - 1e-9:
        raise SingularSystem(f"(I - Q) solve produced expected steps {t.min():.6g} < 1")
    return t


def build_chain(config: ProtocolConfig) -> TransitionChain:
    """Build the protocol's dense transition matrix under config's policies.

    Rows are the measurement outcome distributions at the policy angle for
    each source state (computed in stacks by the O(j) eigenvector kernel,
    which tests pin against a dense matrix exponential), with reset routing
    applied and the absorbing row at the target.  Every row is checked to sum to 1
    within 1e-9.
    """
    two_j = config.two_j
    n = two_j + 1
    i_t = config.target_index
    theta = angles_mod.policy_angles(two_j, config.target_two_mt, config.angle_policy)

    matrix = np.zeros((n, n))
    for rows, stack, moved in _routed_rows(config, theta, config.rerouted(), np.arange(n)):
        matrix[rows].ravel()[stack.flat_index(n)] = stack.values
        matrix[rows, -1] += moved
    matrix[i_t] = 0.0
    matrix[i_t, i_t] = 1.0
    return TransitionChain(config=config, matrix=matrix, absorbing_index=i_t, angles=theta)


def expected_steps(chain: TransitionChain) -> AbsorptionReport:
    """Solve (I - Q) t = 1 on a dense chain for the expected number of
    iterations before absorption.

    The solve runs only on the transient states the walk can enter: those
    with a non-zero column in the matrix, plus the start state m = j.  Every
    row's mass lies in entered columns, so each other transient state r
    follows exactly from one product, t_r = 1 + P[r, S] t_S.
    (I - Q) is block triangular in (S, rest) with identity on the rest, so
    it is singular exactly when its S block is.
    """
    n = chain.size
    i_t = chain.absorbing_index
    p = chain.matrix
    transient = np.arange(n) != i_t
    solved = p.any(axis=0) & transient
    solved[n - 1] = transient[n - 1]  # the start state, unless it is the target
    t = _solve(p[np.ix_(solved, solved)])
    out = np.zeros(n)
    out[solved] = t
    rest = transient & ~solved
    out[rest] = 1.0 + p[np.ix_(rest, solved)] @ t
    return _report(chain.config, float(out[n - 1]), lambda: out)


def expected_steps_for(
    two_j: int,
    target_two_mt: int = 0,
    angle_policy: str = AnglePolicy.GEOMETRIC,
    reset_policy: ResetPolicy | None = None,
) -> AbsorptionReport:
    """Expected steps under the given policies, solved on the entered block.

    Builds no n x n matrix: the rows of the entered set S are computed and
    routed in stacks, the S x S block is solved, and the other transient
    states are filled from their own rows on the first read of
    expected_steps_from (see the module docstring).  The sqrt_j reset keeps
    S to O(sqrt(j)) states, each row to an O(sqrt(j)) window.

    The solve and the fill run on classes, cls[i] the representative of
    grid state i: cls[i] = max(i, n - 1 - i), the class {m, -m}, at
    target_two_mt == 0, where the chain is lumpable on |m| (Kemeny & Snell,
    1960, ch. VI; the module docstring says why exactly), and i itself at
    any other target.  Only representatives get rows; a row's entries are
    summed per class of their columns, and every state reads t of its
    class, so expected_steps_from is mirror-symmetric at m_t = 0.  With
    the identity map every cell receives one value, the unlumped solve.
    """
    config = ProtocolConfig(
        two_j=two_j,
        target_two_mt=target_two_mt,
        angle_policy=angle_policy,
        reset_policy=reset_policy if reset_policy is not None else ResetPolicy(),
    )
    n = two_j + 1
    theta = angles_mod.policy_angles(two_j, target_two_mt, config.angle_policy)
    rerouted = config.rerouted()
    grid = np.arange(n)
    # each state's class representative: m -> |m| at m_t = 0, else itself
    cls = np.maximum(grid, n - 1 - grid) if target_two_mt == 0 else grid
    transient = grid != config.target_index
    entered = transient & ~rerouted
    entered[n - 1] = transient[n - 1]  # the reset destination, unless it is the target
    representative = cls == grid
    s = np.flatnonzero(entered & representative)
    place = np.full(n, -1)  # each representative's column in the S block
    place[s] = np.arange(len(s))
    q = np.zeros((len(s), len(s)))
    for rows, stack, moved in _routed_rows(config, theta, rerouted, s):
        at = place[cls[stack.columns]]
        kept = at >= 0  # the other columns are the target and the rerouted states, zero here
        # m' and -m' can share a cell: accumulate, onto zeros
        np.add.at(q[rows].ravel(), stack.flat_index(len(s), at)[kept], stack.values[kept])
        if entered[n - 1]:  # m = j is S's last state; else it is the target
            q[rows, -1] += moved
    t = _solve(q)

    def fill() -> np.ndarray:
        t_all = np.zeros(n)
        t_all[s] = t
        t_all = t_all[cls]  # t on S's classes; the rows' other entries (target, rerouted) are zero
        out = t_all.copy()
        rest = np.flatnonzero(transient & ~entered & representative)
        for rows, stack, moved in _routed_rows(config, theta, rerouted, rest):
            ahead = np.add.reduceat(stack.values * t_all[stack.columns], stack.starts)
            out[rest[rows]] = 1.0 + ahead + moved * t_all[-1]
        return out[cls]

    start = float(t[-1]) if entered[n - 1] else 0.0  # m = j is S's last state
    return _report(config, start, fill)


def naive_expected_steps(two_j: int) -> float:
    """Expected attempts of the rotate-by-pi/2-and-measure-from-scratch
    strategy until m = 0 is seen: 2^n / C(n, n/2), n = two_j.

    Grows like sqrt(pi * j): polynomial, not logarithmic.
    """
    if two_j % 2 != 0:
        raise OutOfRange("naive strategy needs integer j (even qubit count)")
    n = two_j
    log_p = math.lgamma(n + 1) - 2.0 * math.lgamma(n / 2 + 1) - n * math.log(2.0)
    return math.exp(-log_p)


def mt_sweep(
    two_j: int,
    angle_policy: str = AnglePolicy.GEOMETRIC,
    reset_policy: ResetPolicy | None = None,
) -> list[tuple[int, float]]:
    """Expected steps from the start state for every target m_t in 0..j.

    Defaults to no reset (the arbitrary-target protocol has none); the
    reset policy stays configurable.
    """
    validate_spin(two_j, two_j)  # OutOfRange for a negative or non-integer two_j
    reset = reset_policy if reset_policy is not None else ResetPolicy()
    out = []
    for two_mt in range(two_j % 2, two_j + 1, 2):
        report = expected_steps_for(
            two_j, target_two_mt=two_mt, angle_policy=angle_policy, reset_policy=reset
        )
        out.append((two_mt, report.start_state_value))
    return out
