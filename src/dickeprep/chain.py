"""Absorbing Markov chain of the protocol and exact expected running times.

The protocol's measurement record is a discrete-time Markov chain over the
2j+1 magnetization states: from state m the next state is drawn from
|d^j_{m',m}(theta_policy(m))|^2, with the target m_t absorbing.  A reset
policy reroutes, within the same time step, any probability mass measured
at |m'| above the threshold into the all-up state m = j (measure + reset
count as one loop iteration).

Expected absorption times come from the standard fundamental-matrix
identity: on the transient states, (I - Q) t = 1, solved on the states
the walk can enter (Kemeny & Snell, Finite Markov Chains, 1960).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    AnglePolicy,
    OutOfRange,
    ProtocolConfig,
    ResetPolicy,
    SingularSystem,
    SpinSpec,
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
    """Expected steps before absorption, per starting state."""

    expected_steps_from: np.ndarray  # indexed like the m grid; 0 at the target
    start_state_value: float         # from the protocol's start state m = j
    angle_policy: str
    reset_policy: ResetPolicy
    two_j: int
    target_two_mt: int


def build_chain(config: ProtocolConfig) -> TransitionChain:
    """Build the protocol's transition matrix under config's policies.

    Rows are the measurement outcome distributions at the policy angle for
    each source state (computed by the O(j) eigenvector kernel, which
    tests pin against a dense matrix exponential), with reset routing applied and
    the absorbing row at the target.  Every row is checked to sum to 1
    within 1e-9.
    """
    two_j = config.two_j
    n = two_j + 1
    i_t = config.target_index
    theta = angles_mod.policy_angles(two_j, config.target_two_mt, config.angle_policy)

    matrix = np.empty((n, n))
    for i in range(n):
        if i == i_t:
            matrix[i] = 0.0
            matrix[i, i] = 1.0
            continue
        spec = SpinSpec(two_j, 2 * i - two_j)
        matrix[i] = wigner.transition_probabilities(spec, theta[i])

    if config.reset_policy.kind != ResetPolicy.NONE:
        two_m_grid = wigner.two_m_values(two_j)
        rerouted = np.array(
            [config.reset_policy.triggers(two_j, int(tm)) for tm in two_m_grid]
        )
        rerouted[i_t] = False  # absorption wins over reset
        if rerouted.any():
            moved = matrix[:, rerouted].sum(axis=1)
            matrix[:, rerouted] = 0.0
            matrix[:, n - 1] += moved
            matrix[i_t] = 0.0
            matrix[i_t, i_t] = 1.0

    row_dev = np.max(np.abs(matrix.sum(axis=1) - 1.0))
    if row_dev > _ROW_SUM_TOL:
        raise SingularSystem(f"row sums deviate from 1 by {row_dev:.3e}")
    return TransitionChain(config=config, matrix=matrix, absorbing_index=i_t, angles=theta)


def expected_steps(chain: TransitionChain) -> AbsorptionReport:
    """Solve (I - Q) t = 1 for the expected number of iterations before
    absorption.

    The solve runs only on the transient states the walk can enter: those
    with a non-zero column in the matrix, plus the start state m = j.  Every
    row's mass lies in entered columns, so each other transient state r
    follows exactly from one product, t_r = 1 + P[r, S] t_S.  The sqrt_j
    reset shrinks the O(n^3) solve to its O(sqrt(j))-state window; without
    a reset every column is entered and the solve covers all transient
    states.
    (I - Q) is block triangular in (S, rest) with identity on the rest, so
    it is singular exactly when its S block is.
    """
    n = chain.size
    i_t = chain.absorbing_index
    out = np.zeros(n)
    if n > 1:
        p = chain.matrix
        transient = np.arange(n) != i_t
        solved = p.any(axis=0) & transient
        solved[n - 1] = transient[n - 1]  # the start state, unless it is the target
        a = p[np.ix_(solved, solved)]  # fresh copy; negate in place to save memory
        np.negative(a, out=a)
        a[np.diag_indices_from(a)] += 1.0
        try:
            t = scipy.linalg.solve(a, np.ones(len(a)), overwrite_a=True, overwrite_b=True)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystem(f"(I - Q) is numerically singular: {exc}") from exc
        if not np.all(np.isfinite(t)):
            raise SingularSystem("(I - Q) solve produced non-finite expected steps")
        out[solved] = t
        rest = transient & ~solved
        out[rest] = 1.0 + p[np.ix_(rest, solved)] @ t
    return AbsorptionReport(
        expected_steps_from=out,
        start_state_value=float(out[n - 1]),
        angle_policy=chain.config.angle_policy,
        reset_policy=chain.config.reset_policy,
        two_j=chain.config.two_j,
        target_two_mt=chain.config.target_two_mt,
    )


def expected_steps_for(
    two_j: int,
    target_two_mt: int = 0,
    angle_policy: str = AnglePolicy.GEOMETRIC,
    reset_policy: ResetPolicy | None = None,
) -> AbsorptionReport:
    """Convenience wrapper: build the chain and report expected steps."""
    config = ProtocolConfig(
        two_j=two_j,
        target_two_mt=target_two_mt,
        angle_policy=angle_policy,
        reset_policy=reset_policy if reset_policy is not None else ResetPolicy(),
    )
    return expected_steps(build_chain(config))


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
    reset = reset_policy if reset_policy is not None else ResetPolicy()
    out = []
    for two_mt in range(two_j % 2, two_j + 1, 2):
        report = expected_steps_for(
            two_j, target_two_mt=two_mt, angle_policy=angle_policy, reset_policy=reset
        )
        out.append((two_mt, report.start_state_value))
    return out
