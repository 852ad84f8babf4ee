"""Large-j analytic machinery and its numerical validation.

Implements the closed forms the runtime analysis rests on and pairs each
with the exact d-matrix numerics so their error scaling can be measured:

* the stationary-phase expansion of d^j_{m',m}(beta_m) at beta_m =
  arcsin(m/j), valid on 0 < m' < 2m with error O(max{m^2/j^2, 1/(m j)});
* its fixed-offset limit d^j_{m',m}(beta_m) -> J_{m-m'}(m) (Bessel);
* the one-step contraction ratio of the proxy moment <M^alpha>, which is
  < 1 and drives the logarithmic expected runtime;
* the beta-function moments of the tilted-ring transition density;
* the closed-form reset probability in the regime sqrt(j)/2 < m <= sqrt(j).

The Bessel limit is scipy.special.jv, imported on first use: no other
runtime path needs scipy.special (the power series is the test oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, OutOfRange, ResetPolicy, validate_spin, validate_target
from . import angles as angles_mod
from . import geometry, wigner


@dataclass(frozen=True)
class AsymptoticComparison:
    """Exact vs stationary-phase value of one d-matrix element."""

    two_j: int
    two_m: int
    two_m_prime: int
    exact: float
    approx: float
    abs_error: float
    predicted_error_scale: float  # max{m^2/j^2, 1/(m j)}


def stationary_phase_d(two_j: int, two_m: int, two_m_prime: int) -> float:
    """Stationary-phase value of d^j_{m',m} at the angle arcsin(m/j).

    With x = m'/m:

        sqrt(2/(pi m)) * [1-(1-x)^2]^(-1/4)
            * cos[m(1-x) arccos(1-x) - m sqrt(1-(1-x)^2) + pi/4]

    Defined for 0 < m' < 2m (the element is negligible outside); the
    prefactor diverges at the endpoints x in {0, 2}, which raise
    DomainError.
    """
    validate_spin(two_j, two_m)
    if (two_m_prime - two_j) % 2 != 0:
        raise OutOfRange("two_m_prime parity must match two_j")
    m = two_m / 2.0
    mp = two_m_prime / 2.0
    if m <= 0:
        raise DomainError("stationary-phase form needs m > 0")
    if not (0.0 < mp < 2.0 * m):
        raise DomainError(f"m'={mp} outside the support (0, {2 * m})")
    x = mp / m
    one_minus_x = 1.0 - x
    disc = 1.0 - one_minus_x * one_minus_x
    if disc <= 0.0:
        raise DomainError("prefactor diverges at the support endpoints")
    prefactor = math.sqrt(2.0 / (math.pi * m)) * disc ** (-0.25)
    phase = (
        m * one_minus_x * math.acos(one_minus_x)
        - m * math.sqrt(disc)
        + math.pi / 4.0
    )
    return prefactor * math.cos(phase)


def error_scale(two_j: int, two_m: int) -> float:
    """The predicted error magnitude max{m^2/j^2, 1/(m j)}."""
    j = two_j / 2.0
    m = two_m / 2.0
    return max(m * m / (j * j), 1.0 / (m * j))


def compare_stationary_phase(two_j: int, two_m: int) -> list[AsymptoticComparison]:
    """Exact-vs-approx table over the interior lattice points x = m'/m in
    (0.2, 1.8).

    The exact values come from one d_column at arcsin(m/j); the interior
    window keeps clear of the diverging endpoints x in {0, 2}, where the
    expansion is not valid.
    """
    spec = validate_spin(two_j, two_m)
    if spec.two_m <= 0:
        raise DomainError("comparison needs m > 0")
    beta = math.asin(spec.m / spec.j)
    column = wigner.d_column(spec, beta)
    scale = error_scale(two_j, two_m)
    out = []
    for two_mp in range(two_j % 2, min(2 * two_m, two_j + 1), 2):
        x = two_mp / two_m
        if not (0.2 < x < 1.8):
            continue
        exact = column.amplitude(two_mp)
        approx = stationary_phase_d(two_j, two_m, two_mp)
        out.append(
            AsymptoticComparison(
                two_j=two_j,
                two_m=two_m,
                two_m_prime=two_mp,
                exact=exact,
                approx=approx,
                abs_error=abs(exact - approx),
                predicted_error_scale=scale,
            )
        )
    return out


def bessel_limit(two_m: int, two_m_prime: int) -> float:
    """The fixed-offset large-j limit J_{m-m'}(m) of d^j_{m',m}(arcsin(m/j))."""
    if (two_m - two_m_prime) % 2 != 0:
        raise OutOfRange("two_m and two_m_prime must share a parity")
    from scipy.special import jv  # deferred: no other runtime path imports scipy.special (~45 ms)

    return float(jv((two_m - two_m_prime) // 2, two_m / 2.0))


# ---------------------------------------------------------------------------
# contraction ratio, beta moments, reset probability

_SQRT_J = ResetPolicy(kind=ResetPolicy.SQRT_J)  # the one rule for |m| > sqrt(j)


def contraction_sum(two_j: int, alpha: float, two_m: int) -> float:
    """One-step contraction ratio sum_{m'} |d^j_{m',m}|^2 * (M'^alpha / M^alpha).

    M caps the magnetization at sqrt(j)+1 where the sqrt_j reset fires
    (ResetPolicy.mask), so resets do not blow up the moment.  Exact d
    values at the approx_mt0 angle arcsin(m/j); a value < 1 certifies one
    step of geometric decay for <M^alpha>.
    """
    spec = validate_spin(two_j, two_m)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    if two_m == 0:
        raise DomainError("m = 0 is absorbing; the ratio is undefined there")
    if _SQRT_J.mask(two_j, two_m):
        raise DomainError("contraction regime requires |m| <= sqrt(j)")
    theta = angles_mod.approx_angle_mt0(two_j, two_m)
    probs = wigner.transition_probabilities(spec, theta)
    resets = _SQRT_J.mask(two_j, wigner.two_m_values(two_j))
    mp_proxy = np.where(resets, math.sqrt(two_j / 2.0) + 1.0, np.abs(wigner.m_values(two_j)))
    return float(np.sum(probs * mp_proxy**alpha) / mp_proxy[(two_m + two_j) // 2] ** alpha)


def beta_function(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def beta_moment(alpha: float, two_j: int, two_m: int, two_mt: int) -> float:
    """Closed-form moment <(m'-m_t)^alpha | m> of the tilted-ring density:

        [B(alpha + 1/2, 1/2) / pi] * (2 r_m sin(theta_{m_t,m}))^alpha.

    At alpha = 1 this is r_m sin(theta) exactly (B(3/2,1/2) = pi/2).
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be > 0")
    validate_spin(two_j, two_m)
    validate_target(two_j, two_mt)
    if two_m <= two_mt:
        raise DomainError("moment needs m > m_t")
    diameter = 2.0 * geometry.transition_band(two_j, two_m, two_mt)[2]
    return beta_function(alpha + 0.5, 0.5) / math.pi * diameter**alpha


def reset_probability(two_j: int, two_m: int) -> float:
    """Closed-form large-j probability that a measurement lands beyond
    sqrt(j): 1/2 - arcsin(sqrt(j)/m - 1)/pi, for sqrt(j)/2 < m <= sqrt(j)."""
    validate_spin(two_j, two_m)
    if two_m <= 0:
        raise DomainError("reset probability regime needs m > 0")
    # m > sqrt(j)/2  <=>  2*(two_m)^2 > two_j, exactly on doubled integers;
    # m <= sqrt(j)  <=>  the sqrt_j reset does not fire at m
    if 2 * two_m * two_m <= two_j or _SQRT_J.mask(two_j, two_m):
        raise DomainError("requires sqrt(j)/2 < m <= sqrt(j)")
    j = two_j / 2.0
    m = two_m / 2.0
    return 0.5 - math.asin(math.sqrt(j) / m - 1.0) / math.pi


def exact_reset_mass(two_j: int, two_m: int) -> float:
    """Exact tail mass sum_{|m'| > sqrt(j)} |d^j_{m',m}(arcsin(m/j))|^2."""
    spec = validate_spin(two_j, two_m)
    theta = angles_mod.approx_angle_mt0(two_j, two_m)
    probs = wigner.transition_probabilities(spec, theta)
    return float(probs[_SQRT_J.mask(two_j, wigner.two_m_values(two_j))].sum())
