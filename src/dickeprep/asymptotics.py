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

Bessel functions of the first kind are evaluated with Miller's backward
recurrence normalized by J_0 + 2*sum J_{2k} = 1 (library-independent; the
series definition and scipy serve as test oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, OutOfRange, ring_radius, validate_spin
from . import angles as angles_mod
from . import wigner


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


def compare_stationary_phase(
    two_j: int, two_m: int, interior: tuple[float, float] = (0.2, 1.8)
) -> list[AsymptoticComparison]:
    """Exact-vs-approx table over interior lattice points x in (lo, hi).

    The exact values come from one backend-b (eigenvector) column at
    arcsin(m/j); the interior window keeps clear of the diverging
    endpoints, where the expansion is not valid.
    """
    spec = validate_spin(two_j, two_m)
    if spec.two_m <= 0:
        raise DomainError("comparison needs m > 0")
    beta = math.asin(spec.m / spec.j)
    column = wigner.d_column(spec, beta)
    scale = error_scale(two_j, two_m)
    lo, hi = interior
    out = []
    for two_mp in range(two_j % 2, min(2 * two_m, two_j + 1), 2):
        x = two_mp / two_m
        if not (lo < x < hi):
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


# ---------------------------------------------------------------------------
# Bessel functions of the first kind (Miller's backward recurrence)

_BESSEL_MAX_ORDER = 200
_RESCALE = 1e250


def bessel_j_first_kind(order: int, x: float) -> float:
    """J_order(x) for integer order, accurate to ~1e-12 for |order| <= 200.

    Backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} started high above
    max(|order|, x) with an arbitrary seed, normalized with the identity
    J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1.
    """
    if abs(order) > _BESSEL_MAX_ORDER:
        raise OutOfRange(f"order {order} beyond the supported |order| <= {_BESSEL_MAX_ORDER}")
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    sign = 1.0
    if x < 0.0:
        x = -x
        if order % 2:
            sign = -sign
    if order < 0:
        order = -order
        if order % 2:
            sign = -sign
    if x == 0.0:
        return sign * (1.0 if order == 0 else 0.0)

    top = max(order, int(math.ceil(x)))
    start = top + int(math.ceil(2.0 * math.sqrt(16.0 * (top + 2)))) + 16
    if start % 2:
        start += 1

    j_hi = 0.0
    j_cur = 1e-30
    norm = 0.0
    target = 0.0
    for k in range(start, 0, -1):
        j_lo = (2.0 * k / x) * j_cur - j_hi
        j_hi, j_cur = j_cur, j_lo
        if k - 1 == order:
            target = j_cur
        if (k - 1) % 2 == 0:
            norm += 2.0 * j_cur if (k - 1) > 0 else j_cur
        if abs(j_cur) > _RESCALE:
            j_cur /= _RESCALE
            j_hi /= _RESCALE
            norm /= _RESCALE
            target /= _RESCALE
    return sign * target / norm


def bessel_limit(two_m: int, two_m_prime: int) -> float:
    """The fixed-offset large-j limit J_{m-m'}(m) of d^j_{m',m}(arcsin(m/j))."""
    if (two_m - two_m_prime) % 2 != 0:
        raise OutOfRange("two_m and two_m_prime must share a parity")
    order = (two_m - two_m_prime) // 2
    return bessel_j_first_kind(order, two_m / 2.0)


# ---------------------------------------------------------------------------
# contraction ratio, beta moments, reset probability


def _proxy(values: np.ndarray, sqrt_j: float) -> np.ndarray:
    """The capped magnetization proxy: |m| where |m| <= sqrt(j), else sqrt(j)+1."""
    mags = np.abs(values)
    return np.where(mags <= sqrt_j, mags, sqrt_j + 1.0)


def contraction_sum(
    two_j: int, alpha: float, two_m: int, angle_policy: str | None = None
) -> float:
    """One-step contraction ratio sum_{m'} |d^j_{m',m}|^2 * (M'^alpha / M^alpha).

    M caps the magnetization at sqrt(j)+1 so resets do not blow up the
    moment.  Exact d values at the policy angle (default arcsin(m/j));
    a value < 1 certifies one step of geometric decay for <M^alpha>.
    """
    spec = validate_spin(two_j, two_m)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    if two_m == 0:
        raise DomainError("m = 0 is absorbing; the ratio is undefined there")
    if two_m * two_m > 2 * two_j:
        raise DomainError("contraction regime requires |m| <= sqrt(j)")
    if angle_policy is None or angle_policy == "approx_mt0":
        theta = angles_mod.approx_angle_mt0(two_j, two_m)
    elif angle_policy == "geometric":
        theta = angles_mod.geometric_angle(two_j, 0, two_m)
    else:
        raise OutOfRange(f"unsupported angle policy {angle_policy!r}")
    probs = wigner.transition_probabilities(spec, theta)
    sqrt_j = math.sqrt(two_j / 2.0)
    m_proxy = _proxy(np.array([spec.m]), sqrt_j)[0]
    mp_proxy = _proxy(wigner.m_values(two_j), sqrt_j)
    return float(np.sum(probs * mp_proxy**alpha) / m_proxy**alpha)


def beta_function(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def beta_moment(alpha: float, two_j: int, two_m: int, two_mt: int) -> float:
    """Closed-form moment <(m'-m_t)^alpha | m> of the tilted-ring density:

        [B(alpha + 1/2, 1/2) / pi] * (2 r_m sin(theta_{m_t,m}))^alpha.

    At alpha = 1 this is r_m sin(theta) exactly (B(3/2,1/2) = pi/2).
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be > 0")
    source = validate_spin(two_j, two_m)
    validate_spin(two_j, two_mt)
    if two_m <= two_mt:
        raise DomainError("moment needs m > m_t")
    theta = angles_mod.geometric_angle(two_j, two_mt, two_m).radians
    diameter = 2.0 * ring_radius(source) * math.sin(theta)
    return beta_function(alpha + 0.5, 0.5) / math.pi * diameter**alpha


def reset_probability(two_j: int, two_m: int) -> float:
    """Closed-form large-j probability that a measurement lands beyond
    sqrt(j): 1/2 - arcsin(sqrt(j)/m - 1)/pi, for sqrt(j)/2 < m <= sqrt(j)."""
    validate_spin(two_j, two_m)
    if two_m <= 0:
        raise DomainError("reset probability regime needs m > 0")
    # sqrt(j)/2 < m <= sqrt(j), exactly on doubled integers:
    #   m > sqrt(j)/2  <=>  2*(two_m)^2 > two_j ;  m <= sqrt(j)  <=>  (two_m)^2 <= 2*two_j
    if not (2 * two_m * two_m > two_j and two_m * two_m <= 2 * two_j):
        raise DomainError("requires sqrt(j)/2 < m <= sqrt(j)")
    j = two_j / 2.0
    m = two_m / 2.0
    return 0.5 - math.asin(math.sqrt(j) / m - 1.0) / math.pi


def exact_reset_mass(two_j: int, two_m: int) -> float:
    """Exact tail mass sum_{|m'| > sqrt(j)} |d^j_{m',m}(arcsin(m/j))|^2."""
    spec = validate_spin(two_j, two_m)
    theta = angles_mod.approx_angle_mt0(two_j, two_m)
    probs = wigner.transition_probabilities(spec, theta)
    two_mp = wigner.two_m_values(two_j)
    tail = two_mp * two_mp > 2 * two_j
    return float(probs[tail].sum())
