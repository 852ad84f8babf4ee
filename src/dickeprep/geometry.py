"""Husimi-Q distributions, ring geometry, and the tilted-ring transition pdf.

On the collective Bloch sphere of radius sqrt(j(j+1)), the Q distribution of
a Dicke state |j,m> concentrates on a horizontal ring of radius
r_m = sqrt(j(j+1) - m^2) at height m.  A rotation tilts the ring; assuming
measurement probability proportional to the arc length between heights m'
and m'+dm' yields an arcsine-shaped (Beta(1/2,1/2)) transition density on
the band m_t < m' < m_t + 2 r_m sin(theta).

Normalization convention: the stated Q_m integrates to one against the
measure dOmega = (2j+1)/4 * sin(theta) dtheta dphi (the often-quoted
(2j+1)/(4*pi) weight leaves a stray 1/pi).  husimi_q_integral evaluates
the integral exactly via Gauss-Legendre in cos(theta), where the integrand
is a degree-2j polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, SpinSpec, ring_radius, validate_spin, validate_target
from . import angles as angles_mod
from . import wigner


def _log_binomial(spec: SpinSpec) -> tuple[int, int, float]:
    """(j + m, j - m, log C(2j, j + m)): the powers and the log binomial
    factor of Q_m."""
    jm = (spec.two_j + spec.two_m) // 2   # j + m
    jmm = (spec.two_j - spec.two_m) // 2  # j - m
    return jm, jmm, math.lgamma(spec.two_j + 1) - math.lgamma(jm + 1) - math.lgamma(jmm + 1)


def husimi_q_dicke(spec: SpinSpec, theta: float) -> float:
    """Q_m(theta) = (1/pi) C(2j, j+m) cos^{2(j+m)}(t/2) sin^{2(j-m)}(t/2).

    Independent of the azimuth phi for Dicke states, which are axially
    symmetric.  Binomial factor evaluated in log space to survive 2j > 60.
    """
    jm, jmm, log_binom = _log_binomial(spec)
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    if (c == 0.0 and jm > 0) or (s == 0.0 and jmm > 0):
        return 0.0
    log_val = log_binom
    if jm > 0:
        log_val += 2.0 * jm * math.log(abs(c))
    if jmm > 0:
        log_val += 2.0 * jmm * math.log(abs(s))
    return math.exp(log_val) / math.pi


def husimi_q_log_derivative(spec: SpinSpec, theta: float) -> float:
    """d/dtheta of log Q_m: -(j+m) tan(t/2) + (j-m) cot(t/2).

    Vanishes exactly at the ring latitude cos(theta) = m/j.
    """
    jm = (spec.two_j + spec.two_m) / 2.0
    jmm = (spec.two_j - spec.two_m) / 2.0
    return -jm * math.tan(theta / 2.0) + jmm / math.tan(theta / 2.0)


@dataclass(frozen=True)
class QDistribution:
    """Husimi-Q values of a Dicke state on a polar-angle grid.

    Values are non-negative and phi-independent; integrated against
    (2j+1)/4 sin(theta) dtheta dphi the distribution carries unit mass
    (see husimi_q_integral).
    """

    spec: SpinSpec
    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.thetas.shape != self.values.shape:
            raise DomainError("theta grid and values must have matching shapes")
        if np.any(self.values < 0.0):
            raise DomainError("Q values must be non-negative")


def husimi_q_profile(spec: SpinSpec, n_grid: int = 181) -> QDistribution:
    """Q_m sampled on a uniform theta grid of n_grid >= 1 points over [0, pi]."""
    if n_grid < 1:
        raise DomainError(f"n_grid must be >= 1, got {n_grid}")
    thetas = np.linspace(0.0, math.pi, n_grid)
    values = np.array([husimi_q_dicke(spec, float(t)) for t in thetas])
    return QDistribution(spec=spec, thetas=thetas, values=values)


def husimi_q_integral(spec: SpinSpec) -> float:
    """Integral of Q_m against dOmega = (2j+1)/4 sin(theta) dtheta dphi.

    Exact (returns 1 up to rounding): in u = cos(theta) the integrand is a
    polynomial of degree 2j, and Gauss-Legendre with floor(j) + 2 > j
    nodes integrates it exactly.
    """
    two_j = spec.two_j
    u, w = np.polynomial.legendre.leggauss(two_j // 2 + 2)
    jm, jmm, log_binom = _log_binomial(spec)
    # cos^2(t/2) = (1+u)/2, sin^2(t/2) = (1-u)/2
    with np.errstate(divide="ignore"):
        log_q = log_binom + jm * np.log((1.0 + u) / 2.0) + jmm * np.log((1.0 - u) / 2.0)
    q = np.where(np.isfinite(log_q), np.exp(log_q), 0.0) / math.pi
    weight = (two_j + 1.0) / 4.0 * 2.0 * math.pi  # phi integral done analytically
    return float(weight * np.sum(w * q))


# ---------------------------------------------------------------------------
# tilted-ring transition density


def infinitesimal_arc_length(r: float, a: float) -> float:
    """ds/da = 2 / sqrt(1 - (a/r)^2): arc per unit chord offset a, |a| < r.

    Integrating over a in (-r, r) recovers the circumference 2 pi r.
    """
    if r <= 0.0:
        raise DomainError("ring radius must be positive")
    if abs(a) >= r:
        raise DomainError(f"|a|={abs(a)} must be < r={r}")
    return 2.0 / math.sqrt(1.0 - (a / r) ** 2)


def transition_band(two_j: int, two_m: int, two_mt: int) -> tuple[float, float, float]:
    """(m_t, m_t + 2 r_m sin(theta), r_m sin(theta)): the pdf's support and
    its half-width, at the tangency angle."""
    source = validate_spin(two_j, two_m)
    target = validate_target(two_j, two_mt)
    theta = angles_mod.geometric_angle(two_j, two_mt, two_m).radians
    half_width = ring_radius(source) * math.sin(theta)
    return target.m, target.m + 2.0 * half_width, half_width


def geometric_transition_pdf(two_j: int, two_m: int, two_mt: int, m_prime: float) -> float:
    """Arc-length density p(m') = 1 / [pi R sqrt(u(2-u))], u = (m'-m_t)/R,
    R = r_m sin(theta_{m_t,m}); zero outside the open band (m_t, m_t+2R)."""
    mt, hi, half_width = transition_band(two_j, two_m, two_mt)
    if half_width <= 0.0:
        return 0.0
    u = (m_prime - mt) / half_width
    if u <= 0.0 or u >= 2.0:
        return 0.0
    return 1.0 / (math.pi * half_width * math.sqrt(u * (2.0 - u)))


def _arcsine_cdf(mt: float, half_width: float, m_prime: np.ndarray) -> np.ndarray:
    """The tilted-ring density's CDF at each m': an arcsine law in
    u = (m' - m_t)/R, clipped to the band [0, 2], with CDF
    (arcsin(u-1) + pi/2)/pi."""
    u = np.clip((m_prime - mt) / half_width, 0.0, 2.0)
    return (angles_mod._asin(u - 1.0) + math.pi / 2.0) / math.pi


def transition_interval_mass(
    two_j: int, two_m: int, two_mt: int, lo: float, hi: float
) -> float:
    """Exact mass of the tilted-ring density on [lo, hi] (_arcsine_cdf)."""
    mt, _, half_width = transition_band(two_j, two_m, two_mt)
    if half_width <= 0.0 or hi <= lo:
        return 0.0
    return float(np.diff(_arcsine_cdf(mt, half_width, np.array([lo, hi], dtype=float)))[0])


def pdf_moment_quadrature(alpha: float, two_j: int, two_m: int, two_mt: int) -> float:
    """Moment <(m'-m_t)^alpha> of the transition density by quadrature.

    Uses the substitution u = 1 - cos(v), which removes the inverse-square-
    root endpoint singularities: the integral becomes
    (1/pi) * int_0^pi (R (1 - cos v))^alpha dv.
    """
    from scipy.integrate import quad

    if alpha <= 0.0:
        raise DomainError("alpha must be > 0")
    if two_m <= two_mt:
        raise DomainError("moment quadrature needs m > m_t (band above the target)")
    _, _, half_width = transition_band(two_j, two_m, two_mt)

    def integrand(v: float) -> float:
        return (half_width * (1.0 - math.cos(v))) ** alpha / math.pi

    value, _ = quad(integrand, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


def discretized_pdf_lattice(two_j: int, two_m: int, two_mt: int) -> np.ndarray:
    """Lattice masses of the tilted-ring density: the [m'-1/2, m'+1/2] bin
    mass at every magnetization lattice point, indexed like the amplitude
    grid.  Sums to 1 (the full band is covered)."""
    if two_m <= two_mt:
        raise DomainError("discretization needs m > m_t (band above the target)")
    mt, _, half_width = transition_band(two_j, two_m, two_mt)
    if half_width <= 0.0:
        return np.zeros(two_j + 1)
    # bin i's upper edge m'_i + 1/2 is bin i+1's lower edge, the same double
    m_grid = wigner.m_values(two_j)
    return np.diff(_arcsine_cdf(mt, half_width, np.append(m_grid - 0.5, m_grid[-1] + 0.5)))


def tv_distance_discretized(two_j: int, two_m: int, two_mt: int) -> float:
    """Total-variation distance between the discretized tilted-ring density
    and the exact outcome distribution at the tangency angle."""
    spec = validate_spin(two_j, two_m)
    theta = angles_mod.geometric_angle(two_j, two_mt, two_m).radians
    exact = wigner.transition_probabilities(spec, theta)
    disc = discretized_pdf_lattice(two_j, two_m, two_mt)
    return 0.5 * float(np.abs(disc - exact).sum())
