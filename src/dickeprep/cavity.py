"""Dispersive-cavity model of the collective Hamming-weight measurement.

With every qubit's |1> component dispersively shifting the cavity by chi,
the total shift is Delta_a = chi * w for Hamming weight w, and the
Lorentzian transmission T = kappa^2 / ((omega - omega_c - Delta_a)^2 +
kappa^2) moves under the probe.  Probing on the side of the fringe at
omega - omega_c = kappa, each detected photon is a Bernoulli(T) event; the
per-photon Fisher information about Delta_a is

    I(Delta_a) = 4 kappa^2 / (2 kappa^2 - 2 kappa Delta_a + Delta_a^2)^2,

which is exactly (dT/dDelta)^2 / (T(1-T)) for Bernoulli detection, and the
Cramer-Rao bound reads Var >= (kappa - Delta_a + Delta_a^2/(2 kappa))^2 per
photon.  Estimating the weight to O(1) variance therefore needs
N ~ (kappa/chi)^2 photons.

The resonant alternative resolves neighboring vacuum-Rabi peaks spaced
g(sqrt(n) - sqrt(n-1)) ~ g/(2 sqrt(n)); only the peak-gap resolvability
arithmetic is modeled here, and those functions take g as an argument.
CavityParams holds only what the dispersive model reads (kappa, chi,
omega_c); the probe point is fixed at omega - omega_c = kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, RegimeViolation, rng_stream

# "much less than" made testable: dispersive operation requires chi*n <= kappa/5
DISPERSIVE_FACTOR = 5.0


@dataclass(frozen=True)
class CavityParams:
    """Cavity and coupling parameters, all in the same angular-frequency unit.

    kappa: cavity linewidth; chi: dispersive shift per excited qubit
    (g^2/delta); omega_c: bare cavity frequency.  The probe sits at the
    side-of-fringe point omega - omega_c = kappa, and the resonant-scheme
    functions take their coupling g as an argument.
    """

    kappa: float
    chi: float
    omega_c: float = 0.0

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0):
            raise DomainError("kappa must be > 0")
        if self.chi < 0.0:
            raise DomainError("chi must be >= 0")


@dataclass(frozen=True)
class EstimatorResult:
    """One simulated weight estimate from photon counting."""

    true_weight: int
    estimate: float          # continuous ML estimate of the weight
    rounded_weight: int      # nearest integer in [0, n]
    variance: float          # nominal CRB variance of the weight estimate
    photons_used: int

    def __post_init__(self) -> None:
        if self.photons_used < 1:
            raise DomainError("photons_used must be >= 1")


def transmission(params: CavityParams, omega: float, delta_a: float) -> float:
    """Lorentzian line: kappa^2 / ((omega - omega_c - Delta_a)^2 + kappa^2)."""
    detune = omega - params.omega_c - delta_a
    k2 = params.kappa * params.kappa
    return k2 / (detune * detune + k2)


def fisher_information(params: CavityParams, delta_a: float) -> float:
    """Per-photon Fisher information about Delta_a at the side-of-fringe
    probe omega - omega_c = kappa:

        I = 4 kappa^2 / (2 kappa^2 - 2 kappa Delta_a + Delta_a^2)^2.
    """
    k = params.kappa
    denom = 2.0 * k * k - 2.0 * k * delta_a + delta_a * delta_a
    return 4.0 * k * k / (denom * denom)


def fisher_information_bernoulli(params: CavityParams, delta_a: float) -> float:
    """Finite-difference Bernoulli-model Fisher information (dT/dD)^2/(T(1-T)).

    Cross-check of the closed form; central difference with step 3e-5 kappa
    keeps both truncation and roundoff below 1e-9 relative.
    """
    k = params.kappa
    h = 3e-5 * k
    omega = params.omega_c + k
    t_mid = transmission(params, omega, delta_a)
    slope = (
        transmission(params, omega, delta_a + h) - transmission(params, omega, delta_a - h)
    ) / (2.0 * h)
    return slope * slope / (t_mid * (1.0 - t_mid))


def crb_variance(params: CavityParams, delta_a: float) -> float:
    """Single-photon Cramer-Rao bound (kappa - Delta_a + Delta_a^2/(2 kappa))^2."""
    k = params.kappa
    return (k - delta_a + delta_a * delta_a / (2.0 * k)) ** 2


def required_photons(params: CavityParams, target_variance: float) -> int:
    """Smallest N with worst-case CRB(Delta_a)/(chi^2 N) <= target_variance.

    The worst case runs over the operating range Delta_a in [0, kappa/5],
    the dispersive regime's cap.  The CRB factor falls on [0, kappa] (its
    derivative is Delta_a/kappa - 1), so the worst case is kappa^2 at
    Delta_a = 0 and N = ceil((kappa/chi)^2 / target).
    """
    if params.chi <= 0.0:
        raise DomainError("required_photons needs chi > 0")
    if target_variance <= 0.0:
        raise DomainError("target_variance must be > 0")
    return max(1, math.ceil(crb_variance(params, 0.0) / (params.chi**2 * target_variance)))


def simulate_weight_estimator(
    params: CavityParams,
    n_atoms: int,
    true_weight: int,
    n_photons: int,
    rng: np.random.Generator,
) -> EstimatorResult:
    """Simulate side-of-fringe photon counting and invert for the weight.

    Each probe photon transmits independently with probability T(Delta_a)
    (shot-noise-limited counting, no detector imperfections).  The ML
    estimate inverts the observed rate through the Lorentzian on the
    near-side branch, then Delta_a/chi is clamped to [0, n]; the returned
    continuous estimate is kept unrounded so Cramer-Rao comparisons stay
    meaningful.
    """
    if not (0 <= true_weight <= n_atoms):
        raise DomainError("true_weight must lie in [0, n_atoms]")
    if n_photons < 1:
        raise DomainError("n_photons must be >= 1")
    if params.chi * n_atoms > params.kappa / DISPERSIVE_FACTOR:
        raise RegimeViolation(
            f"dispersive regime needs chi*n <= kappa/{DISPERSIVE_FACTOR:g}: "
            f"chi*n = {params.chi * n_atoms:g}, kappa = {params.kappa:g}"
        )
    k = params.kappa
    delta_true = params.chi * true_weight
    t_true = transmission(params, params.omega_c + k, delta_true)
    successes = int(rng.binomial(n_photons, t_true))

    if successes == 0:
        delta_hat = -math.inf  # rate 0 is off the near-side branch; clamps to 0
    elif successes == n_photons:
        delta_hat = k  # rate 1 is the peak: Delta = probe offset
    else:
        t_hat = successes / n_photons
        delta_hat = k - k * math.sqrt((1.0 - t_hat) / t_hat)
    weight_estimate = min(max(delta_hat / params.chi, 0.0), float(n_atoms))
    nominal_var = crb_variance(params, delta_true) / (n_photons * params.chi**2)
    return EstimatorResult(
        true_weight=true_weight,
        estimate=weight_estimate,
        rounded_weight=int(round(weight_estimate)),
        variance=nominal_var,
        photons_used=n_photons,
    )


def estimator_variance_study(
    params: CavityParams,
    n_atoms: int,
    true_weight: int,
    n_photons: int,
    repetitions: int,
    seed: int = 0,
) -> dict:
    """Empirical estimator variance over repetitions vs the CRB.

    Returns the empirical mean/variance of the continuous weight estimate,
    the per-run CRB on the weight variance, and the one-sided z-score of
    (empirical - CRB) in units of the variance estimator's own standard
    error (~ Var * sqrt(2/(R-1))).
    """
    if repetitions < 2:
        raise DomainError("repetitions must be >= 2")
    estimates = np.empty(repetitions)
    for i in range(repetitions):
        estimates[i] = simulate_weight_estimator(
            params, n_atoms, true_weight, n_photons, rng_stream(seed, i)
        ).estimate
    emp_var = float(estimates.var(ddof=1))
    crb = crb_variance(params, params.chi * true_weight) / (n_photons * params.chi**2)
    var_se = emp_var * math.sqrt(2.0 / (repetitions - 1))
    return {
        "mean_estimate": float(estimates.mean()),
        "empirical_variance": emp_var,
        "crb_variance": crb,
        "z_score": (emp_var - crb) / var_se,
        "repetitions": repetitions,
        "photons": n_photons,
    }


# ---------------------------------------------------------------------------
# resonant-scheme peak-gap arithmetic


def resonant_peak_gap(g: float, n: int) -> float:
    """Spacing g(sqrt(n) - sqrt(n-1)) of adjacent vacuum-Rabi peaks."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return g * (math.sqrt(n) - math.sqrt(n - 1.0))


def resolvable(g: float, n: int, kappa: float) -> bool:
    """Whether adjacent peaks are separated by at least a linewidth."""
    return resonant_peak_gap(g, n) >= kappa


def min_coupling_for_resolution(n: int, kappa: float) -> float:
    """Smallest g with gap >= kappa: kappa/(sqrt(n)-sqrt(n-1)) ~ 2 kappa sqrt(n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return kappa / (math.sqrt(n) - math.sqrt(n - 1.0))
