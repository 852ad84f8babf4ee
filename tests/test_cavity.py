import math

import numpy as np
import pytest

from dickeprep.core import DomainError, RegimeViolation
from dickeprep import cavity


def _params(kappa=1.0, chi=0.01):
    return cavity.CavityParams(kappa=kappa, chi=chi)


def test_transmission_reference_points():
    p = _params(kappa=2.0)
    assert cavity.transmission(p, p.omega_c + 0.7, 0.7) == 1.0          # on resonance
    assert cavity.transmission(p, p.omega_c + 2.0 + 0.5, 0.5) == 0.5    # half-width off
    assert cavity.transmission(p, p.omega_c + 2.0, 0.0) == 0.5          # side of fringe


def test_transmission_bounds_and_peak():
    p = _params()
    offsets = np.linspace(-5, 5, 101)
    vals = [cavity.transmission(p, p.omega_c + o, 0.3) for o in offsets]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert offsets[int(np.argmax(vals))] == pytest.approx(0.3, abs=0.06)


def test_fisher_information_values():
    p = _params(kappa=3.0)
    assert cavity.fisher_information(p, 0.0) == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert cavity.fisher_information(p, 3.0) == pytest.approx(4.0 / 9.0, rel=1e-14)
    # kappa is the stationary point of I in Delta_a
    eps = 1e-6
    up = cavity.fisher_information(p, 3.0 + eps)
    down = cavity.fisher_information(p, 3.0 - eps)
    assert up < cavity.fisher_information(p, 3.0) and down < cavity.fisher_information(p, 3.0)


def test_crb_is_exact_inverse_of_fisher():
    p = _params(kappa=1.7)
    for delta in (0.0, 0.1, 0.33, 1.0):
        assert cavity.crb_variance(p, delta) * cavity.fisher_information(p, delta) == pytest.approx(
            1.0, rel=1e-12
        )


def test_fisher_matches_bernoulli_finite_difference():
    p = _params(kappa=1.3)
    for delta in (0.0, 0.05, 0.2):
        closed = cavity.fisher_information(p, delta)
        fd = cavity.fisher_information_bernoulli(p, delta)
        assert abs(closed - fd) < 1e-8 * max(1.0, closed)


def test_required_photons_scaling():
    p = _params(kappa=1.0, chi=0.01)
    n = cavity.required_photons(p, 1.0)
    assert 10_000 / 4 <= n <= 10_000 * 4
    # monotone decrease as chi grows at fixed kappa
    previous = n
    for chi in (0.02, 0.05, 0.1):
        current = cavity.required_photons(_params(chi=chi), 1.0)
        assert current < previous
        previous = current
    with pytest.raises(DomainError):
        cavity.required_photons(cavity.CavityParams(kappa=1.0, chi=0.0), 1.0)


def test_estimator_regime_violation():
    rng = np.random.default_rng(0)
    with pytest.raises(RegimeViolation):
        cavity.simulate_weight_estimator(_params(chi=0.1), 10, 5, 100, rng)


def test_estimator_consistency_trend():
    p = _params()
    n_atoms, w = 10, 4
    errors = []
    for photons in (1_000, 10_000, 100_000):
        errs = []
        for rep in range(60):
            rng = np.random.Generator(np.random.Philox(key=np.array([11, rep], dtype=np.uint64)))
            res = cavity.simulate_weight_estimator(p, n_atoms, w, photons, rng)
            errs.append(abs(res.estimate - w))
        errors.append(np.mean(errs))
    assert errors[2] < errors[1] < errors[0]


def test_estimator_variance_respects_crb():
    p = _params()
    study = cavity.estimator_variance_study(p, 10, 5, 10_000, 300, seed=3)
    guard = 1.0 - 3.0 * math.sqrt(2.0 / (300 - 1))
    assert study["empirical_variance"] >= study["crb_variance"] * guard
    assert study["mean_estimate"] == pytest.approx(5.0, abs=0.2)


def test_extreme_weights_distinguishable():
    p = _params()
    n_atoms = 10
    photons = cavity.required_photons(p, 1.0)
    mistakes = 0
    for true_w in (0, n_atoms):
        for rep in range(250):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([99 + true_w, rep], dtype=np.uint64))
            )
            res = cavity.simulate_weight_estimator(p, n_atoms, true_w, photons, rng)
            decided = 0 if res.estimate < n_atoms / 2.0 else n_atoms
            mistakes += decided != true_w
    assert mistakes == 0


def test_resonant_peak_gap():
    assert cavity.resonant_peak_gap(2.5, 1) == 2.5
    ratios = [cavity.resonant_peak_gap(1.0, n) * math.sqrt(n) for n in (10, 100, 10_000)]
    for r in ratios:
        assert 0.5 <= r <= 0.53
    assert abs(ratios[-1] - 0.5) < 1e-4


def test_resolvability_threshold_scales_like_sqrt_n():
    kappa = 0.8
    for n in (100, 1_000, 10_000, 100_000, 1_000_000):
        g_min = cavity.min_coupling_for_resolution(n, kappa)
        assert abs(g_min / (2.0 * kappa * math.sqrt(n)) - 1.0) < 0.05
        assert cavity.resolvable(g_min, n, kappa)
        assert not cavity.resolvable(0.99 * g_min, n, kappa)


def test_param_validation():
    with pytest.raises(DomainError):
        cavity.CavityParams(kappa=0.0, chi=0.1)
    with pytest.raises(DomainError):
        cavity.CavityParams(kappa=1.0, chi=-0.1)
    with pytest.raises(DomainError):
        cavity.EstimatorResult(true_weight=1, estimate=1.0, rounded_weight=1, variance=0.1, photons_used=0)
