import math

import numpy as np
import pytest
from scipy.integrate import quad

from dickeprep.core import DomainError, SpinSpec
from dickeprep import geometry


def test_husimi_pole_value():
    for two_j in (2, 10, 60):
        assert geometry.husimi_q_dicke(SpinSpec(two_j, two_j), 0.0) == pytest.approx(
            1.0 / math.pi, rel=1e-14
        )


def test_husimi_phi_independent_and_equator_peak():
    spec = SpinSpec(40, 0)
    thetas = np.linspace(0.05, math.pi - 0.05, 201)
    vals = [geometry.husimi_q_dicke(spec, t) for t in thetas]
    assert thetas[int(np.argmax(vals))] == pytest.approx(math.pi / 2, abs=0.02)


@pytest.mark.parametrize("two_j,two_m", [(4, 0), (50, 20), (200, -100), (2000, 186), (7, 3)])
def test_husimi_normalization(two_j, two_m):
    # unit integral against (2j+1)/4 sin(theta) dtheta dphi
    assert geometry.husimi_q_integral(SpinSpec(two_j, two_m)) == pytest.approx(1.0, abs=1e-6)


def test_husimi_profile_container():
    prof = geometry.husimi_q_profile(SpinSpec(20, 10), n_grid=91)
    assert prof.thetas.shape == prof.values.shape == (91,)
    assert np.all(prof.values >= 0.0)
    peak = prof.thetas[int(np.argmax(prof.values))]
    assert peak == pytest.approx(math.acos(0.5), abs=0.04)
    with pytest.raises(DomainError):
        geometry.QDistribution(SpinSpec(2, 0), np.zeros(3), np.array([0.1, -0.2, 0.3]))


def test_husimi_ring_peak_latitude():
    # d(log Q)/dtheta vanishes at arccos(m/j), to machine precision
    for two_j, two_m in [(20, 10), (100, -40), (400, 2)]:
        spec = SpinSpec(two_j, two_m)
        theta0 = math.acos(spec.m / spec.j)
        assert abs(geometry.husimi_q_log_derivative(spec, theta0)) < 1e-9 * spec.j


def test_arc_length_values():
    assert geometry.infinitesimal_arc_length(3.0, 0.0) == 2.0
    assert geometry.infinitesimal_arc_length(1.0, 1.0 - 1e-13) > 1e6
    with pytest.raises(DomainError):
        geometry.infinitesimal_arc_length(1.0, 1.0)
    with pytest.raises(DomainError):
        geometry.infinitesimal_arc_length(-1.0, 0.0)


def test_arc_length_circumference():
    # ds/da = 2r [(r-a)(r+a)]^{-1/2}; integrate the algebraic weight exactly
    r = 2.37
    val, _ = quad(lambda a: 2.0 * r, -r, r, weight="alg", wvar=(-0.5, -0.5))
    assert val == pytest.approx(2.0 * math.pi * r, abs=1e-8)
    # and the raw form matches its antiderivative away from the endpoints
    inner, _ = quad(lambda a: geometry.infinitesimal_arc_length(r, a), -r / 2, r / 2)
    direct = 2.0 * r * (math.asin(0.5) - math.asin(-0.5))
    assert inner == pytest.approx(direct, abs=1e-9)


def test_pdf_midpoint_and_support():
    two_j, two_m, two_mt = 100, 14, 0
    mt, hi, half_width = geometry.transition_band(two_j, two_m, two_mt)
    mid = mt + half_width
    assert geometry.geometric_transition_pdf(two_j, two_m, two_mt, mid) == pytest.approx(
        1.0 / (math.pi * half_width), rel=1e-13
    )
    assert geometry.geometric_transition_pdf(two_j, two_m, two_mt, mt - 0.1) == 0.0
    assert geometry.geometric_transition_pdf(two_j, two_m, two_mt, hi + 0.1) == 0.0
    assert geometry.geometric_transition_pdf(two_j, two_m, two_mt, mt) == 0.0


def test_pdf_normalization_by_weighted_quadrature():
    # independent oracle: quad with explicit algebraic endpoint weights
    # p(m') = (1/pi) * [(m'-lo)(hi-m')]^{-1/2}
    two_j, two_m, two_mt = 100, 14, 0
    lo, hi, _ = geometry.transition_band(two_j, two_m, two_mt)
    val, _ = quad(lambda x: 1.0 / math.pi, lo, hi, weight="alg", wvar=(-0.5, -0.5))
    assert val == pytest.approx(1.0, abs=1e-10)
    mass = geometry.transition_interval_mass(two_j, two_m, two_mt, lo, hi)
    assert mass == pytest.approx(1.0, abs=1e-14)


def test_pdf_matches_closed_form_interval_mass():
    two_j, two_m, two_mt = 100, 14, 0
    lo, hi, _ = geometry.transition_band(two_j, two_m, two_mt)
    a, b = lo + 0.3 * (hi - lo), lo + 0.8 * (hi - lo)
    direct, _ = quad(
        lambda x: geometry.geometric_transition_pdf(two_j, two_m, two_mt, x), a, b
    )
    assert direct == pytest.approx(
        geometry.transition_interval_mass(two_j, two_m, two_mt, a, b), abs=1e-9
    )


def test_discretized_lattice_sums_to_one():
    disc = geometry.discretized_pdf_lattice(100, 14, 0)
    assert disc.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(disc >= 0.0)


def test_tv_distance_decreases_with_j():
    tvs = [
        geometry.tv_distance_discretized(2 * j, 2 * (math.isqrt(j) // 2), 0)
        for j in (100, 400)
    ]
    assert 0.0 < tvs[1] < tvs[0] < 1.0


def test_pdf_moments_are_beta_shaped():
    # alpha-moments of the arcsine density match the closed beta form
    from dickeprep.asymptotics import beta_moment

    for alpha in (0.25, 0.6, 1.3):
        closed = beta_moment(alpha, 144, 16, 0)
        quadr = geometry.pdf_moment_quadrature(alpha, 144, 16, 0)
        assert abs(closed - quadr) < 1e-8
