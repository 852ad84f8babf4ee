import math

import numpy as np
import pytest
from scipy.special import jv

from dickeprep.core import DomainError, SpinSpec
from dickeprep import asymptotics, geometry, wigner

from oracles import bessel_series


def test_stationary_phase_collapses_at_x_equal_one():
    # m' = m: 1-x = 0, so the arccos term drops and the phase is pi/4 - m
    two_j, two_m = 20000, 200
    m = 100.0
    got = asymptotics.stationary_phase_d(two_j, two_m, two_m)
    expected = math.sqrt(2.0 / (math.pi * m)) * math.cos(math.pi / 4.0 - m)
    assert got == pytest.approx(expected, rel=1e-14)


def test_stationary_phase_domain():
    with pytest.raises(DomainError):
        asymptotics.stationary_phase_d(20000, 200, -2)
    with pytest.raises(DomainError):
        asymptotics.stationary_phase_d(20000, 200, 0)
    with pytest.raises(DomainError):
        asymptotics.stationary_phase_d(20000, 200, 400)
    with pytest.raises(DomainError):
        asymptotics.stationary_phase_d(20000, 0, 10)


def test_stationary_phase_error_at_reference_point():
    # empirically fitted constants: C = 2 at the single reference element,
    # C = 20 across its interior window
    two_j, two_m = 20000, 200
    scale = asymptotics.error_scale(two_j, two_m)
    spec = SpinSpec(two_j, two_m)
    beta = math.asin(spec.m / spec.j)
    exact = wigner.d_column(spec, beta).amplitude(100)
    approx = asymptotics.stationary_phase_d(two_j, two_m, 100)
    assert abs(exact - approx) <= 2.0 * scale
    comps = asymptotics.compare_stationary_phase(two_j, two_m)
    assert comps and all(c.abs_error <= 20.0 * scale for c in comps)
    assert all(c.abs_error == abs(c.exact - c.approx) for c in comps)


def test_stationary_phase_error_shrinks_with_j():
    errs = []
    for j in (1000, 4000):
        m = int(math.isqrt(j) // 3)
        comps = asymptotics.compare_stationary_phase(2 * j, 2 * m)
        errs.append(max(c.abs_error for c in comps))
    assert errs[1] < errs[0]


def test_bessel_against_scipy_and_series():
    # bessel_limit(two_m, two_m') is J_order(x) with order = (two_m - two_m') / 2, x = two_m / 2
    for order in range(-6, 7):
        for x in (0.5, 2.0, 9.0):
            two_m = round(2 * x)
            mine = asymptotics.bessel_limit(two_m, two_m - 2 * order)
            assert mine == pytest.approx(bessel_series(order, x), abs=1e-12)


def test_bessel_special_values():
    assert asymptotics.bessel_limit(0, 0) == 1.0  # J_0(0)
    assert asymptotics.bessel_limit(0, -6) == 0.0  # J_3(0)
    # negative order and negative argument parities
    assert asymptotics.bessel_limit(10, 16) == pytest.approx(-bessel_series(3, 5.0), abs=1e-13)
    assert asymptotics.bessel_limit(-10, -14) == pytest.approx(bessel_series(2, 5.0), abs=1e-13)


def test_bessel_limit_examples():
    assert asymptotics.bessel_limit(40, 40) == pytest.approx(float(jv(0, 20.0)), abs=1e-12)
    # nonzero transition amplitudes at the tested integer points
    for off in range(-3, 4):
        assert abs(asymptotics.bessel_limit(40, 40 - 2 * off)) > 1e-2


def test_bessel_limit_approached_by_exact_d():
    gaps = []
    for j in (1000, 10000):
        spec = SpinSpec(2 * j, 40)
        beta = math.asin(20.0 / j)
        exact = wigner.d_column(spec, beta).amplitude(38)
        gaps.append(abs(exact - asymptotics.bessel_limit(40, 38)))
    assert gaps[1] < gaps[0]


def test_contraction_sum_below_one():
    for j in (400, 2500):
        lo = math.ceil(j**0.25)
        hi = math.isqrt(j)
        values = [
            asymptotics.contraction_sum(2 * j, 0.05, 2 * m) for m in range(lo, hi + 1, 3)
        ]
        assert all(v < 1.0 for v in values)


def test_contraction_sum_spec_example_window():
    # j = 2500, every integer m in [5, 50]
    values = [asymptotics.contraction_sum(5000, 0.05, 2 * m) for m in range(5, 51)]
    assert max(values) < 1.0


def test_contraction_sum_preconditions():
    with pytest.raises(DomainError):
        asymptotics.contraction_sum(400, 1.2, 10)
    with pytest.raises(DomainError):
        asymptotics.contraction_sum(400, 0.05, 0)
    with pytest.raises(DomainError):
        asymptotics.contraction_sum(400, 0.05, 100)  # m > sqrt(j)


@pytest.mark.parametrize(
    "two_j,alpha,two_m,bits",
    [
        (400, 0.05, 2, "0x1.a067400b6fd59p-1"),
        (400, 0.7, -20, "0x1.be9a38acb262dp-1"),
        (800, 0.05, 40, "0x1.e32499bd49694p-1"),  # m = sqrt(j) exactly
        (800, 0.7, -26, "0x1.c78b912348ae1p-1"),
        (5000, 0.05, 100, "0x1.e748143159ebap-1"),  # m = sqrt(j) exactly
        (5000, 0.7, 10, "0x1.e0c9d3c674be4p-1"),
        (20000, 0.05, 200, "0x1.e8dcc8370f391p-1"),  # m = sqrt(j) exactly
        (20000, 0.7, -2, "0x1.e30cab5ef960dp-1"),
        (801, 0.3, 21, "0x1.d7c2f86cbe7bdp-1"),
        (801, 0.3, -39, "0x1.b296aec9460f1p-1"),
    ],
)
def test_contraction_sum_bits_are_pinned(two_j, alpha, two_m, bits):
    # the proxy's cap at sqrt(j) is read off the sqrt_j reset mask; these are
    # the bits of the former float cap |m| <= sqrt(j)
    assert asymptotics.contraction_sum(two_j, alpha, two_m).hex() == bits
    beyond = next(t for t in range(two_j % 2, two_j + 1, 2) if t * t > 2 * two_j)  # first |m| > sqrt(j)
    with pytest.raises(DomainError):
        asymptotics.contraction_sum(two_j, alpha, beyond)


def test_beta_moment_alpha_one_identity():
    # B(3/2, 1/2)/pi = 1/2, so the alpha=1 moment is r_m sin(theta)
    from dickeprep.angles import geometric_angle
    from dickeprep.core import ring_radius

    two_j, two_m, two_mt = 100, 14, 0
    moment = asymptotics.beta_moment(1.0, two_j, two_m, two_mt)
    theta = geometric_angle(two_j, two_mt, two_m).radians
    expected = ring_radius(SpinSpec(two_j, two_m)) * math.sin(theta)
    assert moment == pytest.approx(expected, rel=1e-13)


def test_beta_prefactor_strictly_below_one():
    for alpha in np.arange(0.1, 0.95, 0.1):
        val = asymptotics.beta_function(alpha + 0.5, 0.5) / math.pi * 2.0**alpha
        assert val < 1.0
    # endpoints give exactly 1 (no contraction at alpha = 0 or 1)
    for alpha in (0.0, 1.0):
        val = asymptotics.beta_function(alpha + 0.5, 0.5) / math.pi * 2.0**alpha
        assert val == pytest.approx(1.0, rel=1e-14)
    # log of the prefactor is negative inside (0, 1): convex with zero ends
    for alpha in np.linspace(0.01, 0.99, 21):
        f = math.log(asymptotics.beta_function(alpha + 0.5, 0.5) * 2.0**alpha / math.pi)
        assert f < 0.0


def test_beta_moment_matches_quadrature():
    for alpha in (0.3, 0.5, 0.85, 1.0, 1.7):
        closed = asymptotics.beta_moment(alpha, 100, 14, 0)
        quadr = geometry.pdf_moment_quadrature(alpha, 100, 14, 0)
        assert abs(closed - quadr) < 1e-8


def test_reset_probability_boundaries():
    # m = sqrt(j): arcsin(0) -> exactly 1/2
    assert asymptotics.reset_probability(200, 20) == pytest.approx(0.5, abs=1e-15)
    # m = sqrt(j)/2 is outside (open boundary); just inside gives ~0
    with pytest.raises(DomainError):
        asymptotics.reset_probability(200, 10)
    near = asymptotics.reset_probability(1013, 23)  # m just above sqrt(j)/2
    assert 0.0 <= near < 0.12
    with pytest.raises(DomainError):
        asymptotics.reset_probability(200, 30)


def test_reset_probability_matches_exact_tail():
    gaps = []
    for j in (400, 2500, 10000):
        m = int(0.8 * math.isqrt(j))
        formula = asymptotics.reset_probability(2 * j, 2 * m)
        exact = asymptotics.exact_reset_mass(2 * j, 2 * m)
        gaps.append(abs(formula - exact))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.05
