"""Adaptive global-rotation + collective-measurement preparation of Dicke states.

Numerical toolkit for the protocol that repeatedly rotates a collective
spin and projectively measures its magnetization until the target Dicke
state is reached: exact rotation-matrix columns, angle policies, the
absorbing Markov chain and its expected running times, Monte Carlo
trajectory engines, the large-j asymptotic formulas, phase-space geometry,
and the dispersive-cavity readout model.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule.  Names are imported on first access
# (PEP 562), so importing the package, or dickeprep.cli, loads no numpy:
# the CLI can still cap BLAS threads before numpy starts.
_EXPORTS = {
    "core": (
        "Angle", "AnglePolicy", "DickePrepError", "DomainError",
        "NormDrift", "OutOfRange", "ParityMismatch", "ParseError", "ProtocolConfig",
        "RegimeViolation", "ResetPolicy", "SingularSystem", "SpinSpec",
        "ValidationError", "default_max_iterations", "ring_radius", "validate_spin",
    ),
    "wigner": (
        "RotationColumn", "d_column", "outcome_distribution", "transition_probabilities",
    ),
    "angles": (
        "AnglePolicyResult", "approx_angle_mt0", "geometric_angle", "optimal_angle",
        "optimal_angles_for_target",
    ),
    "chain": (
        "AbsorptionReport", "TransitionChain", "build_chain", "expected_steps",
        "expected_steps_for", "mt_sweep", "naive_expected_steps",
    ),
    "simulate": (
        "SummaryStats", "TrajectoryRecord", "rng_stream", "run_trajectory",
    ),
    "asymptotics": (
        "AsymptoticComparison", "bessel_limit", "beta_moment",
        "compare_stationary_phase", "contraction_sum", "reset_probability",
        "stationary_phase_d",
    ),
    "geometry": (
        "QDistribution", "geometric_transition_pdf", "husimi_q_dicke",
        "husimi_q_integral", "husimi_q_profile", "infinitesimal_arc_length",
        "tv_distance_discretized",
    ),
    "cavity": (
        "CavityParams", "EstimatorResult", "crb_variance", "fisher_information",
        "required_photons", "resonant_peak_gap", "simulate_weight_estimator",
        "transmission",
    ),
    "config": (
        "load_config", "parse_config",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
