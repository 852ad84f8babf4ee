import math

import numpy as np
import pytest

from dickeprep.config import parse_config
from dickeprep.core import (
    Angle,
    AnglePolicy,
    DomainError,
    OutOfRange,
    ParityMismatch,
    ProtocolConfig,
    ResetPolicy,
    SpinSpec,
    ValidationError,
    default_max_iterations,
    ring_radius,
    validate_spin,
)


def test_validate_spin_accepts_integer_spin():
    spec = validate_spin(4, 0)
    assert spec.j == 2.0 and spec.m == 0.0
    assert spec.n == 4 and spec.weight == 2


def test_validate_spin_parity_mismatch():
    with pytest.raises(ParityMismatch):
        validate_spin(3, 0)


def test_validate_spin_out_of_range():
    with pytest.raises(OutOfRange):
        validate_spin(4, 6)
    with pytest.raises(OutOfRange):
        validate_spin(-2, 0)
    # bools are not quantum numbers, as parse_config already holds
    for two_j, two_m in [(True, True), (2, False), (False, 0), (1.0, 1)]:
        with pytest.raises(OutOfRange):
            SpinSpec(two_j, two_m)
    with pytest.raises(OutOfRange):
        ProtocolConfig(two_j=True, target_two_mt=True)


def test_weight_round_trip():
    for two_j in range(0, 9):
        for two_m in range(-two_j, two_j + 1, 2):
            spec = SpinSpec(two_j, two_m)
            again = SpinSpec.from_weight(spec.n, spec.weight)
            assert (again.two_j, again.two_m) == (two_j, two_m)


def test_ring_radius_values():
    assert ring_radius(SpinSpec(4, 4)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert ring_radius(SpinSpec(4, 0)) == pytest.approx(math.sqrt(6.0), abs=1e-15)
    assert ring_radius(SpinSpec(4, 2)) == pytest.approx(math.sqrt(5.0), abs=1e-15)


@pytest.mark.parametrize("two_j", [2, 7, 40, 101])
def test_ring_radius_monotonic_in_abs_m(two_j):
    radii = [ring_radius(SpinSpec(two_j, two_m)) for two_m in range(two_j % 2, two_j + 1, 2)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    j = two_j / 2.0
    assert ring_radius(SpinSpec(two_j, two_j)) == pytest.approx(math.sqrt(j))
    if two_j % 2 == 0:
        assert ring_radius(SpinSpec(two_j, 0)) == pytest.approx(math.sqrt(j * (j + 1)))


def test_angle_canonicalization():
    assert Angle(0.5).radians == 0.5
    assert Angle(2 * math.pi + 0.5).radians == pytest.approx(0.5, abs=1e-12)
    assert Angle(-3 * math.pi).radians == pytest.approx(math.pi, abs=1e-12) or Angle(
        -3 * math.pi
    ).radians == pytest.approx(-math.pi, abs=1e-12)
    with pytest.raises(DomainError):
        Angle(float("nan"))
    with pytest.raises(DomainError):
        Angle(float("inf"))


def test_protocol_config_validation():
    cfg = ProtocolConfig(two_j=100)
    assert cfg.max_iterations == default_max_iterations(100)
    assert cfg.spin.two_m == 100
    with pytest.raises(ValidationError):
        ProtocolConfig(two_j=4, target_two_mt=0, angle_policy="bogus")
    with pytest.raises(ValidationError):
        ProtocolConfig(two_j=4, target_two_mt=2, angle_policy=AnglePolicy.APPROX_MT0)
    with pytest.raises(ParityMismatch):
        ProtocolConfig(two_j=4, target_two_mt=1)
    # the same rejections as parse_config: a non-bool int, and a cap >= 1
    for bad in (2.5, True, 0, "10"):
        with pytest.raises(ValidationError, match="max_iterations"):
            ProtocolConfig(two_j=4, max_iterations=bad)
    for bad in (True, 1.0, "7", None):
        with pytest.raises(ValidationError, match="seed"):
            ProtocolConfig(two_j=4, seed=bad)


# (configuration, the error class ProtocolConfig raises); parse_config
# raises ValidationError for each
INVALID_CONFIGS = [
    *[({"two_j": bad}, OutOfRange) for bad in (True, 4.0, "4", None, -2)],
    *[({"two_j": 4, "target_two_mt": bad}, OutOfRange) for bad in (False, 2.0, "0", None)],
    *[({"two_j": 4, "max_iterations": bad}, ValidationError) for bad in (True, 10.0, "10", 0)],
    *[({"two_j": 4, "seed": bad}, ValidationError) for bad in (True, 1.5, "7", None)],
    ({"two_j": 4, "target_two_mt": 1}, ParityMismatch),
    ({"two_j": 4, "target_two_mt": 6}, OutOfRange),
    ({"two_j": 4, "target_two_mt": -8}, OutOfRange),
    ({"two_j": 4, "angle_policy": "bogus"}, ValidationError),
    ({"two_j": 4, "target_two_mt": 2, "angle_policy": AnglePolicy.APPROX_MT0}, ValidationError),
    ({"two_j": 5, "target_two_mt": 2, "angle_policy": "bogus", "seed": "x"}, ParityMismatch),
    ({"two_j": -1, "target_two_mt": 2, "max_iterations": 1.0}, OutOfRange),
]


@pytest.mark.parametrize("values,error", INVALID_CONFIGS)
def test_protocol_config_and_parse_config_share_one_validator(values, error):
    with pytest.raises(error) as built:
        ProtocolConfig(**values)
    assert type(built.value) is error
    with pytest.raises(ValidationError) as parsed:
        parse_config(values)
    assert type(parsed.value) is ValidationError
    assert str(built.value) in str(parsed.value)


def test_parse_config_messages_pinned():
    cases = [
        ({"two_j": True}, "two_j: need a non-negative integer, got True"),
        ({"two_j": 4, "target_two_mt": 6}, "target_two_mt: |6| exceeds two_j=4"),
        (
            {"two_j": 5, "target_two_mt": 2, "angle_policy": "bogus", "seed": "x"},
            "target_two_mt: parity of 2 does not match two_j=5; "
            "angle_policy: must be one of ('geometric', 'approx_mt0', 'numeric_optimal'), got 'bogus'; "
            "seed: need an integer, got 'x'",
        ),
    ]
    for values, message in cases:
        with pytest.raises(ValidationError) as parsed:
            parse_config(values)
        assert str(parsed.value) == message


def test_missing_max_iterations_takes_the_default():
    # None is the dataclass's stand-in for a missing key; JSON null is a value
    assert ProtocolConfig(two_j=4, max_iterations=None).max_iterations == default_max_iterations(4)
    assert parse_config({"two_j": 4}).max_iterations == default_max_iterations(4)
    with pytest.raises(ValidationError, match="max_iterations: need a positive integer, got None"):
        parse_config({"two_j": 4, "max_iterations": None})
    with pytest.raises(ValidationError, match="reset_policy: need a ResetPolicy, got 'sqrt_j'"):
        ProtocolConfig(two_j=4, reset_policy="sqrt_j")


def test_default_max_iterations_formula():
    for two_j in (2, 8, 100, 8192):
        j = two_j / 2.0
        assert default_max_iterations(two_j) == 10 * math.ceil(math.log2(j + 2)) + 100


def _fires(policy: ResetPolicy, two_j: int, two_m: int) -> bool:
    """Whether the policy's mask fires at two_m."""
    return bool(policy.mask(two_j, two_m))


def test_reset_policy_exact_threshold():
    sqrt_j = ResetPolicy(kind="sqrt_j")
    # j = 4: sqrt(j) = 2 exactly; reset only strictly beyond
    assert not _fires(sqrt_j, 8, 4)     # |m| = 2 == sqrt(j): keep
    assert _fires(sqrt_j, 8, 6)         # |m| = 3 > 2: reset
    assert _fires(sqrt_j, 8, -6)
    # j = 2: sqrt(2) between 1 and 2
    assert not _fires(sqrt_j, 4, 2)     # |m| = 1 < sqrt(2)
    assert _fires(sqrt_j, 4, 4)         # |m| = 2 > sqrt(2)


@pytest.mark.parametrize("two_j", [0, 1, 8, 9, 40, 41])
@pytest.mark.parametrize(
    "policy",
    [
        ResetPolicy(),
        ResetPolicy(kind="sqrt_j"),
        ResetPolicy(kind="custom", threshold=2.0),  # on the grid m = 2 at integer j
        ResetPolicy(kind="custom", threshold=1.5),  # on the grid m = 3/2 at half-integer j
        ResetPolicy(kind="custom", threshold=0.0),
    ],
)
def test_reset_mask_equals_triggers(two_j, policy):
    # the trigger rule in exact integers: |m| > sqrt(j) <=> (two_m)^2 > 2 two_j,
    # |m| > t <=> |two_m| > 2t (exact for these thresholds)
    rule = {
        "none": lambda two_m: False,
        "sqrt_j": lambda two_m: two_m * two_m > 2 * two_j,
        "custom": lambda two_m: abs(two_m) > 2 * policy.threshold,
    }[policy.kind]
    grid = list(range(-two_j, two_j + 1, 2))
    scattered = grid[::-3] + grid[1::4]  # unsorted; a state may come twice
    for two_ms in (grid, scattered):
        mask = policy.mask(two_j, np.array(two_ms))
        assert mask.dtype == bool and mask.shape == (len(two_ms),)
        assert mask.tolist() == [rule(two_m) for two_m in two_ms]
    one = policy.mask(two_j, grid[-1])  # a scalar asks about one state
    assert np.ndim(one) == 0 and bool(one) == rule(grid[-1])


def test_reset_policy_custom():
    custom = ResetPolicy(kind="custom", threshold=2.5)
    assert _fires(custom, 20, 6) and not _fires(custom, 20, 4)
    with pytest.raises(ValidationError):
        ResetPolicy(kind="custom")
    with pytest.raises(ValidationError):
        ResetPolicy(kind="none", threshold=1.0)
    with pytest.raises(ValidationError):
        ResetPolicy(kind="whenever")


def test_every_export_resolves():
    # the exports are lazy, so a stale entry would fail only at first access
    import dickeprep

    assert dickeprep.__all__
    for name in dickeprep.__all__:
        assert getattr(dickeprep, name) is not None, name
