"""Quantum-number arithmetic and shared configuration types.

Angular momentum quantum numbers are stored as doubled integers
(``two_j``, ``two_m``) so that half-integer spins (odd qubit number) are
represented exactly and never compared through floats.  For a register of
``n`` qubits, ``two_j = n`` and the Hamming weight of the corresponding
Dicke state is ``w = (two_j - two_m) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np


class DickePrepError(Exception):
    """Base class for all package-specific errors."""


class ParityMismatch(DickePrepError, ValueError):
    """two_m does not have the same parity as two_j."""


class OutOfRange(DickePrepError, ValueError):
    """A quantum number or another argument is outside its valid range."""


class DomainError(DickePrepError, ValueError):
    """A real-valued argument is outside the mathematical domain."""


class NormDrift(DickePrepError, ArithmeticError):
    """A numerical check failed (a stability bug, never renormalized away):
    inverse iteration found no eigenvector within its residual tolerance,
    or an outcome distribution or a statevector is off unit norm."""


class SingularSystem(DickePrepError, ArithmeticError):
    """Expected steps are unresolvable: a row is off unit sum, or the (I - Q)
    solve failed or gave a t outside [1, 1e-6 / eps] (six correct digits)."""


class RegimeViolation(DickePrepError, ValueError):
    """Parameters violate a regime assumption (e.g. dispersive limit)."""


class ParseError(DickePrepError, ValueError):
    """A configuration file could not be parsed (unknown/malformed keys)."""


class ValidationError(DickePrepError, ValueError):
    """A parsed configuration violates invariants; lists offending keys."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_spin(two_j, two_m, name: str) -> None:
    """Raise OutOfRange or ParityMismatch for an invalid (two_j, two_m);
    the messages call two_m by name."""
    if not _is_int(two_j) or not _is_int(two_m):
        raise OutOfRange(f"two_j and {name} must be integers, not bools")
    if two_j < 0:
        raise OutOfRange(f"two_j must be >= 0, got {two_j}")
    if (two_m - two_j) % 2 != 0:
        raise ParityMismatch(f"{name}={two_m} must have the same parity as two_j={two_j}")
    if abs(two_m) > two_j:
        raise OutOfRange(f"|{name}|={abs(two_m)} exceeds two_j={two_j}")


@dataclass(frozen=True)
class SpinSpec:
    """A (j, m) pair stored as doubled integers.

    Invariants (enforced on construction): two_j >= 0, |two_m| <= two_j, and
    two_m has the same parity as two_j.
    """

    two_j: int
    two_m: int

    def __post_init__(self) -> None:
        _check_spin(self.two_j, self.two_m, "two_m")

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def m(self) -> float:
        return self.two_m / 2.0

    @property
    def n(self) -> int:
        """Qubit count of the register this spin lives on."""
        return self.two_j

    @property
    def weight(self) -> int:
        """Hamming weight w = j - m of the corresponding Dicke state."""
        return (self.two_j - self.two_m) // 2

    @classmethod
    def from_weight(cls, n: int, w: int) -> "SpinSpec":
        """Inverse of (n, weight): exact round trip with the properties above."""
        return cls(two_j=n, two_m=n - 2 * w)


def validate_spin(two_j: int, two_m: int) -> SpinSpec:
    """Validate a doubled-integer (j, m) pair.

    Raises ParityMismatch or OutOfRange; returns the SpinSpec otherwise.
    """
    return SpinSpec(two_j, two_m)


def validate_target(two_j: int, two_mt: int) -> SpinSpec:
    """validate_spin for a target state: the errors name two_mt."""
    _check_spin(two_j, two_mt, "two_mt")
    return SpinSpec(two_j, two_mt)


def ring_radius(spec: SpinSpec) -> float:
    """Radius r_m = sqrt(j(j+1) - m^2) of the Dicke ring on the collective
    Bloch sphere of radius sqrt(j(j+1))."""
    j = spec.j
    m = spec.m
    return math.sqrt(j * (j + 1.0) - m * m)


def _stream_key(base_seed: int, index: int) -> np.ndarray:
    return np.array([np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])


def rng_stream(base_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one run: Philox keyed on (seed, index)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(base_seed, index)))


# ---------------------------------------------------------------------------
# protocol configuration


class AnglePolicy:
    """Rotation-angle policy names (string constants, JSON-stable)."""

    GEOMETRIC = "geometric"            # tangency formula, any target
    APPROX_MT0 = "approx_mt0"          # arcsin(m/j), target m_t = 0 only
    NUMERIC_OPTIMAL = "numeric_optimal"  # grid + Newton maximization

    ALL = (GEOMETRIC, APPROX_MT0, NUMERIC_OPTIMAL)


@dataclass(frozen=True)
class ResetPolicy:
    """When to return the register to the all-up state after a measurement.

    kind is one of "none", "sqrt_j", "custom"; "custom" carries a threshold t
    and resets whenever the measured |m| > t.  "sqrt_j" resets when |m| >
    sqrt(j).  mask is the one place the rule is written, and it tests only
    the measured m it is asked about, as the protocol decides from one
    outcome: no grid is built.
    """

    kind: str = "none"
    threshold: float | None = None

    NONE = "none"
    SQRT_J = "sqrt_j"
    CUSTOM = "custom"

    def __post_init__(self) -> None:
        if self.kind not in ("none", "sqrt_j", "custom"):
            raise ValidationError(f"unknown reset policy kind {self.kind!r}")
        if self.kind == "custom":
            if self.threshold is None or not math.isfinite(self.threshold) or self.threshold < 0:
                raise ValidationError("custom reset policy needs a finite threshold >= 0")
        elif self.threshold is not None:
            raise ValidationError(f"reset policy {self.kind!r} takes no threshold")

    def mask(self, two_j: int, two_m):
        """Whether measuring the doubled m two_m (an int or an array) fires
        a reset, as a bool or a boolean array; only the m given are tested."""
        two_m = np.asarray(two_m, dtype=np.int64)
        if self.kind == "sqrt_j":
            # |m| > sqrt(j)  <=>  m^2 > j  <=>  (two_m)^2 > 2*two_j, exactly
            return two_m * two_m > 2 * two_j
        limit = math.inf if self.kind == "none" else self.threshold  # "none" never fires
        return np.abs(two_m) / 2.0 > limit


def default_max_iterations(two_j: int) -> int:
    """Safety cap for trajectory loops: 10*ceil(log2(j+2)) + 100.

    The expected number of protocol steps is logarithmic in j, so exceeding
    this cap is reported as a failure rather than silently truncated.
    """
    j = two_j / 2.0
    return 10 * math.ceil(math.log2(j + 2.0)) + 100


@dataclass(frozen=True)
class Angle:
    """A rotation angle canonicalized to [-pi, pi]."""

    radians: float

    def __post_init__(self) -> None:
        r = _as_radians(self.radians)
        if r > math.pi or r < -math.pi:
            r = math.remainder(r, 2.0 * math.pi)  # lands in [-pi, pi]
            object.__setattr__(self, "radians", r)

    def __float__(self) -> float:
        return self.radians


def _as_radians(angle) -> float:
    """Accept an Angle or a plain number wherever an angle is expected;
    raises DomainError, as Angle does, if it is not finite."""
    r = float(angle)
    if not math.isfinite(r):
        raise DomainError(f"angle must be finite, got {r}")
    return r


def _config_problems(values: dict) -> list[tuple[type[DickePrepError], str]]:
    """Every problem of a protocol configuration, as (error class, message)
    pairs in the JSON key order; each message names its key.

    values maps ProtocolConfig field names to values; a missing key takes
    its default (max_iterations: default_max_iterations, always valid).
    Spin problems are OutOfRange or ParityMismatch, as validate_spin raises
    them; the rest are ValidationError.  reset_policy may also be the
    ValidationError that parsing it raised (parse_config), listed in its
    place.  An invalid two_j or target reads as 0 in the later checks.
    """
    problems: list[tuple[type[DickePrepError], str]] = []

    two_j = values.get("two_j")
    if not _is_int(two_j) or two_j < 0:
        problems.append((OutOfRange, f"two_j: need a non-negative integer, got {two_j!r}"))
        two_j = 0

    target = values.get("target_two_mt", 0)
    if not _is_int(target):
        problems.append((OutOfRange, f"target_two_mt: need an integer, got {target!r}"))
        target = 0
    else:
        if (target - two_j) % 2 != 0:
            problems.append(
                (ParityMismatch, f"target_two_mt: parity of {target} does not match two_j={two_j}")
            )
        if abs(target) > two_j:
            problems.append((OutOfRange, f"target_two_mt: |{target}| exceeds two_j={two_j}"))

    policy = values.get("angle_policy", AnglePolicy.GEOMETRIC)
    if policy not in AnglePolicy.ALL:
        problems.append(
            (ValidationError, f"angle_policy: must be one of {AnglePolicy.ALL}, got {policy!r}")
        )
    elif policy == AnglePolicy.APPROX_MT0 and target != 0:
        problems.append((ValidationError, "angle_policy: approx_mt0 requires target_two_mt = 0"))

    reset = values.get("reset_policy", ResetPolicy())
    if isinstance(reset, ValidationError):
        problems.append((ValidationError, str(reset)))
    elif not isinstance(reset, ResetPolicy):
        problems.append((ValidationError, f"reset_policy: need a ResetPolicy, got {reset!r}"))

    max_iters = values.get("max_iterations", 1)
    if not _is_int(max_iters) or max_iters < 1:
        problems.append((ValidationError, f"max_iterations: need a positive integer, got {max_iters!r}"))

    seed = values.get("seed", 0)
    if not _is_int(seed):
        problems.append((ValidationError, f"seed: need an integer, got {seed!r}"))
    return problems


@dataclass(frozen=True)
class ProtocolConfig:
    """Full configuration of one preparation protocol run.

    Mirrors the JSON configuration schema: keys two_j, target_two_mt,
    angle_policy, reset_policy, max_iterations, seed.  max_iterations None
    (the default) means default_max_iterations(two_j).  An invalid
    configuration raises the error class of its first problem, with every
    problem in the message.
    """

    two_j: int
    target_two_mt: int = 0
    angle_policy: str = AnglePolicy.GEOMETRIC
    reset_policy: ResetPolicy = field(default_factory=ResetPolicy)
    max_iterations: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        given = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.max_iterations is None:  # a missing key: the default, set once the rest is valid
            del given["max_iterations"]
        problems = _config_problems(given)
        if problems:
            raise problems[0][0]("; ".join(message for _, message in problems))
        if self.max_iterations is None:
            object.__setattr__(self, "max_iterations", default_max_iterations(self.two_j))

    def rerouted(self, states):
        """Whether measuring each given state (a grid index, an int or an
        array) fires a reset, as a bool or a boolean array; absorption wins
        over reset, so the target is never rerouted."""
        states = np.asarray(states, dtype=np.int64)
        return self.reset_policy.mask(self.two_j, 2 * states - self.two_j) & (states != self.target_index)

    @property
    def spin(self) -> SpinSpec:
        """Initial spin of the protocol: the all-up state m = j."""
        return SpinSpec(self.two_j, self.two_j)

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def target_index(self) -> int:
        """Index of the target state in the m' = -j..j amplitude ordering."""
        return (self.target_two_mt + self.two_j) // 2
