"""Strict JSON configuration loading.

Schema (all keys optional except two_j):

    {
      "two_j": 100,
      "target_two_mt": 0,
      "angle_policy": "geometric" | "approx_mt0" | "numeric_optimal",
      "reset_policy": "none" | "sqrt_j" | {"custom": 3.5},
      "max_iterations": 160,
      "seed": 12345
    }

Unknown keys are a ParseError (a silent typo in a physics parameter is the
costliest failure mode); invariant violations are collected and reported
together as a ValidationError naming every offending key.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import (
    AnglePolicy,
    ParseError,
    ProtocolConfig,
    ResetPolicy,
    ValidationError,
    default_max_iterations,
)

_ALLOWED_KEYS = {
    "two_j",
    "target_two_mt",
    "angle_policy",
    "reset_policy",
    "max_iterations",
    "seed",
}


def _parse_reset(value) -> ResetPolicy:
    if isinstance(value, str):
        if value in (ResetPolicy.NONE, ResetPolicy.SQRT_J):
            return ResetPolicy(kind=value)
        raise ValidationError(f"reset_policy: unknown name {value!r}")
    if isinstance(value, dict):
        if set(value.keys()) != {"custom"}:
            raise ParseError(f"reset_policy object must be {{\"custom\": t}}, got {value!r}")
        threshold = value["custom"]
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise ParseError(f"reset_policy: custom threshold must be a number, got {threshold!r}")
        try:
            threshold = float(threshold)
        except OverflowError:  # a JSON integer beyond float range
            raise ParseError("reset_policy: custom threshold is beyond float range") from None
        return ResetPolicy(kind=ResetPolicy.CUSTOM, threshold=threshold)
    raise ParseError(f"reset_policy must be a string or {{\"custom\": t}}, got {value!r}")


def parse_config(data: dict) -> ProtocolConfig:
    """Validate a decoded JSON object into a ProtocolConfig."""
    if not isinstance(data, dict):
        raise ParseError("configuration root must be a JSON object")
    unknown = sorted(set(data.keys()) - _ALLOWED_KEYS)
    if unknown:
        raise ParseError(f"unknown configuration keys: {', '.join(unknown)}")

    problems: list[str] = []

    two_j = data.get("two_j")
    if not isinstance(two_j, int) or isinstance(two_j, bool) or two_j < 0:
        problems.append(f"two_j: need a non-negative integer, got {two_j!r}")
        two_j = 0

    target = data.get("target_two_mt", 0)
    if not isinstance(target, int) or isinstance(target, bool):
        problems.append(f"target_two_mt: need an integer, got {target!r}")
        target = 0
    else:
        if (target - two_j) % 2 != 0:
            problems.append(
                f"target_two_mt: parity of {target} does not match two_j={two_j}"
            )
        if abs(target) > two_j:
            problems.append(f"target_two_mt: |{target}| exceeds two_j={two_j}")

    policy = data.get("angle_policy", AnglePolicy.GEOMETRIC)
    if policy not in AnglePolicy.ALL:
        problems.append(f"angle_policy: must be one of {AnglePolicy.ALL}, got {policy!r}")
        policy = AnglePolicy.GEOMETRIC
    elif policy == AnglePolicy.APPROX_MT0 and target != 0:
        problems.append("angle_policy: approx_mt0 requires target_two_mt = 0")

    reset = ResetPolicy()
    if "reset_policy" in data:
        try:
            reset = _parse_reset(data["reset_policy"])
        except ValidationError as exc:
            problems.append(str(exc))

    max_iters = data.get("max_iterations", default_max_iterations(max(two_j, 0)))
    if not isinstance(max_iters, int) or isinstance(max_iters, bool) or max_iters < 1:
        problems.append(f"max_iterations: need a positive integer, got {max_iters!r}")
        max_iters = 1

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append(f"seed: need an integer, got {seed!r}")
        seed = 0

    if problems:
        raise ValidationError("; ".join(problems))
    return ProtocolConfig(
        two_j=two_j,
        target_two_mt=target,
        angle_policy=policy,
        reset_policy=reset,
        max_iterations=max_iters,
        seed=seed,
    )


def load_config(path: str | Path) -> ProtocolConfig:
    """Read and validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(data)


def config_to_dict(config: ProtocolConfig) -> dict:
    """JSON-ready dictionary round-tripping through parse_config."""
    reset: object
    if config.reset_policy.kind == ResetPolicy.CUSTOM:
        reset = {"custom": config.reset_policy.threshold}
    else:
        reset = config.reset_policy.kind
    return {
        "two_j": config.two_j,
        "target_two_mt": config.target_two_mt,
        "angle_policy": config.angle_policy,
        "reset_policy": reset,
        "max_iterations": config.max_iterations,
        "seed": config.seed,
    }
