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
from dataclasses import fields
from pathlib import Path

from .core import ParseError, ProtocolConfig, ResetPolicy, ValidationError, _config_problems

_ALLOWED_KEYS = {f.name for f in fields(ProtocolConfig)}  # the schema's keys are the config's fields


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
    values = dict(data)
    if "reset_policy" in data:
        try:
            values["reset_policy"] = _parse_reset(data["reset_policy"])
        except ValidationError as exc:
            values["reset_policy"] = exc  # listed in its place among the problems
    problems = _config_problems(values)
    if problems:
        raise ValidationError("; ".join(message for _, message in problems))
    return ProtocolConfig(**values)


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
    out = {f.name: getattr(config, f.name) for f in fields(ProtocolConfig)}
    reset = config.reset_policy
    out["reset_policy"] = {"custom": reset.threshold} if reset.kind == ResetPolicy.CUSTOM else reset.kind
    return out
