"""Line-oriented run-configuration format: `key = value`, one per line.

`#` starts a comment, blank lines are ignored, keys are case-insensitive,
and repeating a key is an error at its second occurrence.  `y0` and `eras`
take comma-separated lists.  Emitted text round-trips: parsing it yields
the exact same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .cpmodel import CpParams, EraPreset, alpha_mismatch
from .scheme import SignConvention

__all__ = [
    "ConfigError",
    "RunConfig",
    "format_config",
    "parse_config",
    "preset_from_config",
]


class ConfigError(ValueError):
    """Invalid configuration text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# config key of every CpParams field, in field order; keys are
# case-insensitive, so the population size N is spelled `bign`
_PARAM_KEYS = {f.name: "bign" if f.name == "N" else f.name for f in fields(CpParams)}
_SCALAR_KEYS = ("t0", "t", "k") + tuple(_PARAM_KEYS.values())
_LIST_KEYS = ("y0", "eras")
_REQUIRED_KEYS = _SCALAR_KEYS + _LIST_KEYS
_ALL_KEYS = _REQUIRED_KEYS + ("sign",)


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: horizon, step, sign, rates, state and eras."""

    t0: float
    T: float
    k: float
    sign: SignConvention
    params: CpParams
    y0: tuple[float, ...]
    eras: tuple[float, ...]


def _parse_number(key: str, text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"malformed number {text!r} for key {key!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value for key {key!r}", line)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a :class:`RunConfig`.

    Raises:
      ConfigError: On unknown keys, malformed numbers, duplicate keys or
        missing required keys, with the line number where applicable.
    """
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {key_lines[key]})", lineno
            )
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        values[key] = value
        key_lines[key] = lineno

    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    scalars = {
        key: _parse_number(key, values[key], key_lines[key]) for key in _SCALAR_KEYS
    }
    lists = {
        key: tuple(
            _parse_number(key, part.strip(), key_lines[key])
            for part in values[key].split(",")
        )
        for key in _LIST_KEYS
    }
    if len(lists["y0"]) != 5:
        raise ConfigError(
            f"y0 must hold exactly 5 values, got {len(lists['y0'])}", key_lines["y0"]
        )
    if len(lists["eras"]) < 2:
        raise ConfigError("eras must hold at least 2 values", key_lines["eras"])

    sign_text = values.get("sign", "plus").lower()
    try:
        sign = SignConvention(sign_text)
    except ValueError:
        raise ConfigError(
            f"sign must be 'plus' or 'minus', got {sign_text!r}", key_lines["sign"]
        ) from None

    try:
        params = CpParams(**{name: scalars[key] for name, key in _PARAM_KEYS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        t0=scalars["t0"],
        T=scalars["t"],
        k=scalars["k"],
        sign=sign,
        params=params,
        y0=lists["y0"],
        eras=lists["eras"],
    )


def _fmt(value: float) -> str:
    # repr of a float is the shortest decimal that parses back exactly
    return repr(float(value))


def format_config(preset: EraPreset, sign: SignConvention = SignConvention.PLUS) -> str:
    """Emit configuration text that parses back to the preset's exact numbers."""
    p = preset.params
    lines = [
        f"# run configuration ({preset.label})",
        f"t0 = {_fmt(preset.t0)}",
        f"T = {_fmt(preset.T)}",
        f"k = {_fmt(preset.k)}",
        f"sign = {sign.value}",
        *(f"{key} = {_fmt(getattr(p, name))}" for name, key in _PARAM_KEYS.items()),
        # the preset's own floats: reading preset.y0 would build a numpy array
        "y0 = " + ", ".join(_fmt(v) for v in preset._y0),
        "eras = " + ", ".join(_fmt(b) for b in preset.era_boundaries),
    ]
    return "\n".join(lines) + "\n"


def preset_from_config(config: RunConfig, label: str = "config") -> EraPreset:
    """Build a runnable scenario from a parsed configuration.

    Raises:
      ValueError: If the assembled scenario violates a preset invariant
        (era span, initial-population total, step size).
    """
    return EraPreset(
        label=label,
        params=config.params,
        y0=config.y0,
        t0=config.t0,
        T=config.T,
        k=config.k,
        era_boundaries=config.eras,
        alpha_warning=alpha_mismatch(config.params),
    )
