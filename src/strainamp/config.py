"""Flat key = value run configuration: parsing, validation, re-emission."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields as dc_fields
from typing import get_type_hints

from .dynamics import SimParams
from .grid import GridSpec
from .initdata import InitSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_sweep_config"]


class ConfigError(ValueError):
    """Config rejected; the message names the offending key."""


_SWEEPABLE = ("amplitude", "nu")
_MAX_RANGE_POINTS = 10_000  # a sweep range builds every point before any run


@dataclass
class RunConfig:
    kind: str
    equation: str
    n: int = 64
    box_length: float = 16.0
    dealias_fraction: float = 2.0 / 3.0
    nu: float = 1.0
    t_end: float = 1.0
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-9
    output_every: int = 10
    amplitude: float = 1.0
    seed: int = 0
    lam: float = 1.0
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    path: str = ""
    slope: float = -4.0
    output_path: str = "-"
    checkpoint_every: int = 0

    def grid_spec(self) -> GridSpec:
        return GridSpec(self.n, self.box_length, self.dealias_fraction)

    def _fields_of(self, cls) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(cls)}

    def sim_params(self) -> SimParams:
        return SimParams(**self._fields_of(SimParams))

    def init_spec(self) -> InitSpec:
        return InitSpec(**{**self._fields_of(InitSpec), "path": self.path or None})

    def emit(self) -> str:
        """Serialize back to the flat key = value format (round-trip exact)."""
        lines = []
        for f in dc_fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = ",".join(repr(v) for v in val)
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{_key(f.name)} = {val}")
        return "\n".join(lines) + "\n"


def _key(name: str) -> str:
    """The config key of a RunConfig field ("lambda" is a Python keyword)."""
    return "lambda" if name == "lam" else name


def _finite(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError
    return val


def _count(raw: str) -> int:
    val = int(raw)
    if val < 0:
        raise ValueError
    return val


def _triple(raw: str) -> tuple[float, float, float]:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError
    return tuple(_finite(p) for p in parts)


# key -> (RunConfig field, value parser), from the field annotations (an int is a count)
_PARSERS = {int: _count, float: _finite, str: str, tuple[float, float, float]: _triple}
_HINTS = get_type_hints(RunConfig)
_SCHEMA = {_key(f.name): (f, _PARSERS[_HINTS[f.name]]) for f in dc_fields(RunConfig)}


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    try:
        return _SCHEMA[key][1](raw)
    except ValueError:
        raise ConfigError(f"invalid value for key '{key}': {raw!r}") from None


def _split_lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}'")
        if key in first_line:
            raise ConfigError(
                f"key '{key}' repeated: line {first_line[key]} and line {lineno}"
            )
        first_line[key] = lineno
        pairs.append((key, raw.strip()))
    return pairs


def _build(pairs: list[tuple[str, str]]) -> RunConfig:
    seen = {_SCHEMA[key][0].name: _parse_scalar(key, raw) for key, raw in pairs}
    for key, (f, _) in _SCHEMA.items():
        if f.default is MISSING and f.name not in seen:
            raise ConfigError(f"missing required key '{key}'")
    return RunConfig(**seen)


def parse_config(text: str) -> RunConfig:
    """Parse a flat config; unknown keys and malformed values are rejected."""
    return _build(_split_lines(text))


def _parse_range(key: str, raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"malformed range for key '{key}': {raw!r}")
    try:
        start, step, end = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"malformed range for key '{key}': {raw!r}") from None
    if not all(map(math.isfinite, (start, step, end))) or step <= 0 or end < start:
        raise ConfigError(f"malformed range for key '{key}': {raw!r}")
    steps = (end - start) / step + 1e-9  # may be inf; count it before building it
    if steps >= _MAX_RANGE_POINTS:
        raise ConfigError(
            f"range for key '{key}' has more than {_MAX_RANGE_POINTS} points: {raw!r}"
        )
    count = int(math.floor(steps)) + 1
    return [start + i * step for i in range(count)]


def parse_sweep_config(text: str) -> tuple[RunConfig, dict[str, list[float]]]:
    """Parse a sweep config: amplitude and nu accept start:step:end ranges."""
    plain: list[tuple[str, str]] = []
    ranges: dict[str, list[float]] = {}
    for key, raw in _split_lines(text):
        if ":" in raw:
            if key not in _SWEEPABLE:
                raise ConfigError(f"key '{key}' does not accept a range")
            ranges[key] = _parse_range(key, raw)
        else:
            plain.append((key, raw))
    base = _build(plain)
    for key in _SWEEPABLE:
        ranges.setdefault(key, [getattr(base, key)])
    return base, ranges
