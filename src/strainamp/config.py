"""Flat key = value run configuration: parsing, validation, re-emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

from .dynamics import SimParams
from .grid import GridSpec
from .initdata import InitSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_sweep_config"]


class ConfigError(ValueError):
    """Config rejected; the message names the offending key."""


# key -> (attribute, parser); "lambda" is a Python keyword, hence the rename
_INT_KEYS = {"n", "seed", "output_every", "checkpoint_every"}
_FLOAT_KEYS = {
    "box_length",
    "dealias_fraction",
    "nu",
    "t_end",
    "cfl",
    "dt_max",
    "dt_min",
    "amplitude",
    "lambda",
    "slope",
}
_STR_KEYS = {"equation", "kind", "path", "output_path"}
_TRIPLE_KEYS = {"center"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _TRIPLE_KEYS
_REQUIRED = ("kind", "equation")
_SWEEPABLE = ("amplitude", "nu")

_ATTR = {k: ("lam" if k == "lambda" else k) for k in _ALL_KEYS}


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

    def sim_params(self) -> SimParams:
        return SimParams(
            nu=self.nu,
            equation=self.equation,
            t_end=self.t_end,
            cfl=self.cfl,
            dt_max=self.dt_max,
            dt_min=self.dt_min,
            output_every=self.output_every,
        )

    def init_spec(self) -> InitSpec:
        return InitSpec(
            kind=self.kind,
            amplitude=self.amplitude,
            seed=self.seed,
            lam=self.lam,
            center=self.center,
            path=self.path or None,
            slope=self.slope,
        )

    def emit(self) -> str:
        """Serialize back to the flat key = value format (round-trip exact)."""
        lines = []
        for f in dc_fields(self):
            key = "lambda" if f.name == "lam" else f.name
            val = getattr(self, f.name)
            if key in _TRIPLE_KEYS:
                val = ",".join(repr(v) for v in val)
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            val = float(raw)
            if not math.isfinite(val):
                raise ValueError
            return val
        if key in _TRIPLE_KEYS:
            parts = [p for p in raw.split(",") if p.strip()]
            if len(parts) != 3:
                raise ValueError
            return tuple(float(p) for p in parts)
        return raw
    except ValueError:
        raise ConfigError(f"invalid value for key '{key}': {raw!r}") from None


def _split_lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}'")
        pairs.append((key, raw.strip()))
    return pairs


def _build(pairs: list[tuple[str, str]]) -> RunConfig:
    seen: dict[str, object] = {}
    for key, raw in pairs:
        seen[_ATTR[key]] = _parse_scalar(key, raw)
    for req in _REQUIRED:
        if req not in seen:
            raise ConfigError(f"missing required key '{req}'")
    return RunConfig(**seen)  # type: ignore[arg-type]


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
    count = int(math.floor((end - start) / step + 1e-9)) + 1
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
