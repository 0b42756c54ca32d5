"""Flat "key = value" run configuration files.

'#' starts a comment, blank lines are ignored, and unknown keys are
rejected so typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .context import ContextOpKind
from .errors import ConfigError


@dataclass
class RunConfig:
    bins: int = 200
    features: int = 128
    encoder: tuple[int, ...] = (64, 128, 128)
    head: tuple[int, ...] = (128,)
    context: str = "saca-a"
    condition_dim: int = 0
    seed: int = 0
    lr: float = 1e-3
    batch_size: int = 4
    steps: int = 2000
    checkpoint_interval: int = 500
    dataset: str = ""
    conditions: str = ""
    out: str = "."

    def __post_init__(self):
        for key in ("bins", "features", "batch_size", "steps",
                    "checkpoint_interval"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.condition_dim < 0:
            raise ConfigError("condition_dim must be >= 0")
        try:
            ContextOpKind(self.context)
        except ValueError:
            valid = ", ".join(k.value for k in ContextOpKind)
            raise ConfigError(f"context must be one of: {valid}")
        if self.encoder[-1] != self.features:
            raise ConfigError("last encoder width must equal features")

    def context_kind(self) -> ContextOpKind:
        return ContextOpKind(self.context)


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(","))


# keyed by annotation string: field types stay strings under future annotations
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _int_tuple,
}


def parse_config(path) -> RunConfig:
    """Parse a config file, raising ConfigError with key and line number."""
    spec = {f.name: f.type for f in fields(RunConfig)}
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = body.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in spec:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _PARSERS[spec[key]](raw)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}")
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")
