"""Flat "key = value" run configuration files.

'#' starts a comment, blank lines are ignored, and unknown keys are
rejected so typos fail loudly instead of silently using a default. The
seven keys bins, features, encoder, head, context, condition_dim and seed
form the run's ModelConfig; the rest set training and its files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .context import ContextOpKind
from .errors import ConfigError
from .model import ModelConfig


@dataclass
class RunConfig:
    model: ModelConfig = ModelConfig()  # frozen, so one shared default is safe
    lr: float = 1e-3
    batch_size: int = 4
    steps: int = 2000
    checkpoint_interval: int = 500
    dataset: str = ""
    conditions: str = ""
    out: str = "."

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be finite and positive")
        for key in ("batch_size", "steps", "checkpoint_interval"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(","))


# file key -> (field of ModelConfig or RunConfig, parser)
_KEYS = {
    "bins": ("bins", int),
    "features": ("feature_width", int),
    "encoder": ("encoder_widths", _int_tuple),
    "head": ("head_widths", _int_tuple),
    "context": ("context", ContextOpKind),
    "condition_dim": ("condition_dim", int),
    "seed": ("seed", int),
    "lr": ("lr", float),
    "batch_size": ("batch_size", int),
    "steps": ("steps", int),
    "checkpoint_interval": ("checkpoint_interval", int),
    "dataset": ("dataset", str),
    "conditions": ("conditions", str),
    "out": ("out", str),
}
_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}


def parse_config(path) -> RunConfig:
    """Parse a config file, raising ConfigError with key and line number."""
    model: dict = {}
    run: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name, parse = _KEYS[key]
        try:
            (model if name in _MODEL_FIELDS else run)[name] = parse(raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}")
    try:
        return RunConfig(model=ModelConfig(**model), **run)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")
