"""Sequential point-by-point generation and shape completion.

Randomness comes from a single numpy PCG64 generator seeded from the
settings; every one of the 3n categorical draws consumes exactly one
uniform variate, so output is a pure function of (parameters, settings).
Independent generations can run in parallel by spawning child generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import QuantizedPointCloud
from .errors import InputError, ShapeMismatchError
from .model import Model


@dataclass
class SamplerSettings:
    n: int
    seed: int = 0
    temperature: float = 1.0
    condition: np.ndarray | None = None
    prefix: QuantizedPointCloud | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError("sampler: n must be >= 1")
        if self.temperature <= 0:
            raise InputError("sampler: temperature must be positive")
        if self.prefix is not None:
            if self.prefix.n > self.n:
                raise InputError("sampler: prefix longer than target point count")
            if not self.prefix.is_sorted_zyx():
                raise InputError("sampler: prefix must be sorted z-y-x")


def softmax_with_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    z = logits / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def sample_bin(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF categorical draw consuming one uniform variate."""
    p = np.asarray(probabilities, dtype=np.float64)
    if abs(p.sum() - 1.0) > 1e-6:
        raise InputError(f"sample_bin: probabilities sum to {p.sum()}, not 1")
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, len(p) - 1)


_BRANCH_COLUMN = {"z": 2, "y": 1, "x": 0}


def generate(model: Model, settings: SamplerSettings) -> QuantizedPointCloud:
    """Grow a cloud one coordinate at a time (z, then y, then x per point).

    Each coordinate is drawn from the model's softmax for the current
    partial cloud, then fed back in before the next draw: 3 forward
    passes and 3 variates per point. The output keeps generation order
    and is not re-sorted.
    """
    cfg = model.config
    rng = np.random.default_rng(settings.seed)
    prefix = settings.prefix
    if prefix is not None and prefix.bin_count != cfg.bins:
        raise InputError("generate: prefix bin count differs from model")
    start = prefix.n if prefix is not None else 0
    bins = np.zeros((settings.n, 3), dtype=np.int64)
    if start:
        bins[:start] = prefix.bins
    for i in range(start, settings.n):
        for branch in ("z", "y", "x"):
            partial = QuantizedPointCloud(bins[: i + 1].copy(), cfg.bins)
            logits = model.forward(partial, settings.condition)[branch]
            probs = softmax_with_temperature(logits.data[i], settings.temperature)
            bins[i, _BRANCH_COLUMN[branch]] = sample_bin(probs, rng)
    return QuantizedPointCloud(bins, cfg.bins)


def complete(model: Model, settings: SamplerSettings) -> QuantizedPointCloud:
    """Extend a fixed low-z prefix; the prefix rows are returned verbatim."""
    if settings.prefix is None:
        raise InputError("complete: settings.prefix is required")
    return generate(model, settings)


def condition_lerp(h_a, h_b, t: float) -> np.ndarray:
    """(1 - t) * h_a + t * h_b."""
    a = np.asarray(h_a, dtype=np.float64)
    b = np.asarray(h_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"condition_lerp: {a.shape} vs {b.shape}")
    return (1.0 - t) * a + t * b


def condition_combine(terms) -> np.ndarray:
    """Weighted sum of condition vectors: sum(weight * vector)."""
    terms = list(terms)
    if not terms:
        raise InputError("condition_combine: empty term list")
    out = None
    for weight, vec in terms:
        v = np.asarray(vec, dtype=np.float64) * float(weight)
        if out is None:
            out = v
        elif out.shape != v.shape:
            raise ShapeMismatchError("condition_combine: mismatched vector dims")
        else:
            out = out + v
    return out
