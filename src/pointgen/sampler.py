"""Sequential point-by-point generation and shape completion.

Randomness comes from a single numpy PCG64 generator seeded from the
settings; every one of the 3n categorical draws consumes exactly one
uniform variate, so output is a pure function of (parameters, settings).
Independent generations can run in parallel by spawning child generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, dense_forward
from .context import ContextOpKind
from .data import QuantizedPointCloud, dequantize
from .errors import InputError, ShapeMismatchError
from .model import BRANCHES, Model, apply_block, build_branch_inputs


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
        if not 0 < self.temperature < np.inf:
            raise InputError("sampler: temperature must be finite and positive")
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
    if not abs(p.sum() - 1.0) <= 1e-6:  # written so that a NaN sum fails too
        raise InputError(f"sample_bin: probabilities sum to {p.sum()}, not 1")
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, len(p) - 1)


_BRANCH_COLUMN = {"z": 2, "y": 1, "x": 0}


class _BranchCache:
    """One branch's context state over the finished points of a cloud.

    observe() takes each finished point once; context() is then the row
    of the branch's shifted context matrix in `Model.forward` for the next
    point. ca-mean keeps the running feature sum and ca-max the running
    max. Both attention kinds split the first layer as context's op does,
    W1 = [Wp; Wf], and keep each point's key term f_m Wf + b1; saca-a adds
    f_m * w_m to a running sum as each point arrives, while saca-b keeps
    the feature rows, as its weights depend on the querying point's own
    prefix mean. Running sums add rows in np.cumsum's order.
    """

    def __init__(self, model: Model, branch: str, h: Tensor | None, n: int):
        def arrays(block):
            return [(w.data, bias.data) for w, bias in model._layers(branch, block, h)]

        self.kind = model.config.context
        self.enc, self.head = arrays("enc"), arrays("head")
        self.att = arrays("att") if self.kind.needs_mlp else None
        self.features = np.empty((n, model.config.feature_width))
        if self.kind.needs_mlp:
            self.key_terms = np.empty_like(self.features)
        self.count = 0
        self.total = None  # sum of the feature rows
        self.running = None  # ca-max: running max; saca-a: running sum of f_m * w_m

    def observe(self, point: np.ndarray) -> None:
        f = apply_block(dense_forward, self.enc, point, final_linear=False)
        self.features[self.count] = f
        self.count += 1
        self.total = f if self.total is None else self.total + f
        if self.kind is ContextOpKind.CA_MAX:
            self.running = f if self.running is None else np.maximum(self.running, f)
        elif self.kind.needs_mlp:
            (w1, b1), _ = self.att
            self.key_terms[self.count - 1] = f @ w1[f.shape[1]:] + b1
        if self.kind is ContextOpKind.SACA_A:
            fw = f * self._weights(self.count - 1)
            self.running = fw if self.running is None else self.running + fw

    def _weights(self, first: int) -> np.ndarray:
        """Attention weights of key rows first.. under the current prefix mean."""
        (w1, _), (w2, b2) = self.att
        pre = (self.total / self.count) @ w1[: w2.shape[0]] + self.key_terms[first : self.count]
        return dense_forward(np.where(pre > 0.0, pre, 0.0), w2, b2, relu=False)

    def context(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros((1, self.features.shape[1]))
        if self.kind is ContextOpKind.CA_MEAN:
            return self.total / self.count
        if self.kind is ContextOpKind.SACA_B:
            # reduceat, as in context.saca_b: it does not add row by row like np.add.reduce
            return np.add.reduceat(self.features[: self.count] * self._weights(0), [0], axis=0)
        return self.running

    def logits(self, masked: np.ndarray) -> np.ndarray:
        """Logits of the next point from its masked (1, 3) input row."""
        m = apply_block(dense_forward, self.enc, masked, final_linear=False)
        return apply_block(dense_forward, self.head, np.hstack([self.context(), m]),
                           final_linear=True)[0]


def generate(model: Model, settings: SamplerSettings) -> QuantizedPointCloud:
    """Grow a cloud one coordinate at a time (z, then y, then x per point).

    Each coordinate is drawn from the model's softmax given the points
    before it and the coordinates of its own point drawn so far, then fed
    back in before the next draw: 3 variates per point. Only the drawing
    branch's logits row is computed, from cached per-branch context state,
    so a cloud costs O(n) layer rows (O(n^2) for saca-b) and records no
    tape. The output keeps generation order and is not re-sorted.
    """
    cfg = model.config
    rng = np.random.default_rng(settings.seed)
    prefix = settings.prefix
    if prefix is not None and prefix.bin_count != cfg.bins:
        raise InputError("generate: prefix bin count differs from model")
    h = model._condition_tensor(settings.condition)
    caches = {branch: _BranchCache(model, branch, h, settings.n) for branch in BRANCHES}
    start = prefix.n if prefix is not None else 0
    bins = np.zeros((settings.n, 3), dtype=np.int64)
    if start:
        bins[:start] = prefix.bins
    for i in range(settings.n):
        if i >= start:
            for branch in BRANCHES:
                point = QuantizedPointCloud(bins[i : i + 1], cfg.bins)
                logits = caches[branch].logits(build_branch_inputs(point)[branch][1])
                probs = softmax_with_temperature(logits, settings.temperature)
                bins[i, _BRANCH_COLUMN[branch]] = sample_bin(probs, rng)
        if i + 1 < settings.n:
            point = dequantize(QuantizedPointCloud(bins[i : i + 1], cfg.bins))
            for cache in caches.values():
                cache.observe(point)
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
    """Weighted sum of condition vectors: sum(weight * vector), added left to right."""
    scaled = [np.asarray(vec, dtype=np.float64) * float(weight) for weight, vec in terms]
    if not scaled:
        raise InputError("condition_combine: empty term list")
    if any(v.shape != scaled[0].shape for v in scaled):
        raise ShapeMismatchError("condition_combine: mismatched vector dims")
    return sum(scaled[1:], scaled[0])
