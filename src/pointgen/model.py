"""Three-branch autoregressive network over quantized point clouds.

Branch "z" models p(z_i | previous points), branch "y" additionally sees
z_i, branch "x" sees z_i and y_i. Each branch encodes the full cloud for
the context path (causality comes from the context shift), encodes a
masked copy of the current point, and scores B bins per coordinate from
the concatenation of shifted context and masked-point features.

A condition vector h, when configured, contributes an additive per-layer
bias H @ h in every fully-connected layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor
from .context import ContextOpKind, LayerTensors, apply_context
from .data import QuantizedPointCloud, dequantize
from .errors import ConfigError, InputError, NonFiniteLossError

BRANCHES = ("z", "y", "x")
LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModelConfig:
    bins: int = 200
    feature_width: int = 128
    encoder_widths: tuple[int, ...] = (64, 128, 128)
    head_widths: tuple[int, ...] = (128,)
    context: ContextOpKind = ContextOpKind.SACA_A
    condition_dim: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        object.__setattr__(self, "head_widths", tuple(self.head_widths))
        if self.bins < 2:
            raise ConfigError("bins must be >= 2")
        if not self.encoder_widths or self.encoder_widths[-1] != self.feature_width:
            raise ConfigError("last encoder width must equal feature_width")
        if self.condition_dim < 0:
            raise ConfigError("condition_dim must be >= 0")

    # layer dimension tables, one (fan_in, fan_out) pair per layer
    def encoder_dims(self) -> list[tuple[int, int]]:
        widths = (3,) + self.encoder_widths
        return list(zip(widths[:-1], widths[1:]))

    def attention_dims(self) -> list[tuple[int, int]]:
        f = self.feature_width
        return [(2 * f, f), (f, f)]

    def head_dims(self) -> list[tuple[int, int]]:
        widths = (2 * self.feature_width,) + self.head_widths + (self.bins,)
        return list(zip(widths[:-1], widths[1:]))

    def parameter_shapes(self) -> dict[str, tuple[int, int]]:
        """Shape of every parameter matrix by name, in initialisation order."""
        blocks = [("enc", self.encoder_dims())]
        if self.context.needs_mlp:
            blocks.append(("att", self.attention_dims()))
        blocks.append(("head", self.head_dims()))
        shapes = {}
        for branch in BRANCHES:
            for block, dims in blocks:
                for k, (fan_in, fan_out) in enumerate(dims):
                    name = f"{branch}.{block}{k}"
                    shapes[f"{name}.W"] = (fan_in, fan_out)
                    shapes[f"{name}.b"] = (1, fan_out)
                    if self.condition_dim > 0:
                        shapes[f"{name}.H"] = (self.condition_dim, fan_out)
        return shapes

    def to_dict(self) -> dict:
        return {
            "bins": self.bins,
            "feature_width": self.feature_width,
            "encoder_widths": list(self.encoder_widths),
            "head_widths": list(self.head_widths),
            "context": self.context.value,
            "condition_dim": self.condition_dim,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        missing = sorted({f.name for f in fields(cls)} - d.keys())
        if missing:
            raise ConfigError(f"missing model config fields {missing}")
        d["context"] = ContextOpKind(d["context"])
        d["encoder_widths"] = tuple(d["encoder_widths"])
        d["head_widths"] = tuple(d["head_widths"])
        return cls(**d)


@dataclass
class NllResult:
    loss: Tensor  # 1x1, mean nats per coordinate (training objective)
    total_nats: float  # summed over 3n coordinates
    bits_per_coordinate: float


def init_parameters(config: ModelConfig) -> dict[str, Tensor]:
    """Seeded uniform fan-in/fan-out init; biases zero.

    The final head layer starts at exactly zero so a fresh model scores
    every bin uniformly (log2(bins) bits per coordinate).
    """
    rng = np.random.default_rng(config.seed)
    last_head = f"head{len(config.head_dims()) - 1}"
    params: dict[str, Tensor] = {}
    for name, shape in config.parameter_shapes().items():
        _, layer, kind = name.split(".")
        if kind == "b" or layer == last_head:
            data = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / sum(shape))  # fan-in + fan-out (H: condition dim + fan-out)
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def build_branch_inputs(q: QuantizedPointCloud) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Context-path and masked current-point inputs per branch.

    Context-path rows carry the full dequantized point (the shift makes
    them causal). Masked rows zero the coordinates of point i that the
    branch must not see: z-branch sees nothing, y-branch sees z_i,
    x-branch sees (y_i, z_i). Column order is (x, y, z).
    """
    coords = dequantize(q)
    masked_z = np.zeros_like(coords)
    masked_y = np.zeros_like(coords)
    masked_y[:, 2] = coords[:, 2]
    masked_x = np.zeros_like(coords)
    masked_x[:, 1] = coords[:, 1]
    masked_x[:, 2] = coords[:, 2]
    return {"z": (coords, masked_z), "y": (coords, masked_y), "x": (coords, masked_x)}


Layer = tuple[np.ndarray, np.ndarray, np.ndarray | None]  # W, b and h @ H of one layer


def dense_block(x: np.ndarray, layers: list[Layer], final_linear: bool) -> np.ndarray:
    """`Model._apply_block` on plain arrays, without a tape: the same
    products and sums in the same order. A product of one row can still
    differ from that row of a larger product in the last bits (BLAS)."""
    for k, (w, b, hh) in enumerate(layers):
        pre = x @ w + b
        if hh is not None:
            pre = pre + hh
        last = k == len(layers) - 1
        x = pre if (last and final_linear) else np.where(pre > 0.0, pre, 0.0)
    return x


class Model:
    """Parameters plus config; forward/loss/training entry points."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None):
        self.config = config
        self.params = params if params is not None else init_parameters(config)

    # -- layer application ---------------------------------------------------

    def _layers(self, branch: str, block: str, h: Tensor | None) -> list[LayerTensors]:
        """The (W, b, h @ H) tensors of each layer of one block; h @ H is
        None for an unconditional model."""
        dims = {"enc": self.config.encoder_dims, "att": self.config.attention_dims,
                "head": self.config.head_dims}[block]()
        layers = []
        for k in range(len(dims)):
            name = f"{branch}.{block}{k}"
            hh = None if h is None else ad.matmul(h, self.params[f"{name}.H"])
            layers.append((self.params[f"{name}.W"], self.params[f"{name}.b"], hh))
        return layers

    @staticmethod
    def _apply_block(layers: list[LayerTensors], x: Tensor, final_linear: bool,
                     collect: list[Tensor] | None = None) -> Tensor:
        for k, (w, b, hh) in enumerate(layers):
            pre = ad.add_bias(ad.matmul(x, w), b)
            if hh is not None:
                pre = ad.add_bias(pre, hh)
            x = pre if (k == len(layers) - 1 and final_linear) else ad.relu(pre)
            if collect is not None:
                collect.append(x)
        return x

    def layer_arrays(self, branch: str, block: str, h: np.ndarray | None) -> list[Layer]:
        """The layers of one block as `dense_block` takes them; h is the
        (1, condition_dim) condition row or None."""
        layers = self._layers(branch, block, None if h is None else ad.constant(h))
        return [(w.data, b.data, None if hh is None else hh.data) for w, b, hh in layers]

    def _encode(self, branch, rows: np.ndarray, h, collect=None) -> Tensor:
        return self._apply_block(self._layers(branch, "enc", h), ad.constant(rows),
                                 final_linear=False, collect=collect)

    def _condition_tensor(self, condition) -> Tensor | None:
        d = self.config.condition_dim
        if d == 0:
            if condition is not None:
                raise ConfigError("model is unconditional; no condition vector accepted")
            return None
        if condition is None:
            raise ConfigError(f"model expects a condition vector of dim {d}")
        vec = np.asarray(condition, dtype=np.float64).reshape(1, -1)
        if vec.shape[1] != d:
            raise ConfigError(f"condition dim {vec.shape[1]} != configured {d}")
        return ad.constant(vec)

    # -- forward / loss -------------------------------------------------------

    def forward(
        self,
        q: QuantizedPointCloud,
        condition=None,
        intermediates: dict | None = None,
    ) -> dict[str, Tensor]:
        """Score every point's three coordinate distributions in one pass:
        (n, bins) logits per branch, keyed "z", "y", "x".

        When `intermediates` is a dict it receives, per branch, the
        pre-context point features, the shifted context matrix, and each
        encoder layer activation.
        """
        if q.n < 1:
            raise InputError("forward: empty cloud")
        if q.bin_count != self.config.bins:
            raise InputError(f"cloud bins {q.bin_count} != model bins {self.config.bins}")
        h = self._condition_tensor(condition)
        inputs = build_branch_inputs(q)
        mlp_needed = self.config.context.needs_mlp
        out = {}
        for branch in BRANCHES:
            ctx_rows, masked_rows = inputs[branch]
            acts: list[Tensor] = []
            features = self._encode(branch, ctx_rows, h, collect=acts)
            layers = self._layers(branch, "att", h) if mlp_needed else None
            context = apply_context(self.config.context, features, layers)
            masked_feat = self._encode(branch, masked_rows, h)
            logits = self._apply_block(self._layers(branch, "head", h),
                                       ad.concat_cols(context, masked_feat), final_linear=True)
            out[branch] = logits
            if intermediates is not None:
                intermediates[branch] = {
                    "features": features,
                    "context": context,
                    "activations": acts,
                }
        return out

    def nll_loss(self, logits: dict[str, Tensor], q: QuantizedPointCloud) -> NllResult:
        """Mean nats per coordinate, total nats, and bits per coordinate."""
        ce = [
            ad.cross_entropy_from_logits(logits["z"], q.bins[:, 2]),
            ad.cross_entropy_from_logits(logits["y"], q.bins[:, 1]),
            ad.cross_entropy_from_logits(logits["x"], q.bins[:, 0]),
        ]
        loss = ad.scale(ad.add(ad.add(ce[0], ce[1]), ce[2]), 1.0 / 3.0)
        mean_nats = loss.item()
        return NllResult(
            loss=loss,
            total_nats=mean_nats * 3 * q.n,
            bits_per_coordinate=mean_nats / LN2,
        )

    def cloud_nll(self, q: QuantizedPointCloud, condition=None) -> NllResult:
        return self.nll_loss(self.forward(q, condition), q)

    # -- training -------------------------------------------------------------

    def train_step(
        self,
        state: AdamState,
        batch: list[QuantizedPointCloud],
        lr: float,
        conditions=None,
    ) -> tuple[float, float]:
        """One Adam step on the batch-mean loss.

        Returns (mean nats per coordinate, mean bits per coordinate).
        Raises NonFiniteLossError, with parameters and Adam state untouched,
        when the loss is NaN or infinite.
        """
        if not batch:
            raise InputError("train_step: empty batch")
        if any(q.bin_count != self.config.bins for q in batch):
            raise InputError("train_step: inconsistent bin count in batch")
        if conditions is not None and len(conditions) != len(batch):
            raise InputError("train_step: one condition per cloud required")
        total = None
        for j, q in enumerate(batch):
            cond = conditions[j] if conditions is not None else None
            result = self.cloud_nll(q, cond)
            total = result.loss if total is None else ad.add(total, result.loss)
        mean_loss = ad.scale(total, 1.0 / len(batch))
        nats = mean_loss.item()
        if not math.isfinite(nats):
            raise NonFiniteLossError(f"loss is {nats}")
        ad.zero_gradients(self.params)
        ad.backward(mean_loss)
        grads = ad.collect_gradients(self.params)
        ad.adam_step(self.params, grads, state, lr)
        ad.zero_gradients(self.params)
        return nats, nats / LN2

    # -- feature extraction ----------------------------------------------------

    def extract_features(self, q: QuantizedPointCloud, condition=None) -> np.ndarray:
        """Pooled encoder activations as one fixed-length shape descriptor.

        Order: branches z, y, x; within a branch, encoder layers in depth
        order; per layer the min, max and mean over rows, concatenated.
        Length = 3 branches * sum(encoder widths) * 3 poolings.
        """
        inter: dict = {}
        self.forward(q, condition, intermediates=inter)
        pieces = []
        for branch in BRANCHES:
            for act in inter[branch]["activations"]:
                a = act.data
                pieces.extend([a.min(axis=0), a.max(axis=0), a.mean(axis=0)])
        return np.concatenate(pieces)
