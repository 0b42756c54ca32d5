"""Three-branch autoregressive network over quantized point clouds.

Branch "z" models p(z_i | previous points), branch "y" additionally sees
z_i, branch "x" sees z_i and y_i. Each branch encodes the full cloud for
the context path (causality comes from the context shift), encodes a
masked copy of the current point, and scores B bins per coordinate from
the concatenation of shifted context and masked-point features.

A condition vector h, when configured, adds h @ H to the bias row b of
every fully connected layer: b + h @ H is formed once per layer and
cloud, before it is broadcast over the rows (`autodiff.dense`).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
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
        if min(self.encoder_widths + self.head_widths) <= 0:
            raise ConfigError("every layer width must be positive")
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


# Points times parameters of a batch's mean cloud below which a training step
# runs on one thread. Threads take turns at the GIL between numpy calls, so a
# second one pays only where those calls are long; smaller clouds gained little
# or nothing, and lost more than a serial step when another process took a CPU.
THREADED_WORK = 2**24


def _workers(batch: list[QuantizedPointCloud], parameters: int) -> int:
    """Threads for a training step: as many BLAS thread pools as the usable
    CPUs hold, at most one per cloud, at least one, and one below
    THREADED_WORK. BLAS's default is one thread per CPU, so an unpinned BLAS
    gets one worker."""
    if sum(q.n for q in batch) * parameters < THREADED_WORK * len(batch):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
    values = (os.environ.get(v, "").strip()
              for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    blas_threads = next((int(v) for v in values if v.isdecimal() and int(v) > 0), cpus)
    return max(1, min(len(batch), cpus // blas_threads))


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


def apply_block(layer, layers: list, x, final_linear: bool, collect: list | None = None):
    """Run x through one block's (W, bias row) layers with `layer`: `ad.dense`
    on tensors, or `ad.dense_forward` on the plain arrays of the sampler.
    Every layer but, with final_linear, the last ends in a relu."""
    for k, (w, bias) in enumerate(layers):
        x = layer(x, w, bias, relu=not (final_linear and k == len(layers) - 1))
        if collect is not None:
            collect.append(x)
    return x


class Model:
    """Parameters plus config; forward/loss/training entry points."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None):
        self.config = config
        self.params = params if params is not None else init_parameters(config)

    # -- layer application ---------------------------------------------------

    def _layers(self, branch: str, block: str, h: Tensor | None) -> list[LayerTensors]:
        """The (W, bias row) of each layer of one block. The bias row is b,
        or b + h @ H for a conditional model, formed once per call."""
        dims = {"enc": self.config.encoder_dims, "att": self.config.attention_dims,
                "head": self.config.head_dims}[block]()
        layers = []
        for k in range(len(dims)):
            name = f"{branch}.{block}{k}"
            bias = self.params[f"{name}.b"]
            if h is not None:
                bias = ad.add(bias, ad.matmul(h, self.params[f"{name}.H"]))
            layers.append((self.params[f"{name}.W"], bias))
        return layers

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
            encoder = self._layers(branch, "enc", h)
            acts: list[Tensor] = []
            features = apply_block(ad.dense, encoder, ad.constant(ctx_rows), final_linear=False,
                                   collect=acts)
            layers = self._layers(branch, "att", h) if mlp_needed else None
            context = apply_context(self.config.context, features, layers)
            masked_feat = apply_block(ad.dense, encoder, ad.constant(masked_rows),
                                      final_linear=False)
            logits = apply_block(ad.dense, self._layers(branch, "head", h),
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

        Each cloud runs its forward and backward pass as its own task, on
        `_workers` threads, into its own gradient vector; the vectors are
        summed in cloud order, so the result does not depend on the number
        of threads. Returns (mean nats per coordinate, mean bits per coordinate).
        Raises NonFiniteLossError, with parameters and Adam state untouched,
        when a parameter (checked before the forward pass) or the loss is NaN
        or infinite; a cloud's error re-raises, the first in cloud order, with
        them untouched too.
        """
        if not batch:
            raise InputError("train_step: empty batch")
        if any(q.bin_count != self.config.bins for q in batch):
            raise InputError("train_step: inconsistent bin count in batch")
        if conditions is not None and len(conditions) != len(batch):
            raise InputError("train_step: one condition per cloud required")
        for name, p in self.params.items():
            finite = np.isfinite(p.data)
            if not finite.all():
                raise NonFiniteLossError(f"parameter {name} holds {p.data[~finite][0]}")
        grads = np.zeros((len(batch),) + state.m.shape)
        conds = conditions if conditions is not None else [None] * len(batch)
        losses: list = [None] * len(batch)  # a loss, or the error that stopped a worker
        workers = _workers(batch, state.m.size)

        def run(first: int) -> None:
            """Clouds first, first + workers, ... in order, until one raises."""
            for j in range(first, len(batch), workers):
                try:
                    losses[j] = self._cloud_gradient(batch[j], conds[j], grads[j],
                                                     1.0 / len(batch))
                except Exception as exc:  # raised below, once every worker is done
                    losses[j] = exc
                    return

        # The calling thread is worker 0, so its heap serves a share of the tapes;
        # each further thread keeps a heap of its own. No thread outlives the step.
        with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
            futures = [pool.submit(run, k) for k in range(1, workers)]
            run(0)
        for future in futures:
            future.result()  # raises what run does not catch
        for loss in losses:  # the first error in cloud order
            if isinstance(loss, Exception):
                raise loss
        nats, grad = losses[0], grads[0]
        for loss, other in zip(losses[1:], grads[1:]):  # in cloud order, whatever the workers
            nats += loss
            grad += other
        nats *= 1.0 / len(batch)
        if not math.isfinite(nats):
            raise NonFiniteLossError(f"loss is {nats}")
        ad.adam_step(self.params, grad, state, lr)
        return nats, nats / LN2

    def _cloud_gradient(self, q: QuantizedPointCloud, condition, grad: np.ndarray,
                        weight: float) -> float:
        """Add weight * d loss / d parameters of one cloud into the flat vector
        `grad`, when the loss is finite, and return the loss. The tape runs on
        proxies that share the parameters' memory, so clouds can run on
        concurrent threads; each tape is freed when its cloud is done."""
        proxies = {name: Tensor(p.data, requires_grad=True) for name, p in self.params.items()}
        for proxy, view in zip(proxies.values(), ad.flat_views(grad, proxies)):
            proxy.grad = view
        loss = Model(self.config, proxies).cloud_nll(q, condition).loss
        if math.isfinite(loss.item()):
            ad.backward(ad.scale(loss, weight))
        return loss.item()

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
