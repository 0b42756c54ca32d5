"""Context aggregation operators over per-point feature matrices.

All variants summarize the rows preceding each position and shift the
result down one row so position i only ever sees positions < i:

  CA mean / CA max  - fixed prefix pooling, no learned weights
  attention A       - weight for row m depends on row m's own prefix mean
  attention B       - weights for position i all share position i's prefix mean
"""

from __future__ import annotations

import enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeMismatchError


class ContextOpKind(enum.Enum):
    CA_MEAN = "ca-mean"
    CA_MAX = "ca-max"
    SACA_A = "saca-a"
    SACA_B = "saca-b"

    @property
    def needs_mlp(self) -> bool:
        return self in (ContextOpKind.SACA_A, ContextOpKind.SACA_B)


LayerTensors = tuple[Tensor, Tensor]  # W and bias row (b, or b + h @ H) of one layer

# Pair elements (pairs x feature width) that one block of saca-b query rows may
# hold: bounds the op's working memory whatever the cloud size.
SACA_B_BLOCK = 2**19


def saca_a(features: Tensor, layers: list[LayerTensors]) -> Tensor:
    """Per-row attention weights from each row's own prefix mean.

    w_m = mlp(prefix_mean_m ++ f_m); context_i = sum_{m<=i} f_m * w_m,
    accumulated as a running sum, then shifted down one row. The mlp runs
    the given layers with a relu between them.
    """
    weights = ad.concat_cols(ad.mean_pool_prefix(features), features)
    for k, (w, bias) in enumerate(layers):
        weights = ad.dense(weights, w, bias, relu=k < len(layers) - 1)
    if weights.cols != features.cols:
        raise ShapeMismatchError(
            f"attention mlp output width {weights.cols} != feature width {features.cols}"
        )
    return ad.shift_down(ad.cumsum_rows(ad.elementwise_mul(features, weights)))


def saca_b(features: Tensor, layers: list[LayerTensors]) -> Tensor:
    """Shared-prefix attention: position i reweights rows m <= i using
    position i's prefix mean.

    context_i = sum_{m<=i} f_m * mlp(prefix_mean_i ++ f_m), shifted down
    one row; the mlp has two layers, the first with a relu.
    """
    return ad.shift_down(_shared_prefix_attention(features, ad.mean_pool_prefix(features), layers))


def _row_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """Blocks of query rows [i0, i1) whose pairs (i, m <= i) hold at most
    SACA_B_BLOCK elements of the given width; a block has at least one row."""
    ends = np.cumsum(np.arange(1, n + 1))  # pairs of rows 0..i
    cap = max(SACA_B_BLOCK // width, 1)
    blocks, i0 = [], 0
    while i0 < n:
        done = int(ends[i0 - 1]) if i0 else 0
        i1 = max(int(np.searchsorted(ends, done + cap, side="right")), i0 + 1)
        blocks.append((i0, i1))
        i0 = i1
    return blocks


def _block_pairs(i0: int, i1: int):
    """The pairs of query rows [i0, i1), ordered by query row i, then key
    row m: each pair's i and m, and the first pair of each query row."""
    counts = np.arange(i0 + 1, i1 + 1)
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(i0, i1), counts)
    keys = np.arange(int(counts.sum())) - np.repeat(starts, counts)
    return rows, keys, starts


def _shared_prefix_attention(features: Tensor, pooled: Tensor,
                             layers: list[LayerTensors]) -> Tensor:
    """Unshifted saca-b context as one op with a hand-written backward.

    The first layer splits as W1 = [Wp; Wf], so the pre-activation of pair
    (i, m) is A[i] + B[m] with A = pooled Wp + bias row 1 and B = f Wf.
    Pairs are formed block by block over query rows, in the forward pass
    and again in the backward pass, in buffers reused from block to block,
    so memory stays O(n f + SACA_B_BLOCK) and only A and B are kept
    between the two passes.
    """
    (w1, b1), (w2, b2) = layers
    n, width = features.shape
    f = features.data
    if w1.shape != (2 * width, width) or w2.shape != (width, width):
        raise ShapeMismatchError(
            f"attention layers {w1.shape}, {w2.shape} do not fit feature width {width}"
        )
    wp, wf = w1.data[:width], w1.data[width:]
    a = pooled.data @ wp + b1.data
    b = f @ wf
    blocks = _row_blocks(n, width)
    size = max((i1 * (i1 + 1) - i0 * (i0 + 1)) // 2 for i0, i1 in blocks)

    def pair_weights(rows, keys, hidden, weights, tmp):
        """Fill hidden with the pairs' first-layer activations and weights
        with their attention weights."""
        np.take(a, rows, axis=0, out=hidden, mode="clip")
        hidden += np.take(b, keys, axis=0, out=tmp, mode="clip")
        np.fmax(hidden, 0.0, out=hidden)  # relu that maps NaN to 0, as ad.dense does
        np.matmul(hidden, w2.data, out=weights)
        weights += b2.data

    out = np.empty_like(f)
    buffers = [np.empty((size, width)) for _ in range(3)]
    for i0, i1 in blocks:
        rows, keys, starts = _block_pairs(i0, i1)
        hidden, weights, tmp = (buf[: rows.size] for buf in buffers)
        pair_weights(rows, keys, hidden, weights, tmp)
        weights *= np.take(f, keys, axis=0, out=tmp, mode="clip")
        out[i0:i1] = np.add.reduceat(weights, starts, axis=0)

    def backward(g):
        da = np.empty_like(a)
        db = np.zeros_like(b)
        df = np.zeros_like(f)
        dw2 = np.zeros_like(w2.data)
        db2 = np.zeros_like(b2.data)
        buffers = [np.empty((size, width)) for _ in range(4)]
        for i0, i1 in blocks:
            rows, keys, starts = _block_pairs(i0, i1)
            hidden, weights, tmp, d_weights = (buf[: rows.size] for buf in buffers)
            pair_weights(rows, keys, hidden, weights, tmp)
            np.take(g, rows, axis=0, out=d_weights, mode="clip")
            d_keys = weights
            d_keys *= d_weights  # through the product f_m * w
            d_weights *= np.take(f, keys, axis=0, out=tmp, mode="clip")
            dw2 += hidden.T @ d_weights
            db2 += d_weights.sum(axis=0, keepdims=True)
            d_pre = np.matmul(d_weights, w2.data.T, out=tmp)
            d_pre *= hidden > 0.0
            da[i0:i1] = np.add.reduceat(d_pre, starts, axis=0)
            # sum over query rows per key row m: a stable by-m order, then runs
            by_key = np.argsort(keys, kind="stable")
            key_counts = i1 - np.maximum(np.arange(i1), i0)  # query rows >= max(m, i0)
            key_starts = np.cumsum(key_counts) - key_counts
            db[:i1] += np.add.reduceat(np.take(d_pre, by_key, axis=0, out=hidden, mode="clip"),
                                       key_starts, axis=0)
            df[:i1] += np.add.reduceat(np.take(d_keys, by_key, axis=0, out=d_weights, mode="clip"),
                                       key_starts, axis=0)
        df += db @ wf.T
        grads = [(features, df), (pooled, da @ wp.T),
                 (w1, np.vstack([pooled.data.T @ da, f.T @ db])),
                 (b1, da.sum(axis=0, keepdims=True)), (w2, dw2), (b2, db2)]
        for t, grad in grads:
            if t.requires_grad:
                t._accumulate(grad)

    return ad._make(out, (features, pooled, w1, b1, w2, b2), backward)


def apply_context(kind: ContextOpKind, features: Tensor,
                  layers: list[LayerTensors] | None = None) -> Tensor:
    """Dispatch to the configured context operator (output already shifted);
    the attention operators take the two layers of their mlp."""
    if kind.needs_mlp:
        if layers is None:
            raise ConfigError(f"{kind.value} requires an attention mlp")
        return (saca_a if kind is ContextOpKind.SACA_A else saca_b)(features, layers)
    if kind is ContextOpKind.CA_MEAN:
        return ad.shift_down(ad.mean_pool_prefix(features))
    return ad.shift_down(ad.max_pool_prefix(features))
