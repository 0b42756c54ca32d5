"""Context aggregation operators over per-point feature matrices.

All variants summarize the rows preceding each position and shift the
result down one row so position i only ever sees positions < i:

  CA mean / CA max  - fixed prefix pooling, no learned weights
  attention A       - weight for row m depends on row m's own prefix mean
  attention B       - weights for position i all share position i's prefix mean
"""

from __future__ import annotations

import enum
from typing import Callable

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


MlpFn = Callable[[Tensor], Tensor]  # (rows, 2f) -> (rows, f)


def saca_a(features: Tensor, mlp: MlpFn) -> Tensor:
    """Per-row attention weights from each row's own prefix mean.

    w_m = mlp(prefix_mean_m ++ f_m); context_i = sum_{m<=i} f_m * w_m,
    accumulated as a running sum, then shifted down one row.
    """
    pooled = ad.mean_pool_prefix(features)
    weights = mlp(ad.concat_cols(pooled, features))
    if weights.cols != features.cols:
        raise ShapeMismatchError(
            f"attention mlp output width {weights.cols} != feature width {features.cols}"
        )
    return ad.shift_down(ad.cumsum_rows(ad.elementwise_mul(features, weights)))


def saca_b(features: Tensor, mlp: MlpFn) -> Tensor:
    """Shared-prefix attention: position i reweights rows m <= i using
    position i's prefix mean.

    context_i = sum_{m<=i} f_m * mlp(prefix_mean_i ++ f_m). Evaluated as
    one mlp pass over all (i, m<=i) pairs followed by a segment sum.
    """
    n = features.rows
    pooled = ad.mean_pool_prefix(features)
    # pair rows ordered by i then m, so segments are contiguous
    i_idx = np.repeat(np.arange(n), np.arange(1, n + 1))
    m_idx = np.concatenate([np.arange(i + 1) for i in range(n)])
    f_pairs = ad.gather_rows(features, m_idx)
    weights = mlp(ad.concat_cols(ad.gather_rows(pooled, i_idx), f_pairs))
    if weights.cols != features.cols:
        raise ShapeMismatchError(
            f"attention mlp output width {weights.cols} != feature width {features.cols}"
        )
    weighted = ad.elementwise_mul(f_pairs, weights)
    return ad.shift_down(ad.segment_sum_rows(weighted, i_idx, n))


def apply_context(kind: ContextOpKind, features: Tensor, mlp: MlpFn | None = None) -> Tensor:
    """Dispatch to the configured context operator (output already shifted)."""
    if kind.needs_mlp:
        if mlp is None:
            raise ConfigError(f"{kind.value} requires an attention mlp")
        return saca_a(features, mlp) if kind is ContextOpKind.SACA_A else saca_b(features, mlp)
    if kind is ContextOpKind.CA_MEAN:
        return ad.shift_down(ad.mean_pool_prefix(features))
    return ad.shift_down(ad.max_pool_prefix(features))
