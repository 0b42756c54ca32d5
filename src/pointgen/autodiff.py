"""Reverse-mode automatic differentiation over dense 2-D float64 matrices.

Every value is a Tensor wrapping a row-major numpy array of shape
(rows, cols). Forward ops record their parents and a backward closure on
a per-evaluation tape; backward() topologically sorts the tape and
accumulates gradients into .grad. All arithmetic is 64-bit and
deterministic: identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ShapeMismatchError


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


class Tensor:
    """A 2-D float64 matrix node in the computation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError("item() requires a 1x1 tensor")
        return float(self.data[0, 0])

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a private copy: ops hand the same array, or views of one, to several parents
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# forward ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeMismatchError(f"matmul: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(a.data + b.data, (a, b), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast-add a 1-row bias to every row of x."""
    if b.rows != 1 or b.cols != x.cols:
        raise ShapeMismatchError(f"add_bias: x {x.shape}, b {b.shape}")

    def backward(g):
        if x.requires_grad:
            x._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0, keepdims=True))

    return _make(x.data + b.data, (x, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s)

    return _make(x.data * s, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Entrywise max(0, .); subgradient 0 at exactly 0."""
    mask = x.data > 0.0

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return _make(np.where(mask, x.data, 0.0), (x,), backward)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"elementwise_mul: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _make(a.data * b.data, (a, b), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.rows != b.rows:
        raise ShapeMismatchError(f"concat_cols: {a.shape} vs {b.shape}")
    na = a.cols

    def backward(g):
        if a.requires_grad:
            a._accumulate(g[:, :na])
        if b.requires_grad:
            b._accumulate(g[:, na:])

    return _make(np.hstack([a.data, b.data]), (a, b), backward)


def cross_entropy_from_logits(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[i, targets[i]], in nats.

    Gradient w.r.t. logits is (softmax - onehot) / rows.
    """
    idx = np.asarray(targets, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != logits.rows:
        raise ShapeMismatchError("cross_entropy: one target per logit row required")
    if idx.size and (idx.min() < 0 or idx.max() >= logits.cols):
        raise IndexError("cross_entropy: target bin out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    n = logits.rows
    loss = -logp[np.arange(n), idx].mean()
    p = np.exp(logp)

    def backward(g):
        if logits.requires_grad:
            gl = p.copy()
            gl[np.arange(n), idx] -= 1.0
            logits._accumulate(gl * (g[0, 0] / n))

    return _make([[loss]], (logits,), backward)


def mean_pool_prefix(x: Tensor) -> Tensor:
    """Row i is the mean of rows 0..i (running prefix mean)."""
    if x.rows < 1:
        raise ShapeMismatchError("mean_pool_prefix: empty matrix")
    counts = np.arange(1, x.rows + 1, dtype=np.float64)[:, None]
    out_data = np.cumsum(x.data, axis=0) / counts

    def backward(g):
        if x.requires_grad:
            # d out_i / d x_j = 1/(i+1) for j <= i
            x._accumulate(np.cumsum((g / counts)[::-1], axis=0)[::-1])

    return _make(out_data, (x,), backward)


def max_pool_prefix(x: Tensor) -> Tensor:
    """Row i is the entrywise max of rows 0..i.

    Gradient is routed to the running argmax; ties keep the earliest row.
    """
    if x.rows < 1:
        raise ShapeMismatchError("max_pool_prefix: empty matrix")
    n, c = x.shape
    out_data = np.maximum.accumulate(x.data, axis=0)
    # latest row where the running max strictly rose, so ties keep the earliest row
    rises = np.ones((n, c), dtype=bool)
    rises[1:] = x.data[1:] > out_data[:-1]
    argmax = np.maximum.accumulate(np.where(rises, np.arange(n)[:, None], 0), axis=0)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            cols = np.broadcast_to(np.arange(c), (n, c))
            np.add.at(gx, (argmax, cols), g)
            x._accumulate(gx)

    return _make(out_data, (x,), backward)


def shift_down(x: Tensor) -> Tensor:
    """Shift rows down by one; first row becomes zeros, last row is dropped."""
    out_data = np.zeros_like(x.data)
    out_data[1:] = x.data[:-1]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:-1] = g[1:]
            x._accumulate(gx)

    return _make(out_data, (x,), backward)


def cumsum_rows(x: Tensor) -> Tensor:
    """Row i is the sum of rows 0..i."""

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.cumsum(g[::-1], axis=0)[::-1])

    return _make(np.cumsum(x.data, axis=0), (x,), backward)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d node into .grad for every reachable node."""
    if loss.data.size != 1:
        raise ShapeMismatchError("backward: loss must be a 1x1 tensor")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# parameters and optimizer


def collect_gradients(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradient per parameter; parameters untouched by the loss get zeros."""
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


def zero_gradients(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
            t=0,
        )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place Adam update with bias correction."""
    if lr <= 0:
        raise InputError("adam_step: lr must be positive")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeMismatchError(f"adam_step: gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
