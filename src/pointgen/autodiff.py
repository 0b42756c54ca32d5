"""Reverse-mode automatic differentiation over dense 2-D float64 matrices.

Every value is a Tensor wrapping a row-major numpy array of shape
(rows, cols). Forward ops record their parents and a backward closure on
a per-evaluation tape; backward() topologically sorts the tape and
accumulates gradients into .grad. All arithmetic is 64-bit and
deterministic: identical inputs produce bit-identical outputs.

Training points each parameter's .grad at its slice of a zeroed flat
gradient vector, one per cloud, so backward() adds straight into it;
adam_step() reads the clouds' sum beside AdamState's flat moments, all
three in parameter order.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s)

    return _make(x.data * s, (x,), backward)


def dense_forward(x: np.ndarray, w: np.ndarray, bias: np.ndarray, relu: bool) -> np.ndarray:
    """One fully connected layer on plain arrays: x @ w plus the 1-row bias
    in every row, then max(0, .) when relu is set (NaN maps to 0)."""
    pre = x @ w + bias
    return np.where(pre > 0.0, pre, 0.0) if relu else pre


def dense(x: Tensor, w: Tensor, bias: Tensor, relu: bool) -> Tensor:
    """`dense_forward` as one op; the relu's subgradient is 0 at exactly 0.
    The backward pass derives the gradients of x, w and the bias row from
    one pre-activation gradient."""
    if x.cols != w.rows or bias.shape != (1, w.cols):
        raise ShapeMismatchError(f"dense: x {x.shape}, W {w.shape}, bias {bias.shape}")
    out_data = dense_forward(x.data, w.data, bias.data, relu)

    def backward(g):
        d_pre = g * (out_data > 0.0) if relu else g  # out > 0 exactly where pre > 0
        if x.requires_grad:
            x._accumulate(d_pre @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ d_pre)
        if bias.requires_grad:
            bias._accumulate(d_pre.sum(axis=0, keepdims=True))

    return _make(out_data, (x, w, bias), backward)


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


def flat_views(flat: np.ndarray, params: dict[str, Tensor]) -> list[np.ndarray]:
    """One view of `flat` per parameter, in `params` order and shape."""
    ends = np.cumsum([0] + [p.data.size for p in params.values()]).tolist()
    return [flat[i:j].reshape(p.data.shape) for p, i, j in zip(params.values(), ends, ends[1:])]


@dataclass
class AdamState:
    """First/second moments, flat in parameter order, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        # one block, which numpy backs with huge pages from 4 MiB: fewer faults on first read
        m, v = np.zeros((2, sum(p.data.size for p in params.values())))
        return cls(m=m, v=v, t=0)


def adam_step(
    params: dict[str, Tensor],
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place Adam update with bias correction from a flat gradient. It runs
    per parameter: whole-vector temporaries would each be as large as the model."""
    if lr <= 0:
        raise InputError("adam_step: lr must be positive")
    if grad.shape != state.m.shape:
        raise ShapeMismatchError(f"adam_step: gradient {grad.shape}, moments {state.m.shape}")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    views = (flat_views(x, params) for x in (grad, state.m, state.v))
    for p, g, m, v in zip(params.values(), *views):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
