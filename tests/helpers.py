"""Shared test utilities: finite-difference checks and toy shape corpora."""

import numpy as np

import pointgen.autodiff as ad
from pointgen.data import QuantizedPointCloud, normalize_unit_cube, quantize
from pointgen.errors import ShapeMismatchError
from pointgen.sampler import sample_bin, softmax_with_temperature


def finite_difference_check(loss_fn, params, eps=1e-5, tol=1e-4, floor=1e-6):
    """Compare analytic gradients of loss_fn() against central differences.

    loss_fn must rebuild the computation from `params` (dict name->Tensor)
    on every call. Relative error uses a denominator floor so gradients at
    the finite-difference noise level are judged on absolute error.
    Returns the worst relative error seen.
    """
    for p in params.values():
        p.grad = None
    ad.backward(loss_fn())
    worst = 0.0
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p.data[ix]
            p.data[ix] = orig + eps
            lp = loss_fn().item()
            p.data[ix] = orig - eps
            lm = loss_fn().item()
            p.data[ix] = orig
            fd = (lp - lm) / (2.0 * eps)
            rel = abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), floor)
            if rel > worst:
                worst = rel
            assert rel < tol, f"{name}{ix}: analytic {g[ix]}, fd {fd}, rel {rel}"
    return worst


def elementwise_mul(a, b):
    """a * b entry by entry, as a tape node."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"elementwise_mul: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return ad._make(a.data * b.data, (a, b), backward)


def cumsum_rows(x):
    """Row i is the sum of rows 0..i, as a tape node."""

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.cumsum(g[::-1], axis=0)[::-1])

    return ad._make(np.cumsum(x.data, axis=0), (x,), backward)


def sink(x, g):
    """sum(x * g) as a 1x1 loss: its backward pass hands x the upstream gradient g."""

    def backward(up):
        if x.requires_grad:
            x._accumulate(g * up[0, 0])

    return ad._make([[float(np.sum(x.data * g))]], (x,), backward)


def saca_a_chain(features, layers):
    """saca-a as the chain of seven tape nodes that its fused op replaced:
    the oracle for context.saca_a.

    w_m = mlp(prefix_mean_m ++ f_m); context_i = sum_{m<=i} f_m * w_m,
    accumulated as a running sum, then shifted down one row.
    """
    weights = ad.concat_cols(ad.mean_pool_prefix(features), features)
    for k, (w, bias) in enumerate(layers):
        weights = ad.dense(weights, w, bias, relu=k < len(layers) - 1)
    return ad.shift_down(cumsum_rows(elementwise_mul(features, weights)))


def adam_step_per_name(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam loop over per-name gradient and moment dicts that the flat
    optimizer state replaced; the oracle for autodiff.adam_step.

    Updates `params`, `m` and `v` in place and returns the new step count.
    """
    t += 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g, mn, vn = grads[name], m[name], v[name]
        mn *= beta1
        mn += (1.0 - beta1) * g
        vn *= beta2
        vn += (1.0 - beta2) * g * g
        p.data -= lr * (mn / bc1) / (np.sqrt(vn / bc2) + eps)
    return t


def fd_input_check(fn, x0, eps=1e-5, tol=1e-4, floor=1e-6):
    """Finite-difference check of d fn(x) / d x for a tensor-valued input.

    fn maps a Tensor to a 1x1 loss Tensor.
    """
    x = ad.Tensor(x0, requires_grad=True)
    params = {"x": x}
    return finite_difference_check(lambda: fn(params["x"]), params,
                                   eps=eps, tol=tol, floor=floor)


def randomize_params(model, rng, scale=0.4):
    """Overwrite all parameters (incl. the zero-init head) with noise."""
    for p in model.params.values():
        p.data = rng.normal(0.0, scale, p.data.shape)


def overflow_gradient(model):
    """Huge first and last layers around a tiny middle one, in every branch of
    a one-layer encoder and a two-layer head: the loss stays finite, about
    1e101 nats, while the products of the head's first-layer gradient overflow."""
    for branch in ("z", "y", "x"):
        model.params[f"{branch}.enc0.W"].data[:] = 1e200
        model.params[f"{branch}.head0.W"].data[:] = 1e-300
        w = model.params[f"{branch}.head1.W"].data
        w[:] = np.linspace(-1e200, 1e200, w.size).reshape(w.shape)


def sphere_cloud(rng, n=64):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return normalize_unit_cube(v)


def box_cloud(rng, n=64):
    face = rng.integers(0, 6, n)
    u = rng.random((n, 2))
    pts = np.empty((n, 3))
    for i, f in enumerate(face):
        axis = f // 2
        rest = [a for a in range(3) if a != axis]
        pts[i, axis] = float(f % 2)
        pts[i, rest[0]] = u[i, 0]
        pts[i, rest[1]] = u[i, 1]
    return normalize_unit_cube(pts)


def toy_dataset(seed=42, bins=32, n_points=64, per_family=10):
    rng = np.random.default_rng(seed)
    clouds = [quantize(sphere_cloud(rng, n_points), bins) for _ in range(per_family)]
    clouds += [quantize(box_cloud(rng, n_points), bins) for _ in range(per_family)]
    return clouds


def random_cloud(rng, n, bins):
    return quantize(rng.random((n, 3)), bins)


def naive_generate(model, settings):
    """Oracle sampler: a full `Model.forward` over the partial cloud for
    each of the 3n draws, keeping one row of one branch."""
    cfg = model.config
    rng = np.random.default_rng(settings.seed)
    prefix = settings.prefix
    start = prefix.n if prefix is not None else 0
    bins = np.zeros((settings.n, 3), dtype=np.int64)
    if start:
        bins[:start] = prefix.bins
    for i in range(start, settings.n):
        for branch, column in (("z", 2), ("y", 1), ("x", 0)):
            partial = QuantizedPointCloud(bins[: i + 1].copy(), cfg.bins)
            logits = model.forward(partial, settings.condition)[branch]
            probs = softmax_with_temperature(logits.data[i], settings.temperature)
            bins[i, column] = sample_bin(probs, rng)
    return QuantizedPointCloud(bins, cfg.bins)


def train_step_single_tape(model, state, batch, lr, conditions=None):
    """The training step that per-cloud gradients replaced: one tape for the
    whole batch, the clouds' losses added on it, and each parameter's .grad
    pointed at its slice of one flat gradient vector; the oracle for
    Model.train_step. Returns the batch-mean nats per coordinate."""
    total = None
    for j, q in enumerate(batch):
        cond = conditions[j] if conditions is not None else None
        loss = model.cloud_nll(q, cond).loss
        total = loss if total is None else ad.add(total, loss)
    mean_loss = ad.scale(total, 1.0 / len(batch))
    grad = np.zeros_like(state.m)
    for p, g in zip(model.params.values(), ad.flat_views(grad, model.params)):
        p.grad = g
    ad.backward(mean_loss)
    for p in model.params.values():
        p.grad = None
    ad.adam_step(model.params, grad, state, lr)
    return mean_loss.item()
