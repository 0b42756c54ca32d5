import tracemalloc

import numpy as np
import pytest

import pointgen.autodiff as ad
import pointgen.context as context
from helpers import finite_difference_check
from pointgen.context import (
    ContextOpKind,
    apply_context,
    saca_a,
    saca_b,
)
from pointgen.errors import ConfigError


def t(data, grad=False):
    return ad.Tensor(data, requires_grad=grad)


# ---------------------------------------------------------------------------
# plain-numpy reference MLP shared by the oracles


def np_mlp(weights, x):
    """[W1, b1, W2, b2, ...]; relu between layers, linear final layer."""
    n_layers = len(weights) // 2
    for k in range(n_layers):
        x = x @ weights[2 * k] + weights[2 * k + 1]
        if k < n_layers - 1:
            x = np.maximum(x, 0.0)
    return x


def ad_layers(weights):
    """The attention layers (W, bias row b) of [W1, b1, W2, b2]."""
    tensors = [t(w, grad=True) for w in weights]
    return [(tensors[0], tensors[1]), (tensors[2], tensors[3])], tensors


def random_mlp(rng, f):
    return [
        rng.normal(size=(2 * f, f)), rng.normal(size=(1, f)),
        rng.normal(size=(f, f)), rng.normal(size=(1, f)),
    ]


def oracle_saca_a(features, weights):
    n, f = features.shape
    pre = np.zeros((n, f))
    for i in range(n):
        acc = np.zeros(f)
        for m in range(i + 1):
            pooled = features[: m + 1].mean(axis=0)
            w = np_mlp(weights, np.concatenate([pooled, features[m]])[None, :])[0]
            acc += features[m] * w
        pre[i] = acc
    shifted = np.zeros_like(pre)
    shifted[1:] = pre[:-1]
    return shifted


def oracle_saca_b(features, weights):
    n, f = features.shape
    pre = np.zeros((n, f))
    for i in range(n):
        pooled = features[: i + 1].mean(axis=0)
        acc = np.zeros(f)
        for m in range(i + 1):
            w = np_mlp(weights, np.concatenate([pooled, features[m]])[None, :])[0]
            acc += features[m] * w
        pre[i] = acc
    shifted = np.zeros_like(pre)
    shifted[1:] = pre[:-1]
    return shifted


def selector_mlp(f):
    """Two-layer mlp that returns the pooled half of its input exactly
    (valid for nonnegative activations, which the hand examples use)."""
    w1 = np.zeros((2 * f, f))
    w1[:f, :] = np.eye(f)
    return [w1, np.zeros((1, f)), np.eye(f), np.zeros((1, f))]


# ---------------------------------------------------------------------------
# prefix pooling and shift


def test_mean_pool_prefix_examples():
    out = ad.mean_pool_prefix(t([[2.0, 4.0], [4.0, 8.0]]))
    assert np.array_equal(out.data, [[2, 4], [3, 6]])
    single = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(ad.mean_pool_prefix(t(single)).data, single)


def test_mean_pool_prefix_matches_bruteforce():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    out = ad.mean_pool_prefix(t(x)).data
    expect = np.stack([x[: i + 1].mean(axis=0) for i in range(6)])
    assert np.allclose(out, expect, atol=1e-12)


def test_max_pool_prefix_examples():
    out = ad.max_pool_prefix(t([[1.0, 5.0], [3.0, 2.0]]))
    assert np.array_equal(out.data, [[1, 5], [3, 5]])
    rising = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(ad.max_pool_prefix(t(rising)).data, rising)


def test_max_pool_prefix_matches_bruteforce():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    out = ad.max_pool_prefix(t(x)).data
    expect = np.stack([x[: i + 1].max(axis=0) for i in range(6)])
    assert np.array_equal(out, expect)


def test_shift_context_examples():
    assert np.array_equal(
        ad.shift_down(t([[1.0, 2.0], [3.0, 4.0]])).data, [[0, 0], [1, 2]]
    )
    assert np.array_equal(ad.shift_down(t([[7.0, 7.0]])).data, [[0, 0]])
    twice = ad.shift_down(ad.shift_down(t([[1.0], [2.0], [3.0]])))
    assert np.array_equal(twice.data, [[0], [0], [1]])


def test_shift_context_is_linear():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    a, b = 2.5, -1.25
    lhs = ad.shift_down(t(a * x + b * y)).data
    rhs = a * ad.shift_down(t(x)).data + b * ad.shift_down(t(y)).data
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# attention operators


def test_saca_a_hand_example():
    f = 2
    layers, _ = ad_layers(selector_mlp(f))
    features = t([[1.0, 1.0], [2.0, 2.0]])
    out = saca_a(features, layers)
    # pre-shift rows are [[1,1],[4,4]]; shifted leaves [[0,0],[1,1]]
    assert np.allclose(out.data, [[0, 0], [1, 1]], atol=1e-12)


def test_saca_b_hand_example():
    f = 2
    weights = selector_mlp(f)
    layers, _ = ad_layers(weights)
    features = np.array([[1.0, 1.0], [2.0, 2.0]])
    out = saca_b(t(features), layers)
    assert np.allclose(out.data, [[0, 0], [1, 1]], atol=1e-12)
    # pre-shift second row differs from variant A: 4.5 vs 4.0
    pre = oracle_saca_b(features, weights)
    assert np.allclose(pre[1], [1, 1], atol=1e-12)
    oracle_pre_b = oracle_saca_b(features, weights)
    assert np.allclose(oracle_pre_b, out.data, atol=1e-12)


def test_saca_b_shared_weight_value():
    weights = selector_mlp(2)
    features = np.array([[1.0, 1.0], [2.0, 2.0]])
    pooled2 = features.mean(axis=0)
    w = np_mlp(weights, np.concatenate([pooled2, features[0]])[None, :])[0]
    assert np.allclose(w, [1.5, 1.5])
    c2 = features[0] * w + features[1] * np_mlp(
        weights, np.concatenate([pooled2, features[1]])[None, :]
    )[0]
    assert np.allclose(c2, [4.5, 4.5])


@pytest.mark.parametrize("variant", ["a", "b"])
def test_saca_matches_double_loop_oracle(variant):
    rng = np.random.default_rng(3)
    f = 4
    features = rng.normal(size=(8, f))
    weights = random_mlp(rng, f)
    layers, _ = ad_layers(weights)
    if variant == "a":
        got = saca_a(t(features), layers).data
        expect = oracle_saca_a(features, weights)
    else:
        got = saca_b(t(features), layers).data
        expect = oracle_saca_b(features, weights)
    assert np.allclose(got, expect, atol=1e-12)


def test_saca_single_row_is_zero():
    rng = np.random.default_rng(4)
    layers, _ = ad_layers(random_mlp(rng, 3))
    features = t(rng.normal(size=(1, 3)))
    assert np.array_equal(saca_a(features, layers).data, np.zeros((1, 3)))
    assert np.array_equal(saca_b(features, layers).data, np.zeros((1, 3)))


def test_saca_variants_agree_on_second_row():
    # both context rows 2 equal f_1 * mlp(f_1 ++ f_1-mean), identical weights
    rng = np.random.default_rng(5)
    layers, _ = ad_layers(random_mlp(rng, 3))
    features = t(rng.normal(size=(5, 3)))
    a = saca_a(features, layers).data
    b = saca_b(features, layers).data
    assert np.array_equal(a[0], b[0])
    assert np.allclose(a[1], b[1], atol=1e-12)


def test_apply_context_dispatch():
    out = apply_context(ContextOpKind.CA_MEAN, t([[2.0, 4.0], [4.0, 8.0]]))
    assert np.array_equal(out.data, [[0, 0], [2, 4]])
    rng = np.random.default_rng(6)
    for kind in ContextOpKind:
        layers, _ = ad_layers(random_mlp(rng, 3))
        single = apply_context(kind, t(rng.normal(size=(1, 3))),
                               layers if kind.needs_mlp else None)
        assert np.array_equal(single.data, np.zeros((1, 3)))


def test_apply_context_requires_mlp():
    with pytest.raises(ConfigError):
        apply_context(ContextOpKind.SACA_A, t(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# causality and gradients


@pytest.mark.parametrize("kind", list(ContextOpKind))
def test_causality_rows_depend_only_on_earlier_rows(kind):
    rng = np.random.default_rng(7)
    weights = random_mlp(rng, 3)
    features = rng.normal(size=(6, 3))

    def run_all(feat):
        layers, _ = ad_layers(weights)
        return apply_context(kind, t(feat), layers if kind.needs_mlp else None).data

    base = run_all(features)
    for i in range(6):
        bumped = features.copy()
        bumped[i:] += rng.normal(size=bumped[i:].shape)
        out = run_all(bumped)
        assert np.array_equal(out[: i + 1], base[: i + 1])


@pytest.mark.parametrize("variant", [saca_a, saca_b])
def test_saca_gradients_fd(variant):
    rng = np.random.default_rng(8)
    f = 3
    weights = random_mlp(rng, f)
    feat0 = rng.normal(size=(5, f))
    layers, tensors = ad_layers(weights)
    params = {f"w{k}": w for k, w in enumerate(tensors)}
    params["features"] = ad.Tensor(feat0, requires_grad=True)

    def loss():
        out = variant(params["features"], layers)
        return ad.cross_entropy_from_logits(out, [0, 1, 2, 0, 1])

    finite_difference_check(loss, params)


# ---------------------------------------------------------------------------
# saca-b's fused op: query-row blocks and conditioned bias rows


def conditioned_layers(params, h):
    """The attention layers (W, b + h @ H) of the tensors w0..w3, H0, H1."""
    return [(params["w0"], ad.add(params["w1"], ad.matmul(h, params["H0"]))),
            (params["w2"], ad.add(params["w3"], ad.matmul(h, params["H1"])))]


def conditioned_params(rng, f, d=2):
    """Attention weights with an H on both layers, the condition row h, and
    the [W1, b1 + h H1, W2, b2 + h H2] weights the numpy oracles take."""
    weights = random_mlp(rng, f)
    h = ad.constant(rng.normal(size=(1, d)))
    hs = [rng.normal(size=(d, f)) for _ in range(2)]
    folded = [weights[0], weights[1] + h.data @ hs[0], weights[2], weights[3] + h.data @ hs[1]]
    params = {f"w{k}": t(w, grad=True) for k, w in enumerate(weights)}
    params |= {"H0": t(hs[0], grad=True), "H1": t(hs[1], grad=True)}
    return params, h, folded


def small_blocks(monkeypatch, n, f):
    """Lower saca-b's block budget so an n-row cloud of width f spans >= 3 blocks."""
    monkeypatch.setattr(context, "SACA_B_BLOCK", 12 * f)
    blocks = context._row_blocks(n, f)
    assert len(blocks) >= 3
    return blocks


def test_saca_b_blocks_match_double_loop_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    n, f = 9, 4
    small_blocks(monkeypatch, n, f)
    features = rng.normal(size=(n, f))
    params, h, folded = conditioned_params(rng, f)
    got = saca_b(t(features), conditioned_layers(params, h)).data
    assert np.allclose(got, oracle_saca_b(features, folded), atol=1e-12)


def test_saca_b_blocks_gradients_fd(monkeypatch):
    rng = np.random.default_rng(12)
    n, f = 9, 3
    small_blocks(monkeypatch, n, f)
    params, h, _ = conditioned_params(rng, f)
    params["features"] = ad.Tensor(rng.normal(size=(n, f)), requires_grad=True)

    def loss():
        # rebuild the bias rows so finite differences of b and H reach them
        out = saca_b(params["features"], conditioned_layers(params, h))
        return ad.cross_entropy_from_logits(out, [0, 1, 2, 0, 1, 2, 0, 1, 2])

    finite_difference_check(loss, params)


def test_saca_b_peak_memory_is_below_half_a_pair_matrix():
    # the old chain held several (n(n+1)/2, f) matrices: 2716 MiB here
    rng = np.random.default_rng(13)
    n, f = 1024, 32
    features = t(rng.normal(size=(n, f)), grad=True)
    layers, _ = ad_layers([w * 0.2 for w in random_mlp(rng, f)])
    pair_matrix = n * (n + 1) // 2 * f * 8
    tracemalloc.start()
    try:
        out = saca_b(features, layers)
        ad.backward(ad.matmul(ad.matmul(ad.constant(np.ones((1, n))), out),
                              ad.constant(np.ones((f, 1)))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.grad is not None and np.isfinite(features.grad).all()
    assert peak < pair_matrix / 2
