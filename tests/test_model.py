import math

import numpy as np
import pytest

import pointgen.autodiff as ad
from helpers import finite_difference_check, random_cloud, randomize_params
from pointgen.autodiff import AdamState
from pointgen.context import ContextOpKind
from pointgen.data import QuantizedPointCloud, quantize
from pointgen.errors import ConfigError, InputError, NonFiniteLossError
from pointgen.model import Model, ModelConfig, build_branch_inputs


def small_config(kind=ContextOpKind.SACA_A, bins=16, d=0, seed=3):
    return ModelConfig(
        bins=bins, feature_width=8, encoder_widths=(8,), head_widths=(8,),
        context=kind, condition_dim=d, seed=seed,
    )


# ---------------------------------------------------------------------------
# branch inputs


def test_masked_z_branch_sees_nothing():
    rng = np.random.default_rng(0)
    q = random_cloud(rng, 6, 200)
    inputs = build_branch_inputs(q)
    assert np.array_equal(inputs["z"][1], np.zeros((6, 3)))


def test_masked_x_branch_row():
    q = QuantizedPointCloud(np.array([[10, 20, 30]]), 200)
    inputs = build_branch_inputs(q)
    assert np.allclose(inputs["x"][1][0], [0.0, 0.1025, 0.1525])


def test_masked_y_branch_exposes_only_z():
    rng = np.random.default_rng(1)
    q = random_cloud(rng, 5, 200)
    masked = build_branch_inputs(q)["y"][1]
    assert np.all(masked[:, 0] == 0) and np.all(masked[:, 1] == 0)
    assert np.all(masked[:, 2] > 0)


def test_context_path_carries_full_points():
    rng = np.random.default_rng(2)
    q = random_cloud(rng, 5, 200)
    for branch in ("z", "y", "x"):
        ctx = build_branch_inputs(q)[branch][0]
        assert np.allclose(ctx, (q.bins + 0.5) / 200)


# ---------------------------------------------------------------------------
# forward / loss


def test_fresh_model_is_uniform():
    rng = np.random.default_rng(3)
    for bins, expect, tol in ((200, math.log2(200), 1e-6), (16, 4.0, 1e-9)):
        model = Model(small_config(bins=bins))
        q = random_cloud(rng, 6, bins)
        result = model.cloud_nll(q)
        assert abs(result.bits_per_coordinate - expect) < tol


def test_zero_condition_matches_unconditional_bitwise():
    rng = np.random.default_rng(4)
    q = random_cloud(rng, 6, 16)
    cond_model = Model(small_config(d=4))
    randomize_params(cond_model, np.random.default_rng(9))
    uncond_model = Model(small_config(d=0))
    for name, p in uncond_model.params.items():
        p.data = cond_model.params[name].data.copy()
    with_h = cond_model.forward(q, np.zeros(4))
    without = uncond_model.forward(q)
    for branch in ("z", "y", "x"):
        assert np.array_equal(
            with_h[branch].data, without[branch].data
        )


def test_zero_projection_ignores_condition():
    rng = np.random.default_rng(5)
    q = random_cloud(rng, 6, 16)
    model = Model(small_config(d=4))
    randomize_params(model, np.random.default_rng(10))
    for name, p in model.params.items():
        if name.endswith(".H"):
            p.data = np.zeros_like(p.data)
    a = model.forward(q, np.array([3.0, -2.0, 1.0, 0.5]))
    b = model.forward(q, np.zeros(4))
    for branch in ("z", "y", "x"):
        assert np.array_equal(a[branch].data, b[branch].data)


def test_zero_layer_widths_rejected():
    with pytest.raises(ConfigError, match="every layer width must be positive"):
        ModelConfig(feature_width=0, encoder_widths=(0,))


def test_condition_mismatch_rejected():
    model = Model(small_config(d=0))
    rng = np.random.default_rng(6)
    q = random_cloud(rng, 4, 16)
    with pytest.raises(ConfigError):
        model.forward(q, np.zeros(4))
    cond_model = Model(small_config(d=4))
    with pytest.raises(ConfigError):
        cond_model.forward(q)
    with pytest.raises(ConfigError):
        cond_model.forward(q, np.zeros(3))


@pytest.mark.parametrize("kind", list(ContextOpKind))
def test_causality_exact(kind):
    rng = np.random.default_rng(7)
    model = Model(small_config(kind))
    randomize_params(model, np.random.default_rng(11))
    q = random_cloud(rng, 8, 16)
    base = model.forward(q)
    for j in (3, 5, 7):
        bins = q.bins.copy()
        bins[j] = (bins[j] + rng.integers(1, 16, 3)) % 16
        out = model.forward(QuantizedPointCloud(bins, 16))
        for branch in ("z", "y", "x"):
            assert np.array_equal(
                out[branch].data[:j], base[branch].data[:j]
            )
    # coordinate conditioning order within point i
    i = 4
    bins = q.bins.copy()
    bins[i, 0] = (bins[i, 0] + 7) % 16  # x_i changed
    out = model.forward(QuantizedPointCloud(bins, 16))
    assert np.array_equal(out["z"].data[i], base["z"].data[i])
    assert np.array_equal(out["y"].data[i], base["y"].data[i])
    bins[i, 1] = (bins[i, 1] + 5) % 16  # y_i changed too
    out = model.forward(QuantizedPointCloud(bins, 16))
    assert np.array_equal(out["z"].data[i], base["z"].data[i])


def test_factorization_identity():
    rng = np.random.default_rng(8)
    model = Model(small_config())
    randomize_params(model, np.random.default_rng(12))
    q = random_cloud(rng, 6, 16)
    logits = model.forward(q)
    result = model.nll_loss(logits, q)
    product = 1.0
    for branch, col in (("z", 2), ("y", 1), ("x", 0)):
        raw = logits[branch].data
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        for i in range(q.n):
            product *= probs[i, q.bins[i, col]]
    lhs = math.exp(-result.total_nats)
    assert abs(lhs - product) <= 1e-9 * abs(product)


def test_perfect_prediction_loss_near_zero():
    rng = np.random.default_rng(9)
    model = Model(small_config())
    q = random_cloud(rng, 1, 16)
    # a single point: bake its bins into the final head biases
    for branch, col in (("z", 2), ("y", 1), ("x", 0)):
        bias = model.params[f"{branch}.head1.b"]
        bias.data[0, q.bins[0, col]] = 1000.0
    result = model.cloud_nll(q)
    assert result.total_nats < 1e-9


@pytest.mark.parametrize("d", [0, 3])
@pytest.mark.parametrize("kind", list(ContextOpKind), ids=lambda kind: kind.value)
def test_full_model_gradient_fd(kind, d):
    # with d = 3 this reaches every layer's H through its bias row b + h H
    rng = np.random.default_rng(10)
    q = random_cloud(rng, 8, 16)
    model = Model(small_config(kind, d=d))
    randomize_params(model, np.random.default_rng(13))
    condition = rng.normal(size=d) if d else None
    finite_difference_check(lambda: model.cloud_nll(q, condition).loss, model.params)


# ---------------------------------------------------------------------------
# training


def test_train_step_perfect_model_is_fixed_point():
    rng = np.random.default_rng(11)
    model = Model(small_config())
    q = random_cloud(rng, 1, 16)
    for branch, col in (("z", 2), ("y", 1), ("x", 0)):
        model.params[f"{branch}.head1.b"].data[0, q.bins[0, col]] = 1000.0
    before = {k: p.data.copy() for k, p in model.params.items()}
    state = AdamState.for_params(model.params)
    model.train_step(state, [q], lr=1e-3)
    for k, p in model.params.items():
        assert np.allclose(p.data, before[k], atol=1e-12)


def test_train_step_descends_for_most_seeds():
    rng = np.random.default_rng(12)
    q = random_cloud(rng, 8, 16)
    wins = 0
    for seed in range(10):
        model = Model(small_config(seed=seed))
        randomize_params(model, np.random.default_rng(100 + seed), scale=0.3)
        state = AdamState.for_params(model.params)
        before, _ = model.train_step(state, [q], lr=1e-4)
        after = model.cloud_nll(q).loss.item()
        wins += after < before
    assert wins >= 9


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_step_stops_on_a_non_finite_loss_of_finite_parameters():
    # logits of +-1e308 overflow in the softmax: every parameter is finite, the loss is not
    model = Model(small_config())
    state = AdamState.for_params(model.params)
    bias = model.params["z.head1.b"].data  # the logits, as the last head W is zero
    bias[0] = -1e308
    bias[0, 0] = 1e308
    q = QuantizedPointCloud(np.ones((4, 3), dtype=np.int64), 16)
    with pytest.raises(NonFiniteLossError, match="loss is inf"):
        model.train_step(state, [q], lr=1e-3)
    assert state.t == 0 and all(p.grad is None for p in model.params.values())


def test_train_step_rejects_mixed_bins():
    rng = np.random.default_rng(13)
    model = Model(small_config())
    with pytest.raises(InputError):
        model.train_step(
            AdamState.for_params(model.params),
            [random_cloud(rng, 4, 16), random_cloud(rng, 4, 32)],
            lr=1e-3,
        )


def test_train_step_is_deterministic():
    rng = np.random.default_rng(14)
    batch = [random_cloud(rng, 6, 16) for _ in range(3)]
    results = []
    for _ in range(2):
        model = Model(small_config(seed=5))
        state = AdamState.for_params(model.params)
        for step in range(5):
            model.train_step(state, batch, lr=1e-3)
        assert all(p.grad is None for p in model.params.values())
        results.append({k: p.data.copy() for k, p in model.params.items()})
    for k in results[0]:
        assert np.array_equal(results[0][k], results[1][k])


# ---------------------------------------------------------------------------
# feature extraction


def test_extract_features_length():
    model = Model(
        ModelConfig(bins=16, feature_width=8, encoder_widths=(6, 8),
                    head_widths=(8,), context=ContextOpKind.CA_MEAN)
    )
    rng = np.random.default_rng(15)
    q = random_cloud(rng, 10, 16)
    vec = model.extract_features(q)
    assert vec.shape == (3 * (6 + 8) * 3,)


def test_extract_features_single_point():
    model = Model(small_config())
    q = QuantizedPointCloud(np.array([[3, 5, 7]]), 16)
    vec = model.extract_features(q).reshape(-1, 3, 8)  # (layers*branches, pool, width)
    for block in vec:
        assert np.array_equal(block[0], block[1])  # min == max
        assert np.array_equal(block[0], block[2])  # == mean


def test_extract_features_permutation_invariant():
    rng = np.random.default_rng(16)
    pts = rng.random((12, 3))
    model = Model(small_config())
    a = model.extract_features(quantize(pts, 16))
    b = model.extract_features(quantize(pts[::-1], 16))
    assert np.array_equal(a, b)
