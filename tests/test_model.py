import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointgen.autodiff as ad
import pointgen.model as model_module
from helpers import (
    finite_difference_check,
    overflow_gradient,
    random_cloud,
    randomize_params,
    train_step_single_tape,
)
from pointgen.autodiff import AdamState
from pointgen.context import ContextOpKind
from pointgen.data import QuantizedPointCloud, dequantize, quantize
from pointgen.errors import ConfigError, InputError, NonFiniteLossError
from pointgen.model import BRANCHES, COLUMN, VISIBLE, Model, ModelConfig


def small_config(kind=ContextOpKind.SACA_A, bins=16, d=0, seed=3):
    return ModelConfig(
        bins=bins, feature_width=8, encoder_widths=(8,), head_widths=(8,),
        context=kind, condition_dim=d, seed=seed,
    )


# ---------------------------------------------------------------------------
# branch inputs


def _row_moves(q, point, columns, i):
    """Per branch, whether row i of a randomized model's logits changes when
    the given columns of `point` move to another bin."""
    model = Model(small_config(ContextOpKind.CA_MEAN))
    randomize_params(model, np.random.default_rng(13))
    bins = q.bins.copy()
    bins[point, columns] = (bins[point, columns] + 5) % 16
    base, moved = model.forward(q), model.forward(QuantizedPointCloud(bins, 16))
    return {b: not np.array_equal(moved[b].data[i], base[b].data[i]) for b in BRANCHES}


def test_masked_z_branch_sees_nothing():
    q = random_cloud(np.random.default_rng(0), 6, 16)
    assert not _row_moves(q, 4, [0, 1, 2], 4)["z"]
    assert np.array_equal(VISIBLE["z"], [0.0, 0.0, 0.0]) and COLUMN["z"] == 2


def test_masked_x_branch_row():
    q = random_cloud(np.random.default_rng(1), 6, 16)
    assert not _row_moves(q, 4, [0], 4)["x"]
    assert _row_moves(q, 4, [1], 4)["x"] and _row_moves(q, 4, [2], 4)["x"]
    q = QuantizedPointCloud(np.array([[10, 20, 30]]), 200)
    assert np.allclose(dequantize(q)[0] * VISIBLE["x"], [0.0, 0.1025, 0.1525])


def test_masked_y_branch_exposes_only_z():
    q = random_cloud(np.random.default_rng(2), 6, 16)
    assert not _row_moves(q, 4, [0, 1], 4)["y"]
    assert _row_moves(q, 4, [2], 4)["y"]
    assert np.array_equal(VISIBLE["y"], [0.0, 0.0, 1.0]) and COLUMN["y"] == 1


def test_context_path_carries_full_points():
    q = random_cloud(np.random.default_rng(3), 6, 16)
    for column in range(3):
        assert all(_row_moves(q, 2, [column], 4).values())


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
@pytest.mark.parametrize("batch", [1, 3])
def test_train_step_stops_on_a_non_finite_loss_of_finite_parameters(monkeypatch, batch):
    # logits of +-1e308 overflow in the softmax: every parameter is finite, the loss is not
    monkeypatch.setattr(model_module, "_workers", lambda batch, parameters: len(batch))
    model = Model(small_config())
    state = AdamState.for_params(model.params)
    bias = model.params["z.head1.b"].data  # the logits, as the last head W is zero
    bias[0] = -1e308
    bias[0, 0] = 1e308
    before = {k: p.data.copy() for k, p in model.params.items()}
    q = QuantizedPointCloud(np.ones((4, 3), dtype=np.int64), 16)
    with pytest.raises(NonFiniteLossError, match="loss is inf"):
        model.train_step(state, [q] * batch, lr=1e-3)
    assert state.t == 0 and all(p.grad is None for p in model.params.values())
    assert not state.m.any() and not state.v.any()
    assert all(np.array_equal(p.data, before[k]) for k, p in model.params.items())


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_step_stops_on_a_non_finite_gradient_of_a_finite_loss():
    model = Model(ModelConfig(bins=8, feature_width=8, encoder_widths=(8,), head_widths=(8,),
                              context=ContextOpKind.CA_MEAN))
    state = AdamState.for_params(model.params)
    q = random_cloud(np.random.default_rng(15), 6, 8)
    model.train_step(state, [q, q], lr=1e-3)
    overflow_gradient(model)
    assert 1e100 < model.cloud_nll(q).total_nats < math.inf
    before = {k: p.data.copy() for k, p in model.params.items()}
    m, v = state.m.copy(), state.v.copy()
    with pytest.raises(NonFiniteLossError, match="gradient of z.head0.W is not finite"):
        model.train_step(state, [q, q], lr=1e-3)
    assert state.t == 1 and np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert all(np.array_equal(p.data, before[k]) for k, p in model.params.items())


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


@pytest.mark.parametrize("env, workers", [
    ({}, (1, 1)), ({"OMP_NUM_THREADS": "1"}, (3, 4)), ({"OPENBLAS_NUM_THREADS": "2"}, (2, 2)),
    ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, (3, 4)),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, (1, 1)),
])
def test_workers_are_the_cpus_over_the_blas_threads(monkeypatch, env, workers):
    # one per cloud at most, and an unset or unusable count is BLAS's default: one per CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    q = QuantizedPointCloud(np.zeros((2, 3), dtype=np.int64), 16)
    work = model_module.THREADED_WORK // 2  # points x parameters of one cloud: just enough
    assert (model_module._workers([q] * 3, work), model_module._workers([q] * 8, work)) == workers


def test_a_batch_of_small_clouds_runs_on_one_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    small, large = (QuantizedPointCloud(np.zeros((n, 3), dtype=np.int64), 16) for n in (1, 3))
    work = model_module.THREADED_WORK // 2
    assert model_module._workers([small] * 4, work) == 1
    assert model_module._workers([small, large] * 2, work) == 4  # the mean cloud decides
    assert model_module._workers([small, small, small, large], work) == 1


def _copy(model):
    params = {k: ad.Tensor(p.data.copy(), requires_grad=True) for k, p in model.params.items()}
    return Model(model.config, params)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(ContextOpKind)), st.sampled_from([0, 2]),
       st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_train_step_matches_the_single_tape_oracle(kind, d, sizes, seed):
    rng = np.random.default_rng(seed)
    batch = [random_cloud(rng, n, 16) for n in sizes]
    conditions = rng.normal(size=(len(sizes), d)) if d else None
    start = Model(small_config(kind, d=d))
    randomize_params(start, rng)
    oracle = _copy(start)
    oracle_state = AdamState.for_params(oracle.params)
    oracle_nats = train_step_single_tape(oracle, oracle_state, batch, 1e-3, conditions)
    runs = []
    for workers in (1, 2, 3):
        model = _copy(start)
        state = AdamState.for_params(model.params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_module, "_workers", lambda batch, parameters, k=workers: k)
            nats, _ = model.train_step(state, batch, 1e-3, conditions)
        assert nats == oracle_nats
        # the per-cloud gradients add in another order than the one tape's
        assert np.abs(state.m - oracle_state.m).max() <= 1e-13 * np.abs(oracle_state.m).max()
        runs.append(np.concatenate([*(p.data.ravel() for p in model.params.values()),
                                    state.m, state.v]))
    assert all(np.array_equal(runs[0], run) for run in runs[1:])


def test_train_step_raises_a_worker_error_in_cloud_order_and_changes_nothing(monkeypatch):
    monkeypatch.setattr(model_module, "_workers", lambda batch, parameters: 3)
    rng = np.random.default_rng(15)
    model = Model(small_config(d=2))
    state = AdamState.for_params(model.params)
    before = {k: p.data.copy() for k, p in model.params.items()}
    empty = QuantizedPointCloud(np.zeros((0, 3), dtype=np.int64), 16)  # InputError
    batch = [random_cloud(rng, 5, 16), random_cloud(rng, 5, 16), empty]
    threads = threading.active_count()
    with pytest.raises(ConfigError, match="condition dim 3"):
        model.train_step(state, batch, 1e-3, [np.ones(2), np.ones(3), np.ones(2)])
    assert threading.active_count() == threads
    assert state.t == 0 and not state.m.any() and not state.v.any()
    assert all(np.array_equal(p.data, before[k]) for k, p in model.params.items())
    assert all(p.grad is None for p in model.params.values())


def test_train_step_on_more_threads_than_cpus_matches_one_thread(monkeypatch):
    # frequent thread switches would expose a lost update to a shared gradient or loss
    rng = np.random.default_rng(16)
    batch = [random_cloud(rng, 5, 16) for _ in range(6)]
    start = Model(small_config(ContextOpKind.SACA_B))
    runs = []
    for workers in (1, 6):
        monkeypatch.setattr(model_module, "_workers", lambda batch, parameters, k=workers: k)
        model = _copy(start)
        state = AdamState.for_params(model.params)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                model.train_step(state, batch, 1e-3)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads and state.t == 2
        runs.append(np.concatenate([*(p.data.ravel() for p in model.params.values()),
                                    state.m, state.v]))
    assert np.array_equal(runs[0], runs[1])


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
