"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. The toy overfit criterion trains two models for 2000 steps and
dominates the runtime (several minutes).
"""

import itertools
import math
import time

import numpy as np
from scipy import stats

import pointgen.autodiff as ad
from helpers import finite_difference_check, random_cloud, randomize_params, toy_dataset
from pointgen.autodiff import AdamState
from pointgen.context import ContextOpKind
from pointgen.data import (
    QuantizedPointCloud,
    dequantize,
    farthest_point_sampling,
    quantize,
    save_ply,
    sort_zyx,
)
from pointgen.model import Model, ModelConfig
from pointgen.sampler import SamplerSettings, complete, generate


def report(num, desc, ok):
    print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


def small_config(kind, bins=16, d=0, seed=3):
    return ModelConfig(
        bins=bins, feature_width=8, encoder_widths=(8,), head_widths=(8,),
        context=kind, condition_dim=d, seed=seed,
    )


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    q = quantize(rng.random((8, 3)), 16)
    worst = 0.0
    for kind in ContextOpKind:
        model = Model(small_config(kind))
        randomize_params(model, np.random.default_rng(5))
        worst = max(
            worst,
            finite_difference_check(lambda: model.cloud_nll(q).loss, model.params),
        )
    elapsed = time.monotonic() - start
    report(
        1,
        f"analytic vs central-difference gradients, all context kinds "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s)",
        worst < 1e-4 and elapsed < 60.0,
    )


def test_criterion_2_causality_suite():
    rng = np.random.default_rng(1)
    kinds = list(ContextOpKind)
    models = {}
    for kind in kinds:
        m = Model(small_config(kind))
        randomize_params(m, np.random.default_rng(6))
        models[kind] = m
    ok = True
    for trial in range(100):
        kind = kinds[trial % 4]
        model = models[kind]
        q = random_cloud(rng, 8, 16)
        base = model.forward(q)
        j = int(rng.integers(0, 8))
        bins = q.bins.copy()
        bins[j] = (bins[j] + rng.integers(1, 16, 3)) % 16
        out = model.forward(QuantizedPointCloud(bins, 16))
        for branch in ("z", "y", "x"):
            ok &= np.array_equal(
                out[branch].data[:j], base[branch].data[:j]
            )
        # within point i: z-row blind to (y_i, x_i), y-row blind to x_i
        i = int(rng.integers(0, 8))
        bins = q.bins.copy()
        bins[i, 0] = (bins[i, 0] + 7) % 16
        out = model.forward(QuantizedPointCloud(bins, 16))
        ok &= np.array_equal(out["z"].data[i], base["z"].data[i])
        ok &= np.array_equal(out["y"].data[i], base["y"].data[i])
        bins[i, 1] = (bins[i, 1] + 5) % 16
        out = model.forward(QuantizedPointCloud(bins, 16))
        ok &= np.array_equal(out["z"].data[i], base["z"].data[i])
    report(2, "logit rows exactly invariant to later and not-yet-seen coordinates", ok)


def test_criterion_3_factorization_identity():
    rng = np.random.default_rng(2)
    ok = True
    for trial in range(5):
        model = Model(small_config(ContextOpKind.SACA_A))
        randomize_params(model, np.random.default_rng(20 + trial))
        q = random_cloud(rng, 6, 16)
        logits = model.forward(q)
        total = model.nll_loss(logits, q).total_nats
        product = 1.0
        for branch, col in (("z", 2), ("y", 1), ("x", 0)):
            raw = logits[branch].data
            e = np.exp(raw - raw.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            product *= np.prod(probs[np.arange(q.n), q.bins[:, col]])
        ok &= abs(math.exp(-total) - product) <= 1e-9 * abs(product)
    report(3, "exp(-total nats) equals the product of per-coordinate softmax terms", ok)


def test_criterion_4_uniform_model_metric():
    rng = np.random.default_rng(3)
    model200 = Model(small_config(ContextOpKind.CA_MEAN, bins=200))
    bits200 = model200.cloud_nll(random_cloud(rng, 10, 200)).bits_per_coordinate
    model16 = Model(small_config(ContextOpKind.CA_MEAN, bins=16))
    bits16 = model16.cloud_nll(random_cloud(rng, 10, 16)).bits_per_coordinate
    ok = abs(bits200 - math.log2(200)) < 1e-6 and abs(bits16 - 4.0) < 1e-9
    report(4, f"zero-head model reports log2(B) bits ({bits200:.4f}, {bits16:.1f})", ok)


def _overfit_run(kind, batch_size):
    clouds = toy_dataset(seed=42, bins=32, n_points=64, per_family=10)
    config = ModelConfig(
        bins=32, feature_width=64, encoder_widths=(64, 64), head_widths=(64,),
        context=kind, seed=0,
    )
    model = Model(config)
    state = AdamState.for_params(model.params)
    history = []
    for step in range(2000):
        idx = [(step * batch_size + j) % 20 for j in range(batch_size)]
        _, bits = model.train_step(state, [clouds[i] for i in idx], lr=1e-3)
        history.append(bits)
    return np.asarray(history)


def test_criterion_5_toy_overfit():
    ok = True
    notes = []
    for kind, batch_size in ((ContextOpKind.SACA_A, 4), (ContextOpKind.SACA_B, 2)):
        start = time.monotonic()
        history = _overfit_run(kind, batch_size)
        elapsed = time.monotonic() - start
        smooth = np.convolve(history, np.ones(200) / 200, mode="valid")
        initial = history[0]
        final = smooth[-1]
        monotone = all(
            smooth[k + 200] <= smooth[k] for k in range(len(smooth) - 200)
        )
        ok &= final < 0.6 * initial and monotone and elapsed < 600.0
        notes.append(
            f"{kind.value}: {initial:.2f}->{final:.2f} bits, "
            f"monotone={monotone}, {elapsed:.0f}s"
        )
    report(5, "toy overfit below 60% of initial bits, smoothed-monotone "
              f"({'; '.join(notes)})", ok)


def _np_mlp(weights, x):
    n_layers = len(weights) // 2
    for k in range(n_layers):
        x = x @ weights[2 * k] + weights[2 * k + 1]
        if k < n_layers - 1:
            x = np.maximum(x, 0.0)
    return x


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(4)
    n, f = 16, 8
    features = rng.normal(size=(n, f))
    weights = [
        rng.normal(size=(2 * f, f)), rng.normal(size=(1, f)),
        rng.normal(size=(f, f)), rng.normal(size=(1, f)),
    ]
    tensors = [ad.Tensor(w) for w in weights]
    layers = [(tensors[0], tensors[1]), (tensors[2], tensors[3])]

    from pointgen.context import saca_a, saca_b

    got_a = saca_a(ad.constant(features), layers).data
    got_b = saca_b(ad.constant(features), layers).data

    pre_a = np.zeros_like(features)
    pre_b = np.zeros_like(features)
    for i in range(n):
        acc_a = np.zeros(f)
        acc_b = np.zeros(f)
        pooled_i = features[: i + 1].mean(axis=0)
        for m in range(i + 1):
            pooled_m = features[: m + 1].mean(axis=0)
            acc_a += features[m] * _np_mlp(
                weights, np.concatenate([pooled_m, features[m]])[None])[0]
            acc_b += features[m] * _np_mlp(
                weights, np.concatenate([pooled_i, features[m]])[None])[0]
        pre_a[i] = acc_a
        pre_b[i] = acc_b
    expect_a = np.zeros_like(pre_a)
    expect_a[1:] = pre_a[:-1]
    expect_b = np.zeros_like(pre_b)
    expect_b[1:] = pre_b[:-1]

    err_a = np.abs(got_a - expect_a).max()
    err_b = np.abs(got_b - expect_b).max()

    x = rng.normal(size=(16, 8))
    mean_got = ad.mean_pool_prefix(ad.constant(x)).data
    max_got = ad.max_pool_prefix(ad.constant(x)).data
    mean_exp = np.stack([x[: i + 1].mean(axis=0) for i in range(16)])
    max_exp = np.stack([x[: i + 1].max(axis=0) for i in range(16)])
    pooling_ok = np.allclose(mean_got, mean_exp, atol=1e-12) and np.array_equal(
        max_got, max_exp
    )
    report(
        6,
        f"streaming attention matches double-loop oracles "
        f"(max err A {err_a:.1e}, B {err_b:.1e}); prefix pooling matches brute force",
        err_a < 1e-12 and err_b < 1e-12 and pooling_ok,
    )


def test_criterion_7_conditional_identity():
    rng = np.random.default_rng(5)
    q = random_cloud(rng, 8, 16)
    cond = Model(small_config(ContextOpKind.SACA_A, d=4))
    randomize_params(cond, np.random.default_rng(30))
    uncond = Model(small_config(ContextOpKind.SACA_A, d=0))
    for name, p in uncond.params.items():
        p.data = cond.params[name].data.copy()
    with_zero_h = cond.forward(q, np.zeros(4))
    plain = uncond.forward(q)
    ok = all(
        np.array_equal(with_zero_h[b].data, plain[b].data)
        for b in ("z", "y", "x")
    )
    for name, p in cond.params.items():
        if name.endswith(".H"):
            p.data = np.zeros_like(p.data)
    arbitrary = cond.forward(q, np.array([2.0, -3.0, 0.5, 9.0]))
    ok &= all(
        np.array_equal(arbitrary[b].data, plain[b].data)
        for b in ("z", "y", "x")
    )
    report(7, "h=0 and H=0 both reproduce unconditional logits bit-for-bit", ok)


def test_criterion_8_sampling(tmp_path):
    model = Model(
        ModelConfig(bins=8, feature_width=4, encoder_widths=(4,), head_widths=(4,),
                    context=ContextOpKind.CA_MEAN, seed=0)
    )
    # byte-identical PLY for a fixed seed
    cloud = generate(model, SamplerSettings(n=8, seed=7))
    save_ply(dequantize(cloud), tmp_path / "a.ply")
    cloud2 = generate(model, SamplerSettings(n=8, seed=7))
    save_ply(dequantize(cloud2), tmp_path / "b.ply")
    ply_ok = (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()

    # chi-squared uniformity of single-point marginals under the fresh model
    draws = np.array(
        [generate(model, SamplerSettings(n=1, seed=s)).bins[0] for s in range(10000)]
    )
    p_values = [
        stats.chisquare(np.bincount(draws[:, col], minlength=8)).pvalue
        for col in range(3)
    ]
    chi_ok = all(p > 0.001 for p in p_values)

    # prefix preserved exactly
    rng = np.random.default_rng(6)
    prefix = random_cloud(rng, 4, 8)
    out = complete(model, SamplerSettings(n=9, seed=3, prefix=prefix))
    prefix_ok = np.array_equal(out.bins[:4], prefix.bins)

    report(
        8,
        f"seeded sampling byte-identical, uniform marginals "
        f"(min p={min(p_values):.3f}), prefix preserved",
        ply_ok and chi_ok and prefix_ok,
    )


def test_criterion_9_pipeline_determinism():
    corners = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    pts = np.array(corners + [(0.5, 0.5, 0.0)])
    picked = farthest_point_sampling(pts, 4)
    fps_ok = sorted(map(tuple, picked)) == sorted(corners)

    def min_pairwise(sub):
        return min(
            np.linalg.norm(np.subtract(a, b))
            for a, b in itertools.combinations(sub, 2)
        )

    best = max(itertools.combinations(map(tuple, pts), 4), key=min_pairwise)
    fps_ok &= sorted(best) == sorted(corners)

    rng = np.random.default_rng(7)
    roundtrip_ok = True
    for bins in (2, 16, 200, 512):
        idx = rng.integers(0, bins, size=(20, 3))
        q = QuantizedPointCloud(sort_zyx(idx), bins)
        back = quantize(dequantize(q), bins)
        roundtrip_ok &= np.array_equal(back.bins, q.bins)
    report(9, "FPS fixture picks the corners; quantize/dequantize identity for "
              "B in {2,16,200,512}", fps_ok and roundtrip_ok)


def test_criterion_10_checkpoint_roundtrip(tmp_path):
    from pointgen.checkpoint import load_checkpoint, save_checkpoint

    rng = np.random.default_rng(8)
    clouds = [random_cloud(rng, 12, 16) for _ in range(6)]
    config = small_config(ContextOpKind.SACA_A, seed=9)

    def run(model, state, start, steps):
        for step in range(start, start + steps):
            idx = [(step * 2 + j) % 6 for j in range(2)]
            model.train_step(state, [clouds[i] for i in idx], lr=1e-3)

    straight = Model(config)
    s_state = AdamState.for_params(straight.params)
    run(straight, s_state, 0, 30)
    path = tmp_path / "mid.pgrw"
    save_checkpoint(path, straight, s_state, step=30)
    run(straight, s_state, 30, 100)

    resumed, r_state, step = load_checkpoint(path)
    run(resumed, r_state, step, 100)

    ok = all(
        straight.params[name].data.tobytes() == resumed.params[name].data.tobytes()
        for name in straight.params
    )
    report(10, "resume-from-checkpoint equals uninterrupted run bit-for-bit", ok)
