import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_generate, random_cloud, randomize_params
from pointgen import sampler
from pointgen.autodiff import AdamState
from pointgen.context import ContextOpKind
from pointgen.data import QuantizedPointCloud, sort_zyx
from pointgen.errors import InputError, ShapeMismatchError
from pointgen.model import Model, ModelConfig
from pointgen.sampler import (
    SamplerSettings,
    complete,
    condition_combine,
    condition_lerp,
    generate,
    sample_bin,
)


def tiny_model(bins=8, kind=ContextOpKind.CA_MEAN, seed=0):
    return Model(
        ModelConfig(bins=bins, feature_width=4, encoder_widths=(4,),
                    head_widths=(4,), context=kind, seed=seed)
    )


# ---------------------------------------------------------------------------
# sample_bin


def test_sample_bin_one_hot():
    p = np.zeros(10)
    p[6] = 1.0
    for seed in range(5):
        assert sample_bin(p, np.random.default_rng(seed)) == 6


def test_sample_bin_uniform_frequencies():
    rng = np.random.default_rng(0)
    p = np.full(4, 0.25)
    draws = np.array([sample_bin(p, rng) for _ in range(40000)])
    sigma = np.sqrt(40000 * 0.25 * 0.75)
    for b in range(4):
        assert abs(np.sum(draws == b) - 10000) <= 3 * sigma


def test_sample_bin_deterministic_sequence():
    p = np.full(5, 0.2)
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    s1 = [sample_bin(p, rng1) for _ in range(20)]
    s2 = [sample_bin(p, rng2) for _ in range(20)]
    assert s1 == s2


def test_sample_bin_rejects_unnormalized():
    with pytest.raises(InputError):
        sample_bin(np.full(4, 0.3), np.random.default_rng(0))


@pytest.mark.parametrize("p", [[np.nan, 0.5, 0.5], [np.nan] * 4])
def test_sample_bin_rejects_nan(p):
    with pytest.raises(InputError, match="nan"):
        sample_bin(np.array(p), np.random.default_rng(0))


def test_sample_bin_consumes_one_variate():
    class CountingRng:
        def __init__(self):
            self.calls = 0
            self._rng = np.random.default_rng(0)

        def random(self):
            self.calls += 1
            return self._rng.random()

    rng = CountingRng()
    sample_bin(np.full(4, 0.25), rng)
    assert rng.calls == 1


# ---------------------------------------------------------------------------
# generate


def test_generate_fixed_seed_is_reproducible():
    model = tiny_model()
    settings = SamplerSettings(n=6, seed=11)
    a = generate(model, settings)
    b = generate(model, settings)
    assert np.array_equal(a.bins, b.bins)
    c = generate(model, SamplerSettings(n=6, seed=12))
    assert not np.array_equal(a.bins, c.bins)


def oracle_case_model(kind, d, seed):
    model = Model(ModelConfig(bins=8, feature_width=4, encoder_widths=(5, 4),
                              head_widths=(6,), context=kind, condition_dim=d, seed=seed))
    randomize_params(model, np.random.default_rng(seed))
    condition = np.random.default_rng(seed + 1).normal(size=d) if d else None
    return model, condition


def sorted_prefix(rng, k, bins):
    return QuantizedPointCloud(sort_zyx(rng.integers(0, bins, (k, 3))), bins)


@settings(max_examples=48, deadline=None)
@given(kind=st.sampled_from(list(ContextOpKind)), d=st.sampled_from([0, 3]),
       n=st.integers(1, 6), prefix_frac=st.floats(0.0, 1.0),
       temperature=st.sampled_from([0.5, 1.0, 1.7]), seed=st.integers(0, 2**16))
def test_cached_generate_matches_forward_oracle(kind, d, n, prefix_frac, temperature, seed):
    model, condition = oracle_case_model(kind, d, seed)
    k = round(prefix_frac * n)
    prefix = sorted_prefix(np.random.default_rng(seed), k, 8) if k else None
    s = SamplerSettings(n=n, seed=seed, temperature=temperature, condition=condition,
                        prefix=prefix)
    assert np.array_equal(generate(model, s).bins, naive_generate(model, s).bins)


@pytest.mark.parametrize("kind", list(ContextOpKind))
@pytest.mark.parametrize("d", [0, 3])
def test_cached_logits_match_forward_on_finished_cloud(kind, d, monkeypatch):
    # causality: row i of branch b in a forward pass over the finished cloud
    # sees exactly what the sampler saw when it drew that coordinate
    model, condition = oracle_case_model(kind, d, seed=5)
    rows = []
    real = sampler.softmax_with_temperature
    monkeypatch.setattr(sampler, "softmax_with_temperature",
                        lambda logits, t: rows.append(logits.copy()) or real(logits, t))
    prefix = sorted_prefix(np.random.default_rng(4), 3, 8)
    cloud = generate(model, SamplerSettings(n=9, seed=2, condition=condition, prefix=prefix))
    full = model.forward(cloud, condition)
    expected = [full[b].data[i] for i in range(3, 9) for b in ("z", "y", "x")]
    assert len(rows) == len(expected) == 18
    for got, want in zip(rows, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_generate_uniform_marginals():
    # fresh model has a zero final head layer: every distribution uniform
    model = tiny_model(bins=8)
    draws = np.array(
        [generate(model, SamplerSettings(n=1, seed=s)).bins[0] for s in range(2000)]
    )
    sigma = np.sqrt(2000 * (1 / 8) * (7 / 8))
    for col in range(3):
        for b in range(8):
            assert abs(np.sum(draws[:, col] == b) - 250) <= 4 * sigma


def test_generate_memorizes_single_cloud():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 8, 8)
    model = Model(
        ModelConfig(bins=8, feature_width=16, encoder_widths=(16,),
                    head_widths=(16,), context=ContextOpKind.CA_MEAN, seed=0)
    )
    state = AdamState.for_params(model.params)
    for _ in range(1200):
        model.train_step(state, [cloud], lr=5e-3)
    hits = sum(
        np.array_equal(generate(model, SamplerSettings(n=8, seed=s)).bins, cloud.bins)
        for s in range(20)
    )
    assert hits >= 19


# ---------------------------------------------------------------------------
# complete


def test_complete_full_prefix_returned_unchanged():
    model = tiny_model()
    rng = np.random.default_rng(2)
    prefix = random_cloud(rng, 6, 8)
    out = complete(model, SamplerSettings(n=6, seed=0, prefix=prefix))
    assert np.array_equal(out.bins, prefix.bins)


def test_complete_preserves_prefix_with_stochastic_tail():
    model = tiny_model()
    rng = np.random.default_rng(3)
    prefix = random_cloud(rng, 3, 8)
    a = complete(model, SamplerSettings(n=8, seed=1, prefix=prefix))
    b = complete(model, SamplerSettings(n=8, seed=2, prefix=prefix))
    assert np.array_equal(a.bins[:3], prefix.bins)
    assert np.array_equal(b.bins[:3], prefix.bins)
    assert not np.array_equal(a.bins[3:], b.bins[3:])


def test_complete_requires_prefix():
    with pytest.raises(InputError):
        complete(tiny_model(), SamplerSettings(n=4, seed=0))


def test_unsorted_prefix_rejected():
    bins = np.array([[0, 0, 5], [0, 0, 1]])  # descending z
    prefix = QuantizedPointCloud(bins, 8)
    with pytest.raises(InputError):
        SamplerSettings(n=4, seed=0, prefix=prefix)


def test_empty_prefix_equivalent_to_generate():
    model = tiny_model()
    plain = generate(model, SamplerSettings(n=5, seed=9))
    again = generate(model, SamplerSettings(n=5, seed=9, prefix=None))
    assert np.array_equal(plain.bins, again.bins)


# ---------------------------------------------------------------------------
# condition vector arithmetic


def test_condition_lerp_endpoints():
    a, b = np.array([0.0, 2.0]), np.array([2.0, 0.0])
    assert np.array_equal(condition_lerp(a, b, 0.0), a)
    assert np.array_equal(condition_lerp(a, b, 1.0), b)
    assert np.array_equal(condition_lerp(a, b, 0.5), [1.0, 1.0])


def test_condition_lerp_dim_mismatch():
    with pytest.raises(ShapeMismatchError):
        condition_lerp(np.zeros(2), np.zeros(3), 0.5)


def test_condition_combine():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(condition_combine([(1.0, v)]), v)
    assert np.array_equal(condition_combine([(1.0, v), (-1.0, v)]), np.zeros(3))
    a, b = np.array([0.0, 2.0]), np.array([2.0, 0.0])
    assert np.array_equal(
        condition_combine([(0.5, a), (0.5, b)]), condition_lerp(a, b, 0.5)
    )
    with pytest.raises(InputError):
        condition_combine([])
