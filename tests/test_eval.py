import csv
import math

import numpy as np
import pytest

from helpers import random_cloud, randomize_params
from pointgen.autodiff import AdamState
from pointgen.checkpoint import load_model, save_checkpoint
from pointgen.context import ContextOpKind
from pointgen.data import Dataset
from pointgen.errors import InputError
from pointgen.evaluate import attention_map, dataset_bits_per_coordinate, export_attention_csv
from pointgen.model import Model, ModelConfig


def small_model(bins=16, kind=ContextOpKind.SACA_A, seed=0):
    return Model(
        ModelConfig(bins=bins, feature_width=8, encoder_widths=(8,),
                    head_widths=(8,), context=kind, seed=seed)
    )


# ---------------------------------------------------------------------------
# bits per coordinate


def test_uniform_dataset_bits():
    rng = np.random.default_rng(0)
    for bins, expect, tol in ((200, math.log2(200), 1e-6), (16, 4.0, 1e-9)):
        model = small_model(bins=bins)
        dataset = Dataset([random_cloud(rng, 6, bins) for _ in range(3)])
        assert abs(dataset_bits_per_coordinate(model, dataset) - expect) < tol


def test_single_cloud_dataset_equals_cloud_nll():
    rng = np.random.default_rng(1)
    model = small_model()
    q = random_cloud(rng, 7, 16)
    ds = Dataset([q])
    assert dataset_bits_per_coordinate(model, ds) == model.cloud_nll(q).bits_per_coordinate


def test_bits_decrease_during_training():
    rng = np.random.default_rng(2)
    model = small_model()
    ds = Dataset([random_cloud(rng, 8, 16) for _ in range(2)])
    state = AdamState.for_params(model.params)
    history = [dataset_bits_per_coordinate(model, ds)]
    for _ in range(3):
        for _ in range(60):
            model.train_step(state, ds.clouds, lr=3e-3)
        history.append(dataset_bits_per_coordinate(model, ds))
    assert all(b < a for a, b in zip(history, history[1:]))


def test_empty_dataset_rejected():
    with pytest.raises(InputError):
        dataset_bits_per_coordinate(small_model(), Dataset([]))


# ---------------------------------------------------------------------------
# attention maps


def test_attention_first_query_uses_zero_context():
    rng = np.random.default_rng(3)
    model = small_model()
    q = random_cloud(rng, 5, 16)
    amap = attention_map(model, q, 0, "z")
    inter = {}
    model.forward(q, intermediates=inter)
    f0 = inter["z"]["features"].data[0]
    assert np.allclose(amap.distances[0], np.linalg.norm(f0))
    assert np.all(np.isinf(amap.distances[1:]))


def test_attention_distances_match_manual_recompute():
    rng = np.random.default_rng(4)
    model = small_model(kind=ContextOpKind.SACA_B)
    q = random_cloud(rng, 6, 16)
    i = 3
    amap = attention_map(model, q, i, "y")
    inter = {}
    model.forward(q, intermediates=inter)
    feats = inter["y"]["features"].data
    ctx = inter["y"]["context"].data[i]
    for j in range(i + 1):
        assert np.isclose(amap.distances[j], np.linalg.norm(ctx - feats[j]))
    assert np.all(np.isinf(amap.distances[i + 1 :]))
    assert np.all(amap.distances[: i + 1] >= 0)


def test_attention_of_a_loaded_model_records_no_tape(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    model = small_model(kind=ContextOpKind.SACA_B)
    randomize_params(model, rng)
    q = random_cloud(rng, 6, 16)
    path = tmp_path / "m.pgrw"
    save_checkpoint(path, model, AdamState.for_params(model.params), step=0)
    seen = []
    forward = Model.forward

    def spy(self, *args, **kwargs):
        seen.append(kwargs["intermediates"])
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", spy)
    amap = attention_map(load_model(path), q, 3, "y")
    (inter,) = seen
    tensors = [t for branch in inter.values()
               for t in (branch["features"], branch["context"], *branch["activations"])]
    assert tensors and all(not t.requires_grad and not t._parents for t in tensors)
    assert np.array_equal(amap.distances, attention_map(model, q, 3, "y").distances)


def test_attention_bad_arguments():
    rng = np.random.default_rng(5)
    model = small_model()
    q = random_cloud(rng, 4, 16)
    with pytest.raises(InputError):
        attention_map(model, q, 4, "z")
    with pytest.raises(InputError):
        attention_map(model, q, 0, "w")


# ---------------------------------------------------------------------------
# CSV export


def test_attention_csv_format(tmp_path):
    rng = np.random.default_rng(6)
    model = small_model()
    q = random_cloud(rng, 3, 16)
    amap = attention_map(model, q, 1, "x")
    path = tmp_path / "attn.csv"
    export_attention_csv(amap, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,distance"
    assert len(lines) == 4
    assert lines[3].endswith(",inf")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for j in range(2):
        assert abs(float(rows[j]["distance"]) - amap.distances[j]) < 1e-9
    assert float(rows[2]["distance"]) == math.inf
