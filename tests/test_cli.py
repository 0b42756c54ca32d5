import errno
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointgen import checkpoint as ckpt
from pointgen import cli
from pointgen.autodiff import AdamState
from pointgen.config import parse_config
from pointgen.context import ContextOpKind
from pointgen.data import load_xyz, quantize, save_xyz
from pointgen.errors import CheckpointError, ConfigError, NonFiniteLossError
from pointgen.model import Model, ModelConfig


@pytest.fixture
def raw_dir(tmp_path):
    rng = np.random.default_rng(0)
    d = tmp_path / "raw"
    d.mkdir()
    for name in ("a", "b", "c"):
        save_xyz(rng.random((200, 3)) * 3.0, d / f"{name}.xyz")
    return d


def prepare_dataset(tmp_path, raw_dir, bins=16, points=32):
    out = tmp_path / "ds"
    rc = cli.main([
        "prepare", *[str(raw_dir / f"{n}.xyz") for n in ("a", "b", "c")],
        "--points", str(points), "--bins", str(bins), "--seed", "0",
        "--out", str(out),
    ])
    assert rc == 0
    return out


def write_train_config(path, dataset, out, steps, extra=""):
    path.write_text(
        "# toy run\n"
        "bins = 16\n"
        "features = 8\n"
        "encoder = 8\n"
        "head = 8\n"
        "context = ca-mean\n"
        "lr = 0.003\n"
        "batch_size = 2\n"
        f"steps = {steps}\n"
        "checkpoint_interval = 10\n"
        f"dataset = {dataset}\n"
        f"out = {out}\n"
        + extra
    )


# ---------------------------------------------------------------------------
# prepare


def test_prepare_outputs_and_manifest(tmp_path, raw_dir):
    out = prepare_dataset(tmp_path, raw_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["bins"] == 16 and manifest["points"] == 32
    assert manifest["files"] == ["a.xyz", "b.xyz", "c.xyz"]
    pts = load_xyz(out / "a.xyz")
    assert pts.shape == (32, 3)
    assert pts.min() > 0 and pts.max() < 1


def test_prepare_is_deterministic(tmp_path, raw_dir):
    out1 = prepare_dataset(tmp_path / "1", raw_dir)
    out2 = prepare_dataset(tmp_path / "2", raw_dir)
    for name in ("a.xyz", "b.xyz", "c.xyz"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_prepare_too_many_points_fails(tmp_path, raw_dir, capsys):
    rc = cli.main([
        "prepare", str(raw_dir / "a.xyz"), "--points", "1000",
        "--bins", "16", "--out", str(tmp_path / "ds"),
    ])
    assert rc == 1
    assert "a.xyz" in capsys.readouterr().err


def test_prepare_from_mesh(tmp_path):
    obj = tmp_path / "square.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf 1 3 4\n")
    out = tmp_path / "ds"
    rc = cli.main([
        "prepare", str(obj), "--points", "16", "--bins", "16",
        "--samples", "500", "--out", str(out),
    ])
    assert rc == 0
    assert load_xyz(out / "square.xyz").shape == (16, 3)


# ---------------------------------------------------------------------------
# train / checkpoints


def test_train_writes_log_and_checkpoints(tmp_path, raw_dir):
    ds = prepare_dataset(tmp_path, raw_dir)
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    write_train_config(cfg, ds / "manifest.json", run, steps=20)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    lines = (run / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,nats,bits_per_coord"
    assert len(lines) == 21
    assert (run / "ckpt_000010.pgrw").exists()
    assert (run / "ckpt_000020.pgrw").exists()
    assert (run / "ckpt_final.pgrw").exists()


def test_resume_matches_uninterrupted_run(tmp_path, raw_dir):
    ds = prepare_dataset(tmp_path, raw_dir)
    cfg_full = tmp_path / "full.cfg"
    write_train_config(cfg_full, ds / "manifest.json", tmp_path / "full", steps=40)
    assert cli.main(["train", "--config", str(cfg_full)]) == 0

    cfg_half = tmp_path / "half.cfg"
    write_train_config(cfg_half, ds / "manifest.json", tmp_path / "half", steps=20)
    assert cli.main(["train", "--config", str(cfg_half)]) == 0
    assert cli.main([
        "train", "--config", str(cfg_half),
        "--checkpoint", str(tmp_path / "half" / "ckpt_final.pgrw"),
    ]) == 0

    full, _, step_full = ckpt.load_checkpoint(tmp_path / "full" / "ckpt_final.pgrw")
    half, _, step_half = ckpt.load_checkpoint(tmp_path / "half" / "ckpt_final.pgrw")
    assert step_full == step_half == 40
    for name, p in full.params.items():
        assert np.array_equal(p.data, half.params[name].data), name


def test_fresh_train_starts_a_new_loss_log(tmp_path, raw_dir):
    ds = prepare_dataset(tmp_path, raw_dir)
    cfg = tmp_path / "run.cfg"
    write_train_config(cfg, ds / "manifest.json", tmp_path / "run", steps=3)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    assert cli.main(["train", "--config", str(cfg)]) == 0
    lines = (tmp_path / "run" / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,nats,bits_per_coord"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]


def test_resume_in_place_rewrites_loss_log_from_its_step(tmp_path, raw_dir):
    ds = prepare_dataset(tmp_path, raw_dir)
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    write_train_config(cfg, ds / "manifest.json", run, steps=20)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    uninterrupted = (run / "loss.csv").read_bytes()
    with open(run / "loss.csv", "ab") as log:
        log.write(b"not a row\n3")  # a resume drops foreign and torn rows too
    write_train_config(cfg, ds / "manifest.json", run, steps=10)
    assert cli.main([
        "train", "--config", str(cfg), "--checkpoint", str(run / "ckpt_000010.pgrw"),
    ]) == 0
    assert (run / "loss.csv").read_bytes() == uninterrupted


def test_resume_with_a_nan_parameter_exits_2_and_keeps_earlier_files(tmp_path, raw_dir, capsys):
    ds = prepare_dataset(tmp_path, raw_dir)
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    write_train_config(cfg, ds / "manifest.json", run, steps=20)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    model, state, step = ckpt.load_checkpoint(run / "ckpt_000010.pgrw")
    model.params["z.head1.b"].data[0, 0] = np.nan  # a logit bias: no relu masks it
    bad = tmp_path / "bad.pgrw"
    ckpt.save_checkpoint(bad, model, state, step)
    (run / "ckpt_final.pgrw").unlink()
    kept = {p.name: p.read_bytes() for p in run.iterdir()}
    rows = kept["loss.csv"].decode().splitlines(keepends=True)

    capsys.readouterr()
    write_train_config(cfg, ds / "manifest.json", run, steps=10)
    assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "step 11" in err and "nan" in err and "Traceback" not in err
    assert not (run / "ckpt_final.pgrw").exists()
    assert {p.name for p in run.iterdir()} == set(kept)
    for name in ("ckpt_000010.pgrw", "ckpt_000020.pgrw"):
        assert (run / name).read_bytes() == kept[name]
    assert (run / "loss.csv").read_text() == "".join(rows[:11])

    # the step raises before backward or Adam touch the parameters or the moments
    model, state, _ = ckpt.load_checkpoint(bad)
    before = {k: p.data.copy() for k, p in model.params.items()}
    moments = {k: (state.m[k].copy(), state.v[k].copy()) for k in state.m}
    batch = [quantize(load_xyz(ds / name), 16) for name in ("a.xyz", "b.xyz")]
    with pytest.raises(NonFiniteLossError):
        model.train_step(state, batch, 0.003)
    assert state.t == 10
    for k, p in model.params.items():
        assert p.grad is None
        assert np.array_equal(p.data, before[k], equal_nan=True)
        assert np.array_equal(state.m[k], moments[k][0])
        assert np.array_equal(state.v[k], moments[k][1])


def test_resume_with_a_nan_relu_masked_weight_exits_2(tmp_path, raw_dir, capsys):
    # relu maps the NaN pre-activations of this weight to 0, so the loss stays finite
    ds = prepare_dataset(tmp_path, raw_dir)
    run = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    write_train_config(cfg, ds / "manifest.json", run, steps=10)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    model, state, step = ckpt.load_checkpoint(run / "ckpt_final.pgrw")
    model.params["z.enc0.W"].data[0, 0] = np.nan
    bad = tmp_path / "bad.pgrw"
    ckpt.save_checkpoint(bad, model, state, step)
    (run / "ckpt_final.pgrw").unlink()

    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pointgen: ") and "Traceback" not in err
    assert "step 11" in err and "z.enc0.W" in err and "nan" in err
    assert not (run / "ckpt_final.pgrw").exists()


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    model = Model(ModelConfig(bins=16, feature_width=8, encoder_widths=(8,),
                              head_widths=(8,), context=ContextOpKind.SACA_A, seed=2))
    rng = np.random.default_rng(1)
    for p in model.params.values():
        p.data = rng.normal(size=p.data.shape)
    state = AdamState.for_params(model.params)
    state.t = 17
    state.m = {k: rng.normal(size=m.shape) for k, m in state.m.items()}
    state.v = {k: rng.random(size=v.shape) for k, v in state.v.items()}
    path = tmp_path / "m.pgrw"
    ckpt.save_checkpoint(path, model, state, step=17)
    # files written before the header dropped its unread "rng" field must still load
    legacy = tmp_path / "legacy.pgrw"
    blob = path.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:header_end])
    header["rng"] = {"kind": "step-counter", "seed": 2, "step": 17}
    raw = json.dumps(header).encode("utf-8")
    legacy.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[header_end:])
    for saved in (path, legacy):
        loaded, lstate, step = ckpt.load_checkpoint(saved)
        assert step == 17 and lstate.t == 17
        assert loaded.config == model.config
        for name, p in model.params.items():
            assert p.data.tobytes() == loaded.params[name].data.tobytes()
            assert state.m[name].tobytes() == lstate.m[name].tobytes()
            assert state.v[name].tobytes() == lstate.v[name].tobytes()


def test_corrupt_checkpoint_rejected(tmp_path):
    good = make_checkpoint(tmp_path).read_bytes()
    bad = tmp_path / "bad.pgrw"
    for blob in (
        b"NOPE" + b"\x00" * 64,
        good[:12],  # cut inside the preamble
        good[:8] + (2**40).to_bytes(8, "little") + good[16:],  # header past the end
    ):
        bad.write_bytes(blob)
        with pytest.raises(CheckpointError):
            ckpt.load_checkpoint(bad)


def test_generate_on_bad_checkpoint_version_exits_2(tmp_path, capsys):
    blob = bytearray(make_checkpoint(tmp_path).read_bytes())
    blob[4:8] = (7).to_bytes(4, "little")
    bad = tmp_path / "v7.pgrw"
    bad.write_bytes(bytes(blob))
    rc = cli.main(["generate", "--checkpoint", str(bad), "--points", "4",
                   "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("pointgen: ") and "version 7" in err
    assert "Traceback" not in err


def with_header(blob: bytes, edit) -> bytes:
    """The checkpoint `blob` with its JSON header replaced by edit(header)."""
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    raw = json.dumps(edit(json.loads(blob[16:header_end]))).encode("utf-8")
    return blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[header_end:]


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


def edit_tensors(edit):
    return lambda h: {**h, "tensors": [edit(t) for t in h["tensors"]]}


MALFORMED_HEADERS = {
    "missing param": (lambda h: {**h, "tensors": [
        t for t in h["tensors"] if t["name"] != "param:z.enc0.W"]}, "missing tensor param:z.enc0.W"),
    "missing moment": (lambda h: {**h, "tensors": [
        t for t in h["tensors"] if t["name"] != "adam_v:x.head1.b"]},
        "missing tensor adam_v:x.head1.b"),
    "extra tensor": (lambda h: {**h, "tensors": h["tensors"] + [
        {"name": "param:z.enc9.W", "rows": 1, "cols": 1, "offset": 0}]},
        "unexpected tensor param:z.enc9.W"),
    "swapped rows and cols": (edit_tensors(lambda t: {**t, "rows": t["cols"], "cols": t["rows"]}
                                           if t["name"] == "param:y.head0.W" else t),
                              "param:y.head0.W is (8, 16)"),
    "offset not an integer": (edit_tensors(lambda t: {**t, "offset": str(t["offset"])}),
                              "'offset'"),
    "table not a list": (lambda h: {**h, "tensors": {}}, "'tensors'"),
    "unknown context": (lambda h: {**h, "config": {**h["config"], "context": "ca-mdan"}},
                        "ca-mdan"),
    "missing config field": (lambda h: {**h, "config": without(h["config"], "bins")},
                             "bad model config"),
    "missing adam_t": (lambda h: without(h, "adam_t"), "'adam_t'"),
    "negative step": (lambda h: {**h, "step": -1}, "'step'"),
    "empty header": (lambda h: {}, "bad model config"),
    "header not an object": (lambda h: [h], "corrupt header"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_generate_on_malformed_checkpoint_header_exits_2(tmp_path, capsys, case):
    edit, message = MALFORMED_HEADERS[case]
    bad = tmp_path / "bad.pgrw"
    bad.write_bytes(with_header(make_checkpoint(tmp_path).read_bytes(), edit))
    with pytest.raises(CheckpointError, match="bad.pgrw"):
        ckpt.load_checkpoint(bad)
    rc = cli.main(["generate", "--checkpoint", str(bad), "--points", "4",
                   "--out", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("pointgen: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "g.ply").exists()


def _checkpoint_bytes():
    model = Model(ModelConfig(bins=8, feature_width=4, encoder_widths=(4,), head_widths=(4,),
                              context=ContextOpKind.SACA_A, condition_dim=2, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.pgrw")
        ckpt.save_checkpoint(path, model, AdamState.for_params(model.params), step=5)
        with open(path, "rb") as fh:
            return fh.read()


VALID_CHECKPOINT = _checkpoint_bytes()


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(VALID_CHECKPOINT) - 1))
def test_every_truncation_of_a_checkpoint_raises_checkpoint_error(cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cut.pgrw")
        with open(path, "wb") as fh:
            fh.write(VALID_CHECKPOINT[:cut])
        for load in (ckpt.load_checkpoint, ckpt.load_model):
            with pytest.raises(CheckpointError):
                load(path)


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = make_checkpoint(tmp_path)
    before = path.read_bytes()
    model = Model(ModelConfig(bins=16, feature_width=8, encoder_widths=(8,), head_widths=(8,),
                              context=ContextOpKind.CA_MEAN, seed=1))
    header_len = int.from_bytes(before[8:16], "little")

    class FullDisk:
        """A file that fails once a few payload bytes have been written."""

        def __init__(self, fh):
            self.fh, self.written = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.written > 16 + header_len + 100:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.written += len(data)
            return self.fh.write(data)

    monkeypatch.setattr(ckpt, "open", lambda p, mode: FullDisk(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="No space"):
        ckpt.save_checkpoint(path, model, AdamState.for_params(model.params), step=3)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    ckpt.save_checkpoint(path, model, AdamState.for_params(model.params), step=3)
    assert ckpt.load_checkpoint(path)[2] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_load_model_matches_load_checkpoint(tmp_path):
    path = make_checkpoint(tmp_path, d=2)
    full, _, _ = ckpt.load_checkpoint(path)
    model = ckpt.load_model(path)
    assert model.config == full.config and list(model.params) == list(full.params)
    for name, p in full.params.items():
        assert p.data.tobytes() == model.params[name].data.tobytes()


# ---------------------------------------------------------------------------
# generate / complete / eval / attention


def make_checkpoint(tmp_path, bins=16, d=0):
    model = Model(ModelConfig(bins=bins, feature_width=8, encoder_widths=(8,),
                              head_widths=(8,), context=ContextOpKind.CA_MEAN,
                              condition_dim=d, seed=0))
    path = tmp_path / f"fresh_{bins}_{d}.pgrw"
    ckpt.save_checkpoint(path, model, AdamState.for_params(model.params), step=0)
    return path


def test_generate_seed_reproducible_ply(tmp_path):
    cp = make_checkpoint(tmp_path)
    for tag in ("one", "two"):
        rc = cli.main([
            "generate", "--checkpoint", str(cp), "--points", "8",
            "--seed", "7", "--out", str(tmp_path / tag),
        ])
        assert rc == 0
    assert (tmp_path / "one.ply").read_bytes() == (tmp_path / "two.ply").read_bytes()
    assert (tmp_path / "one.xyz").read_bytes() == (tmp_path / "two.xyz").read_bytes()


def test_complete_full_prefix(tmp_path):
    cp = make_checkpoint(tmp_path)
    rng = np.random.default_rng(2)
    from pointgen.data import dequantize, quantize

    prefix_q = quantize(rng.random((6, 3)), 16)
    prefix_path = tmp_path / "prefix.xyz"
    save_xyz(dequantize(prefix_q), prefix_path)
    rc = cli.main([
        "complete", "--checkpoint", str(cp), "--prefix", str(prefix_path),
        "--points", "6", "--out", str(tmp_path / "done"),
    ])
    assert rc == 0
    assert np.allclose(load_xyz(tmp_path / "done.xyz"), dequantize(prefix_q))


def test_eval_untrained_prints_log2_bins(tmp_path, raw_dir, capsys):
    ds = prepare_dataset(tmp_path, raw_dir, bins=200)
    cp = make_checkpoint(tmp_path, bins=200)
    rc = cli.main([
        "eval", "--checkpoint", str(cp), "--dataset", str(ds / "manifest.json")
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out == f"{math.log2(200):.4f}" == "7.6439"


def test_attention_command(tmp_path, raw_dir):
    ds = prepare_dataset(tmp_path, raw_dir)
    cp = make_checkpoint(tmp_path)
    out_csv = tmp_path / "attn.csv"
    rc = cli.main([
        "attention", "--checkpoint", str(cp), "--input", str(ds / "a.xyz"),
        "--query", "3", "--branch", "z", "--out", str(out_csv),
    ])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "index,distance"
    assert len(lines) == 33


@pytest.mark.parametrize("case", [
    "eval conditions not numeric", "eval conditions missing", "eval dataset missing",
    "eval dataset not json", "generate checkpoint missing", "generate condition not numeric",
])
def test_bad_outside_input_exits_2(tmp_path, raw_dir, capsys, case):
    ds = prepare_dataset(tmp_path, raw_dir)
    cp = make_checkpoint(tmp_path, d=3)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1,0,0\n0,1,one\n0,0,1\n")
    not_json = tmp_path / "manifest.json"
    not_json.write_text('{"bins": 16, "files": [')
    missing = tmp_path / "missing"
    eval_cp = ["eval", "--checkpoint", str(cp)]
    eval_ds = [*eval_cp, "--dataset", str(ds / "manifest.json")]
    generate = ["generate", "--points", "4", "--out", str(tmp_path / "g")]
    argv, named = {
        "eval conditions not numeric": ([*eval_ds, "--conditions", str(bad_csv)], bad_csv),
        "eval conditions missing": ([*eval_ds, "--conditions", f"{missing}.csv"],
                                    f"{missing}.csv"),
        "eval dataset missing": ([*eval_cp, "--dataset", f"{missing}.json"], f"{missing}.json"),
        "eval dataset not json": ([*eval_cp, "--dataset", str(not_json)], not_json),
        "generate checkpoint missing": (
            [*generate, "--checkpoint", f"{missing}.pgrw", "--class", "0", "--classes", "3"],
            f"{missing}.pgrw"),
        "generate condition not numeric": (
            [*generate, "--checkpoint", str(cp), "--condition-file", str(bad_csv)], bad_csv),
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("pointgen: ") and str(named) in err and "Traceback" not in err
    assert not (tmp_path / "g.ply").exists()


def test_conditional_generate_requires_condition(tmp_path, capsys):
    cp = make_checkpoint(tmp_path, d=3)
    rc = cli.main([
        "generate", "--checkpoint", str(cp), "--points", "4",
        "--out", str(tmp_path / "g"),
    ])
    assert rc == 2
    assert "condition" in capsys.readouterr().err


def test_conditional_generate_one_hot(tmp_path):
    cp = make_checkpoint(tmp_path, d=3)
    rc = cli.main([
        "generate", "--checkpoint", str(cp), "--points", "4", "--seed", "1",
        "--class", "1", "--classes", "3", "--out", str(tmp_path / "g"),
    ])
    assert rc == 0
    assert load_xyz(tmp_path / "g.xyz").shape == (4, 3)


# ---------------------------------------------------------------------------
# config parsing


def test_config_unknown_key_names_key_and_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # temperature and points were once accepted and silently ignored
    for key, value in (("bogus_key", "1"), ("temperature", "0.5"), ("points", "99")):
        cfg.write_text(f"bins = 16\nfeatures = 8\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert f"unknown key {key!r}" in str(err.value) and ":3" in str(err.value)


def test_config_bad_value_names_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bins = many\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "bins" in str(err.value) and ":1" in str(err.value)


def test_config_comments_and_defaults(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# full-line comment\nbins = 32  # trailing comment\n")
    parsed = parse_config(cfg)
    assert parsed.bins == 32
    assert parsed.features == 128  # untouched default
