import errno
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointgen.model as model_module
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


def test_prepare_rejects_a_second_input_of_the_same_stem(tmp_path, raw_dir, capsys):
    (raw_dir / "b").mkdir()
    (raw_dir / "b" / "a.xyz").write_bytes((raw_dir / "b.xyz").read_bytes())
    out = tmp_path / "ds"
    rc = cli.main(["prepare", str(raw_dir / "a.xyz"), str(raw_dir / "b" / "a.xyz"),
                   "--points", "32", "--bins", "16", "--out", str(out)])
    assert rc == 0
    assert str(raw_dir / "b" / "a.xyz") in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["files"] == ["a.xyz"]
    alone = prepare_dataset(tmp_path / "alone", raw_dir)
    assert (out / "a.xyz").read_bytes() == (alone / "a.xyz").read_bytes()


def test_prepare_reports_a_mesh_that_is_not_text_as_a_failed_file(tmp_path, raw_dir, capsys):
    # a bad input is one failed file, as for .xyz: exit 1 when nothing is written
    obj = tmp_path / "broken.obj"
    obj.write_bytes(b"v 0 0 0\n\xff\xfe\n")
    for inputs, code in (([obj], 1), ([obj, raw_dir / "a.xyz"], 0)):
        out = tmp_path / f"ds{code}"
        rc = cli.main(["prepare", *map(str, inputs), "--points", "16", "--bins", "16",
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith(f"prepare: {obj}: not UTF-8 text") and "Traceback" not in err
        assert json.loads((out / "manifest.json").read_text())["files"] == ["a.xyz"][code:]


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


def test_train_writes_the_same_bytes_on_one_worker_and_on_three(tmp_path, raw_dir, monkeypatch):
    ds = prepare_dataset(tmp_path, raw_dir, points=12)
    saca_b = "context = saca-b\nbatch_size = 3\ncheckpoint_interval = 1\n"  # later keys win
    names = ["loss.csv", "ckpt_000001.pgrw", "ckpt_000002.pgrw", "ckpt_000003.pgrw",
             "ckpt_final.pgrw"]
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(model_module, "_workers", lambda batch, parameters, k=workers: k)
        cfg = tmp_path / f"w{workers}.cfg"
        write_train_config(cfg, ds / "manifest.json", tmp_path / f"w{workers}", steps=3,
                           extra=saca_b)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        runs.append([(tmp_path / f"w{workers}" / name).read_bytes() for name in names])
    assert runs[0] == runs[1]
    resume = tmp_path / "resume.cfg"
    write_train_config(resume, ds / "manifest.json", tmp_path / "resumed", steps=1, extra=saca_b)
    assert cli.main(["train", "--config", str(resume),
                     "--checkpoint", str(tmp_path / "w3" / "ckpt_000002.pgrw")]) == 0
    assert (tmp_path / "resumed" / "ckpt_000003.pgrw").read_bytes() == runs[0][3]


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


def test_resume_with_another_model_config_exits_2_and_writes_nothing(tmp_path, raw_dir, capsys):
    ds = prepare_dataset(tmp_path, raw_dir)
    cfg = tmp_path / "run.cfg"
    write_train_config(cfg, ds / "manifest.json", tmp_path / "run", steps=3)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    other = tmp_path / "other.cfg"
    write_train_config(other, ds / "manifest.json", tmp_path / "resumed", steps=3,
                       extra="context = saca-b\nfeatures = 16\nencoder = 16\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(other),
                     "--checkpoint", str(tmp_path / "run" / "ckpt_final.pgrw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pointgen: ") and "Traceback" not in err
    for named in ("'context': 'ca-mean'", "'feature_width': 8,",
                  "'context': 'saca-b'", "'feature_width': 16,"):
        assert named in err
    assert not (tmp_path / "resumed").exists()


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
    moments = (state.m.copy(), state.v.copy())
    batch = [quantize(load_xyz(ds / name), 16) for name in ("a.xyz", "b.xyz")]
    with pytest.raises(NonFiniteLossError):
        model.train_step(state, batch, 0.003)
    assert state.t == 10
    for k, p in model.params.items():
        assert p.grad is None
        assert np.array_equal(p.data, before[k], equal_nan=True)
    assert np.array_equal(state.m, moments[0])
    assert np.array_equal(state.v, moments[1])


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
    state.m = rng.normal(size=state.m.shape)
    state.v = rng.random(size=state.v.shape)
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
        assert state.m.tobytes() == lstate.m.tobytes()
        assert state.v.tobytes() == lstate.v.tobytes()


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


def swap_offsets(h, a, b):
    """The header h with the offsets of tensors a and b exchanged."""
    offset = {t["name"]: t["offset"] for t in h["tensors"]}
    swap = {a: offset[b], b: offset[a]}
    return {**h, "tensors": [{**t, "offset": swap.get(t["name"], t["offset"])}
                             for t in h["tensors"]]}


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
    "offsets swapped": (lambda h: swap_offsets(h, "param:z.enc0.b", "param:y.enc0.b"),
                        "param:z.enc0.b is (1, 8) at offset"),
    "8 trailing bytes": (lambda h: h, "payload is"),
}
TRAILING = {"8 trailing bytes": bytes(8)}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_generate_on_malformed_checkpoint_header_exits_2(tmp_path, capsys, case):
    edit, message = MALFORMED_HEADERS[case]
    bad = tmp_path / "bad.pgrw"
    bad.write_bytes(with_header(make_checkpoint(tmp_path).read_bytes(), edit)
                    + TRAILING.get(case, b""))
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
            self.written += memoryview(data).nbytes  # payloads are arrays, not bytes
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
    "generate out directory missing", "complete prefix missing", "train out under a file",
    "train checkpoint write fails", "attention input not text", "generate temperature nan",
    "generate nan parameter", "train config not text", "train manifest lists no files",
    "train condition width differs", "train conditions missing", "train conditions unexpected",
    "train conditions nan", "eval conditions nan", "generate condition nan",
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
    one_hot = ["--class", "0", "--classes", "3"]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    run = tmp_path / "run"
    (run / "ckpt_final.pgrw").mkdir(parents=True)  # the final checkpoint cannot replace it
    train_cfg = tmp_path / "train.cfg"
    write_train_config(train_cfg, ds / "manifest.json",
                       blocker / "run" if case == "train out under a file" else run, steps=1)
    binary = tmp_path / "cloud.xyz"
    binary.write_bytes(b"0 0 0\n\xff\xfe\x00\x80 1 1\n")
    binary_cfg = tmp_path / "binary.cfg"
    binary_cfg.write_bytes(b"bins = 16\n\xff\n")
    empty = tmp_path / "empty.json"
    empty.write_text('{"bins": 16, "files": []}')
    empty_cfg = tmp_path / "empty.cfg"
    write_train_config(empty_cfg, empty, tmp_path / "fresh", steps=1)
    one_hots = tmp_path / "one_hots.csv"
    one_hots.write_text("1,0,0\n0,1,0\n0,0,1\n")
    not_finite = tmp_path / "not_finite.csv"
    not_finite.write_text("1,0,0\n0,nan,0\n0,0,inf\n")
    cond_cfg = tmp_path / "cond.cfg"
    write_train_config(cond_cfg, ds / "manifest.json", tmp_path / "fresh", steps=1, extra={
        "train condition width differs": f"condition_dim = 2\nconditions = {one_hots}\n",
        "train conditions missing": "condition_dim = 3\n",
        "train conditions unexpected": f"conditions = {one_hots}\n",
        "train conditions nan": f"condition_dim = 3\nconditions = {not_finite}\n",
    }.get(case, ""))
    nan_cp = tmp_path / "nan.pgrw"
    model, state, step = ckpt.load_checkpoint(cp)
    model.params["z.head1.b"].data[0, 0] = np.nan
    ckpt.save_checkpoint(nan_cp, model, state, step)
    argv, named = {
        "eval conditions not numeric": ([*eval_ds, "--conditions", str(bad_csv)], bad_csv),
        "eval conditions missing": ([*eval_ds, "--conditions", f"{missing}.csv"],
                                    f"{missing}.csv"),
        "eval dataset missing": ([*eval_cp, "--dataset", f"{missing}.json"], f"{missing}.json"),
        "eval dataset not json": ([*eval_cp, "--dataset", str(not_json)], not_json),
        "generate checkpoint missing": (
            [*generate, "--checkpoint", f"{missing}.pgrw", *one_hot], f"{missing}.pgrw"),
        "generate condition not numeric": (
            [*generate, "--checkpoint", str(cp), "--condition-file", str(bad_csv)], bad_csv),
        "generate out directory missing": (
            ["generate", "--checkpoint", str(cp), "--points", "4", "--out", str(missing / "g"),
             *one_hot], missing / "g.ply"),
        "complete prefix missing": (
            ["complete", "--checkpoint", str(cp), "--prefix", f"{missing}.xyz", "--points", "4",
             "--out", str(tmp_path / "g"), *one_hot], f"{missing}.xyz"),
        "train out under a file": (["train", "--config", str(train_cfg)], blocker / "run"),
        "train checkpoint write fails": (
            ["train", "--config", str(train_cfg)], run / "ckpt_final.pgrw"),
        "attention input not text": (
            ["attention", "--checkpoint", str(cp), "--input", str(binary), "--query", "0",
             "--branch", "z", "--out", str(tmp_path / "a.csv"), *one_hot], binary),
        "generate temperature nan": (
            [*generate, "--checkpoint", str(cp), "--temperature", "nan", *one_hot], "temperature"),
        "generate nan parameter": ([*generate, "--checkpoint", str(nan_cp), *one_hot], "sum to nan"),
        "train config not text": (["train", "--config", str(binary_cfg)], binary_cfg),
        "train manifest lists no files": (["train", "--config", str(empty_cfg)], empty),
        "train condition width differs": (["train", "--config", str(cond_cfg)], one_hots),
        "train conditions missing": (["train", "--config", str(cond_cfg)], cond_cfg),
        "train conditions unexpected": (["train", "--config", str(cond_cfg)], cond_cfg),
        "train conditions nan": (["train", "--config", str(cond_cfg)], not_finite),
        "eval conditions nan": ([*eval_ds, "--conditions", str(not_finite)], not_finite),
        "generate condition nan": (
            [*generate, "--checkpoint", str(cp), "--condition-file", str(not_finite)], not_finite),
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("pointgen: ") and str(named) in err and "Traceback" not in err
    assert not (tmp_path / "g.ply").exists()
    assert not (run / "ckpt_final.pgrw.tmp").exists()
    assert not (tmp_path / "fresh").exists()


def test_eval_records_no_tape(tmp_path, raw_dir, monkeypatch, capsys):
    ds = prepare_dataset(tmp_path, raw_dir)
    cp = make_checkpoint(tmp_path)
    seen = []
    forward = Model.forward

    def spy(self, *args, **kwargs):
        seen.append(forward(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(Model, "forward", spy)
    assert cli.main(["eval", "--checkpoint", str(cp), "--dataset", str(ds / "manifest.json")]) == 0
    assert len(seen) == 3
    assert all(not t.requires_grad and not t._parents for logits in seen for t in logits.values())


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
    assert parsed.model.bins == 32
    assert parsed.model.feature_width == 128  # untouched default


def test_config_zero_widths_name_the_file(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("features = 0\nencoder = 0\n")
    with pytest.raises(ConfigError, match=r"zero\.cfg: .*must be positive"):
        parse_config(cfg)
