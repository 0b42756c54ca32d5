"""Binary checkpoint format.

Layout: magic b"PGRW", uint32 LE version, uint64 LE header length, a
UTF-8 JSON header (config echo, step counters, named tensor table with
offsets), then the row-major little-endian float64 payloads: the
parameters, then Adam's flat m and v vectors, all in parameter order.
Roundtrips are bit-exact, which training resumption relies on.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .autodiff import AdamState, Tensor
from .errors import CheckpointError
from .model import Model, ModelConfig

MAGIC = b"PGRW"
VERSION = 1


KINDS = ("param", "adam_m", "adam_v")


def save_checkpoint(path, model: Model, state: AdamState, step: int) -> None:
    """Write the checkpoint to `<path>.tmp` beside it, then rename it over
    `path`, so an interrupted write never leaves a truncated `path`."""
    table = []
    offset = 0
    for kind in KINDS:
        for name, p in model.params.items():
            table.append({"name": f"{kind}:{name}", "rows": p.data.shape[0],
                          "cols": p.data.shape[1], "offset": offset})
            offset += p.data.size * 8

    header = json.dumps({
        "config": model.config.to_dict(),
        "step": step,
        "adam_t": state.t,
        "tensors": table,
    }).encode("utf-8")

    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for arr in [p.data for p in model.params.values()] + [state.m, state.v]:
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))  # no tobytes() copy
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _count(header: dict, key: str, path) -> int:
    value = header.get(key)
    if type(value) is not int or value < 0:
        raise CheckpointError(f"{path}: bad or missing header field {key!r}")
    return value


def _read_header(fh, path) -> tuple[ModelConfig, dict, dict[str, tuple[int, int, int]]]:
    """Check the preamble, the header and its tensor table against the
    config's parameter shapes; read no tensor.

    Returns the config, the header and the table: name -> (rows, cols,
    offset in the file).
    """
    size = os.fstat(fh.fileno()).st_size
    preamble = fh.read(16)
    if len(preamble) < 16:
        raise CheckpointError(f"{path}: truncated preamble ({len(preamble)} bytes)")
    if preamble[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    (version,) = struct.unpack_from("<I", preamble, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", preamble, 8)
    header_end = 16 + header_len
    if header_end > size:
        raise CheckpointError(f"{path}: header length {header_len} exceeds the file")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})")
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header (not an object)")
    try:
        config = ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model config in header ({exc!r})")
    _count(header, "step", path)
    _count(header, "adam_t", path)
    entries = header.get("tensors")
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: bad or missing header field 'tensors'")

    payload_len = size - header_end
    table: dict[str, tuple[int, int, int]] = {}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name in table:
            raise CheckpointError(f"{path}: bad or repeated tensor name {name!r}")
        rows, cols, off = (_count(entry, key, path) for key in ("rows", "cols", "offset"))
        if off + rows * cols * 8 > payload_len:
            raise CheckpointError(f"{path}: truncated payload for {name}")
        table[name] = (rows, cols, header_end + off)

    shapes = config.parameter_shapes()
    expected = {f"{kind}:{p}": shape for kind in KINDS for p, shape in shapes.items()}
    unexpected = sorted(table.keys() - expected.keys())
    if unexpected:
        raise CheckpointError(f"{path}: unexpected tensor {unexpected[0]}")
    for name, shape in expected.items():
        if name not in table:
            raise CheckpointError(f"{path}: missing tensor {name}")
        if table[name][:2] != shape:
            raise CheckpointError(
                f"{path}: tensor {name} is {table[name][:2]}, the config gives {shape}")
    return config, header, table


def _read_tensors(fh, table, kind: str, names) -> list[np.ndarray]:
    """The tensors of one kind, in the order of `names`."""
    arrays = []
    for name in names:
        rows, cols, off = table[f"{kind}:{name}"]
        fh.seek(off)
        raw = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
        arrays.append(raw.astype(np.float64).reshape(rows, cols))
    return arrays


def _open(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot open checkpoint ({exc.strerror})") from exc


def load_model(path) -> Model:
    """The model of a checkpoint, for inference: its parameters record no
    tape. The optimizer moments are checked in the table but not read."""
    with _open(path) as fh:
        config, _, table = _read_header(fh, path)
        names = config.parameter_shapes()
        params = _read_tensors(fh, table, "param", names)
    return Model(config, {name: Tensor(arr) for name, arr in zip(names, params)})


def load_checkpoint(path) -> tuple[Model, AdamState, int]:
    """Model, optimizer state and step of a checkpoint, for resuming training."""
    with _open(path) as fh:
        config, header, table = _read_header(fh, path)
        names = config.parameter_shapes()
        params, m, v = (_read_tensors(fh, table, kind, names) for kind in KINDS)
    model = Model(config, {name: Tensor(arr, requires_grad=True)
                           for name, arr in zip(names, params)})
    m, v = (np.concatenate([arr.ravel() for arr in kind]) for kind in (m, v))
    return model, AdamState(m=m, v=v, t=header["adam_t"]), header["step"]
