"""Binary checkpoint format.

Layout: magic b"PGRW", uint32 LE version, uint64 LE header length, a
UTF-8 JSON header (config echo, step counters, named tensor table with
offsets), then the row-major little-endian float64 payloads: the
parameters, then Adam's flat m and v vectors, all in parameter order.
The config alone fixes the tensor table (`_table`), so a file of N
parameters is exactly 16 + header length + 3·N·8 bytes, and a loader
reads the payloads it needs with one read. Roundtrips are bit-exact,
which training resumption relies on.
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


def _table(config: ModelConfig) -> list[dict]:
    """The tensor table of a checkpoint of `config`: every parameter, then
    every m and v entry, in parameter order, with offsets into the payload."""
    table = []
    offset = 0
    for kind in KINDS:
        for name, (rows, cols) in config.parameter_shapes().items():
            table.append({"name": f"{kind}:{name}", "rows": rows, "cols": cols,
                          "offset": offset})
            offset += rows * cols * 8
    return table


def save_checkpoint(path, model: Model, state: AdamState, step: int) -> None:
    """Write the checkpoint to `<path>.tmp` beside it, then rename it over
    `path`, so an interrupted write never leaves a truncated `path`."""
    header = json.dumps({
        "config": model.config.to_dict(),
        "step": step,
        "adam_t": state.t,
        "tensors": _table(model.config),
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


def _reject_table(entries, table: list[dict], path):
    """Raise a CheckpointError naming how a header's tensor table `entries`
    differs from `table`, the one its config gives."""
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: bad or missing header field 'tensors'")
    found = {e["name"]: e for e in entries
             if isinstance(e, dict) and isinstance(e.get("name"), str)}
    unexpected = sorted(found.keys() - {t["name"] for t in table})
    if unexpected:
        raise CheckpointError(f"{path}: unexpected tensor {unexpected[0]}")
    for want in table:
        name = want["name"]
        if name not in found:
            raise CheckpointError(f"{path}: missing tensor {name}")
        got = tuple(_count(found[name], key, path) for key in ("rows", "cols", "offset"))
        wanted = (want["rows"], want["cols"], want["offset"])
        if got != wanted:
            raise CheckpointError(f"{path}: tensor {name} is {got[:2]} at offset {got[2]}, "
                                  f"the config gives {wanted[:2]} at offset {wanted[2]}")
    raise CheckpointError(f"{path}: tensor table is not the one the config gives")


def _read(path, kinds: int) -> tuple[ModelConfig, dict, np.ndarray]:
    """Check a checkpoint's preamble, header, tensor table and size; return
    its config, its header and its first `kinds` of (parameters, m, v) as
    the rows of one (kinds, N) block, read with one read."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot open checkpoint ({exc.strerror})") from exc
    with fh:
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
        table = _table(config)
        if header.get("tensors") != table:
            _reject_table(header.get("tensors"), table, path)
        n = sum(rows * cols for rows, cols in config.parameter_shapes().values())
        if size != header_end + len(KINDS) * n * 8:
            raise CheckpointError(f"{path}: payload is {size - header_end} bytes, "
                                  f"the tensor table gives {len(KINDS) * n * 8}")
        block = np.fromfile(fh, dtype="<f8", count=kinds * n)
    return config, header, block.reshape(kinds, n)


def _params(config: ModelConfig, flat: np.ndarray, requires_grad: bool) -> dict[str, Tensor]:
    """The parameters of `config` as views of the flat vector `flat`."""
    shapes = config.parameter_shapes()
    ends = np.cumsum([0] + [rows * cols for rows, cols in shapes.values()]).tolist()
    return {name: Tensor(flat[i:j].reshape(shape), requires_grad)
            for (name, shape), i, j in zip(shapes.items(), ends, ends[1:])}


def load_model(path) -> Model:
    """The model of a checkpoint, for inference: its parameters record no
    tape. The optimizer moments are checked by size but not read."""
    config, _, (params,) = _read(path, kinds=1)
    return Model(config, _params(config, params, requires_grad=False))


def load_checkpoint(path) -> tuple[Model, AdamState, int]:
    """Model, optimizer state and step of a checkpoint, for resuming training."""
    config, header, (params, m, v) = _read(path, kinds=3)
    model = Model(config, _params(config, params, requires_grad=True))
    return model, AdamState(m=m, v=v, t=header["adam_t"]), header["step"]
