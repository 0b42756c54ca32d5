"""Binary checkpoint format.

Layout: magic b"PGRW", uint32 LE version, uint64 LE header length, a
UTF-8 JSON header (config echo, step counters, named tensor table with
offsets), then the concatenated row-major little-endian float64 payloads.
Roundtrips are bit-exact, which training resumption relies on.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .autodiff import AdamState, Tensor
from .errors import CheckpointError
from .model import Model, ModelConfig

MAGIC = b"PGRW"
VERSION = 1


def save_checkpoint(path, model: Model, state: AdamState, step: int) -> None:
    tensors: list[tuple[str, np.ndarray]] = []
    for name, p in model.params.items():
        tensors.append((f"param:{name}", p.data))
    for name, m in state.m.items():
        tensors.append((f"adam_m:{name}", m))
    for name, v in state.v.items():
        tensors.append((f"adam_v:{name}", v))

    table = []
    offset = 0
    payloads = []
    for name, arr in tensors:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        table.append({"name": name, "rows": arr.shape[0], "cols": arr.shape[1],
                      "offset": offset})
        payloads.append(raw)
        offset += len(raw)

    header = json.dumps({
        "config": model.config.to_dict(),
        "step": step,
        "adam_t": state.t,
        "tensors": table,
    }).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in payloads:
            fh.write(raw)


def load_checkpoint(path) -> tuple[Model, AdamState, int]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated preamble ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if header_end > len(blob):
        raise CheckpointError(f"{path}: header length {header_len} exceeds the file")
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})")
    payload = blob[header_end:]

    arrays: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        rows, cols, off = entry["rows"], entry["cols"], entry["offset"]
        nbytes = rows * cols * 8
        if off + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated payload for {entry['name']}")
        arr = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=off)
        arrays[entry["name"]] = arr.astype(np.float64).reshape(rows, cols)

    config = ModelConfig.from_dict(header["config"])
    params = {}
    m = {}
    v = {}
    for name, arr in arrays.items():
        kind, _, pname = name.partition(":")
        if kind == "param":
            params[pname] = Tensor(arr, requires_grad=True)
        elif kind == "adam_m":
            m[pname] = arr
        elif kind == "adam_v":
            v[pname] = arr
        else:
            raise CheckpointError(f"{path}: unknown tensor kind {kind!r}")
    missing = set(params) - set(m) or set(params) - set(v)
    if missing:
        raise CheckpointError(f"{path}: missing optimizer moments for {sorted(missing)}")
    model = Model(config, params)
    state = AdamState(m=m, v=v, t=header["adam_t"])
    return model, state, header["step"]
