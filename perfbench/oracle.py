"""Plain numpy reference for checkpoints and the model's scores.

Nothing here calls into pointgen: the checkpoint is parsed from its bytes
and the three-branch network is evaluated with direct prefix loops, so a
fault in the program's checkpoint, autodiff, context or model code shows as
a disagreement instead of being repeated.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

# column of each branch's coordinate in an (n, 3) (x, y, z) bin array, and the
# columns of the current point that each branch may see
BRANCH_COLUMN = {"z": 2, "y": 1, "x": 0}
VISIBLE = {"z": [], "y": [2], "x": [1, 2]}


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Return (header, parameters by name) from a .pgrw file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"PGRW":
        raise ValueError(f"{path}: not a checkpoint")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    payload = memoryview(blob)[16 + header_len:]
    params = {}
    for entry in header["tensors"]:
        kind, _, name = entry["name"].partition(":")
        if kind == "param":
            count = entry["rows"] * entry["cols"]
            arr = np.frombuffer(payload, "<f8", count, entry["offset"])
            params[name] = arr.reshape(entry["rows"], entry["cols"]).astype(np.float64)
    return header, params


def _layers(params, prefix, x, h, final_linear):
    k = 0
    while f"{prefix}{k}.W" in params:
        x = x @ params[f"{prefix}{k}.W"] + params[f"{prefix}{k}.b"]
        if h is not None:
            x = x + h @ params[f"{prefix}{k}.H"]
        last = f"{prefix}{k + 1}.W" not in params
        if not (last and final_linear):
            x = np.maximum(x, 0.0)
        k += 1
    return x


def _context(params, branch, feats, h, kind):
    """Shifted context rows: row i sees feature rows 0..i-1 only."""
    n, f = feats.shape
    att = lambda rows: _layers(params, f"{branch}.att", rows, h, final_linear=True)
    pooled = np.stack([feats[: m + 1].mean(axis=0) for m in range(n)])
    summed = np.zeros((n, f))
    if kind == "saca-a":
        weighted = feats * att(np.hstack([pooled, feats]))
        for i in range(n):
            summed[i] = weighted[: i + 1].sum(axis=0)
    elif kind == "saca-b":
        for i in range(n):
            keys = feats[: i + 1]
            queries = np.broadcast_to(pooled[i], keys.shape)
            summed[i] = (keys * att(np.hstack([queries, keys]))).sum(axis=0)
    else:
        raise ValueError(f"oracle covers saca-a and saca-b, not {kind}")
    out = np.zeros((n, f))
    out[1:] = summed[:-1]
    return out


def log_probs(header, params, bins, condition=None) -> dict[str, np.ndarray]:
    """Per-branch (n, B) log-softmax of the model's scores for one cloud.

    `bins` is an (n, 3) integer array in (x, y, z) column order, in the
    order the model consumes the points.
    """
    cfg = header["config"]
    n_bins = cfg["bins"]
    coords = (np.asarray(bins, dtype=np.float64) + 0.5) / n_bins
    h = None if condition is None else np.asarray(condition, dtype=np.float64).reshape(1, -1)
    out = {}
    for branch, col in BRANCH_COLUMN.items():
        feats = _layers(params, f"{branch}.enc", coords, h, final_linear=False)
        masked = np.zeros_like(coords)
        masked[:, VISIBLE[branch]] = coords[:, VISIBLE[branch]]
        own = _layers(params, f"{branch}.enc", masked, h, final_linear=False)
        ctx = _context(params, branch, feats, h, cfg["context"])
        logits = _layers(params, f"{branch}.head", np.hstack([ctx, own]), h, final_linear=True)
        z = logits - logits.max(axis=1, keepdims=True)
        out[branch] = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return out


def cloud_bits(header, params, bins, condition=None) -> float:
    """Mean bits per coordinate of one cloud."""
    lp = log_probs(header, params, bins, condition)
    rows = np.arange(len(bins))
    nats = [-lp[b][rows, np.asarray(bins)[:, c]] for b, c in BRANCH_COLUMN.items()]
    return float(np.concatenate(nats).mean() / math.log(2.0))
