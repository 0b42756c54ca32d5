"""Checks on the program's outputs, each returning a list of problems.

They rest on properties of the method (the uniform first step, causal
replay of the sampler's draws) and on the plain numpy oracle, never on a
stored copy of earlier output, so a faster but equivalent program passes.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle

EDGE = 1e-9  # a replayed draw may differ only this close to a CDF edge


def check_loss_log(text: str, steps: int, bins: int) -> list[str]:
    """One finite row per step, a uniform first step, and a falling loss."""
    lines = text.splitlines()
    if not lines or lines[0] != "step,nats,bits_per_coord":
        return ["loss.csv: missing header"]
    if not text.endswith("\n"):
        return ["loss.csv: last row is cut short"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(s) for s in range(1, steps + 1)]:
        return [f"loss.csv: expected steps 1..{steps}, got {len(rows)} rows"]
    try:
        bits = np.array([float(b) for _, _, b in rows])
    except ValueError:
        return ["loss.csv: malformed row"]
    problems = []
    if not np.all(np.isfinite(bits)):
        problems.append("loss.csv: non-finite loss")
    if abs(bits[0] - math.log2(bins)) > 1e-9:
        problems.append(f"loss.csv: step 1 is {bits[0]!r} bits, not log2({bins})")
    tail = bits[-max(1, steps // 10):]
    if not tail.mean() < bits[0]:
        problems.append("loss.csv: last tenth of steps not below step 1")
    return problems


def read_ply(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    end = lines.index("end_header")
    count = next(int(l.split()[2]) for l in lines if l.startswith("element vertex"))
    body = np.array([[float(v) for v in l.split()] for l in lines[end + 1:]]).reshape(-1, 3)
    if len(body) != count:
        raise ValueError(f"{path}: {len(body)} vertices, header says {count}")
    return body


def check_generated(prefix, n: int, bins: int) -> tuple[np.ndarray | None, list[str]]:
    """The .xyz and .ply of one sample hold the same n points at bin centres.

    Returns the (n, 3) bin indices in file order, which is generation order.
    """
    try:
        coords = np.loadtxt(f"{prefix}.xyz", ndmin=2)
        same = np.array_equal(coords, read_ply(f"{prefix}.ply"))
    except (OSError, ValueError, StopIteration) as exc:
        return None, [f"{prefix}: {exc}"]
    cloud = np.rint(coords * bins - 0.5)
    if coords.shape[1] != 3 or np.abs(coords * bins - 0.5 - cloud).max() > 1e-6:
        return None, [f"{prefix}: points are not at bin centres"]
    cloud = cloud.astype(np.int64)
    problems = [] if same else [f"{prefix}: .xyz and .ply differ"]
    if len(cloud) != n:
        problems.append(f"{prefix}: {len(cloud)} points, expected {n}")
    if cloud.min() < 0 or cloud.max() >= bins:
        problems.append(f"{prefix}: bin out of range")
    return cloud, problems


def replay(header, params, cloud: np.ndarray, seed: int, condition=None) -> list[str]:
    """Redraw every coordinate from the oracle's distribution and the seed's variates.

    The sampler draws z, y, x of each point in turn by inverse CDF, one
    uniform variate each. By causality the scores for point i computed from
    the finished cloud are those the sampler saw when it drew point i.
    """
    logp = oracle.log_probs(header, params, cloud, condition)
    variates = np.random.default_rng(seed).random(3 * len(cloud)).reshape(-1, 3)
    problems = []
    for j, branch in enumerate(("z", "y", "x")):
        col = oracle.BRANCH_COLUMN[branch]
        cdf = np.cumsum(np.exp(logp[branch]), axis=1)
        got = cloud[:, col]
        lower = np.where(got > 0, cdf[np.arange(len(cloud)), np.maximum(got - 1, 0)], 0.0)
        upper = np.where(got < cdf.shape[1] - 1, cdf[np.arange(len(cloud)), got], np.inf)
        u = variates[:, j]
        bad = np.flatnonzero((u < lower - EDGE) | (u >= upper + EDGE))
        if bad.size:
            problems.append(f"seed {seed}: {branch} of point {bad[0]} is not the replayed draw "
                            f"({bad.size} mismatches)")
    return problems


def dataset_bits(header, params, xyz_paths, bins: int, conditions=None) -> float:
    """Oracle mean bits per coordinate over clouds read as `eval` reads them."""
    values = []
    for k, path in enumerate(xyz_paths):
        b = np.clip(np.floor(np.loadtxt(path, ndmin=2) * bins), 0, bins - 1).astype(np.int64)
        b = b[np.lexsort((b[:, 0], b[:, 1], b[:, 2]))]
        cond = None if conditions is None else conditions[k]
        values.append(oracle.cloud_bits(header, params, b, cond))
    return float(np.mean(values))
