"""Point cloud ingestion: normalization, quantization, ordering, sampling, I/O.

Raw clouds are float64 arrays of shape (n, 3) with columns (x, y, z).
Quantized clouds hold integer bin indices in the same column order and are
kept sorted ascending lexicographically by (z, y, x), the generation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InputError(f"expected an (n, 3) point array, got shape {pts.shape}")
    return pts


@dataclass
class QuantizedPointCloud:
    """Integer bin indices, columns (x_bin, y_bin, z_bin), sorted z-y-x."""

    bins: np.ndarray  # (n, 3) int64
    bin_count: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.int64)
        if self.bins.ndim != 2 or self.bins.shape[1] != 3:
            raise InputError(f"bins must be (n, 3), got {self.bins.shape}")
        if self.bin_count < 2:
            raise InputError("bin_count must be >= 2")
        if self.bins.size and (self.bins.min() < 0 or self.bins.max() >= self.bin_count):
            raise InputError("bin index out of range")

    @property
    def n(self) -> int:
        return self.bins.shape[0]

    def is_sorted_zyx(self) -> bool:
        return np.array_equal(self.bins, sort_zyx(self.bins))


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (v, 3) float64
    triangles: np.ndarray  # (t, 3) int64 vertex indices

    def __post_init__(self):
        self.vertices = _as_points(self.vertices)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise InputError("triangles must be (t, 3) index triples")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise InputError("triangle vertex index out of range")

    def areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


@dataclass
class Dataset:
    """Quantized clouds sharing one bin count, with optional conditions."""

    clouds: list[QuantizedPointCloud]
    conditions: np.ndarray | None = None  # (k, d) float64, row per cloud

    def __post_init__(self):
        if self.clouds:
            b = self.clouds[0].bin_count
            if any(c.bin_count != b for c in self.clouds):
                raise InputError("all clouds in a dataset must share bin_count")
        if self.conditions is not None:
            self.conditions = np.asarray(self.conditions, dtype=np.float64)
            if len(self.conditions) != len(self.clouds):
                raise InputError("one condition vector per cloud required")

    @property
    def bin_count(self) -> int:
        return self.clouds[0].bin_count


# ---------------------------------------------------------------------------
# geometry ops


def normalize_unit_cube(points) -> np.ndarray:
    """Uniformly scale into [0,1]^3, centering the minor axes.

    The scale factor is 1/E with E the largest axis extent, so aspect
    ratio is preserved. A degenerate cloud (E = 0) maps to (.5, .5, .5).
    """
    pts = _as_points(points)
    if len(pts) < 1:
        raise InputError("normalize_unit_cube: empty cloud")
    if not np.all(np.isfinite(pts)):
        raise InputError("normalize_unit_cube: non-finite coordinates")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = hi - lo
    e = extent.max()
    if e == 0.0:
        return np.full_like(pts, 0.5)
    scaled = (pts - lo) / e
    return scaled + (1.0 - extent / e) / 2.0


def sort_zyx(points) -> np.ndarray:
    """Sort rows ascending lexicographically by (z, y, x); stable."""
    pts = np.asarray(points)
    if len(pts) == 0:
        return pts.copy()
    order = np.lexsort((pts[:, 0], pts[:, 1], pts[:, 2]))
    return pts[order]


def quantize(points, bin_count: int) -> QuantizedPointCloud:
    """Bin each coordinate in [0,1] to floor(c*B) clamped to B-1, then sort."""
    pts = _as_points(points)
    if bin_count < 2:
        raise InputError("quantize: bin_count must be >= 2")
    if pts.size and (pts.min() < -1e-9 or pts.max() > 1.0 + 1e-9):
        raise InputError("quantize: coordinates must lie in [0, 1]")
    clipped = np.clip(pts, 0.0, 1.0)
    bins = np.minimum(np.floor(clipped * bin_count), bin_count - 1).astype(np.int64)
    return QuantizedPointCloud(sort_zyx(bins), bin_count)


def dequantize(cloud: QuantizedPointCloud) -> np.ndarray:
    """Map bin indices to bin centers (k + 0.5) / B."""
    return (cloud.bins.astype(np.float64) + 0.5) / cloud.bin_count


def farthest_point_sampling(points, k: int) -> np.ndarray:
    """Greedy max-min subsample of k points.

    The seed point is the (z, y, x)-lexicographic minimum; all ties break
    to the lowest original index, making the selection deterministic.
    """
    pts = _as_points(points)
    n = len(pts)
    if k > n:
        raise InputError(f"farthest_point_sampling: k={k} exceeds n={n}")
    if k < 1:
        raise InputError("farthest_point_sampling: k must be >= 1")
    start = int(np.lexsort((pts[:, 0], pts[:, 1], pts[:, 2]))[0])
    chosen = [start]
    dist = np.linalg.norm(pts - pts[start], axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))  # argmax takes the first max: lowest index ties
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(pts - pts[nxt], axis=1))
    return pts[chosen]


def sample_mesh_surface(mesh: TriangleMesh, m: int, seed: int) -> np.ndarray:
    """Draw m area-weighted, barycentric-uniform surface points (seeded)."""
    areas = mesh.areas()
    total = areas.sum()
    if total <= 0.0:
        raise InputError("sample_mesh_surface: mesh has zero total area")
    rng = np.random.default_rng(seed)
    tri_idx = rng.choice(len(areas), size=m, p=areas / total)
    r1 = np.sqrt(rng.random(m))
    r2 = rng.random(m)
    a = mesh.vertices[mesh.triangles[tri_idx, 0]]
    b = mesh.vertices[mesh.triangles[tri_idx, 1]]
    c = mesh.vertices[mesh.triangles[tri_idx, 2]]
    return (1.0 - r1)[:, None] * a + (r1 * (1.0 - r2))[:, None] * b + (r1 * r2)[:, None] * c


# ---------------------------------------------------------------------------
# file formats


def load_xyz(path) -> np.ndarray:
    """Read an XYZ text file: one 'x y z' line per point."""
    pts = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) != 3:
                    raise ParseError(f"expected 3 fields, got {len(fields)}", path, lineno)
                try:
                    pts.append([float(v) for v in fields])
                except ValueError:
                    raise ParseError(f"bad number in {fields!r}", path=path, line=lineno)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    if not pts:
        raise ParseError("file contains no points", path=path, line=0)
    return np.asarray(pts, dtype=np.float64)


def save_xyz(points, path) -> None:
    _write_points(path, "", _as_points(points))


def save_ply(points, path) -> None:
    """Write an ASCII PLY vertex cloud."""
    pts = _as_points(points)
    header = (f"ply\nformat ascii 1.0\nelement vertex {len(pts)}\n"
              "property float x\nproperty float y\nproperty float z\nend_header\n")
    _write_points(path, header, pts)


def _write_points(path, header: str, pts: np.ndarray) -> None:
    """The header, then one 'x y z' line per point."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for x, y, z in pts:
            fh.write(f"{x:.10f} {y:.10f} {z:.10f}\n")


def load_obj(path) -> TriangleMesh:
    """Minimal Wavefront OBJ reader: 'v' and triangular 'f' records only."""
    vertices = []
    triangles = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields or fields[0].startswith("#"):
                    continue
                if fields[0] == "v":
                    if len(fields) < 4:
                        raise ParseError("vertex needs 3 coordinates", path=path, line=lineno)
                    try:
                        vertices.append([float(v) for v in fields[1:4]])
                    except ValueError:
                        raise ParseError("bad vertex coordinate", path=path, line=lineno)
                elif fields[0] == "f":
                    if len(fields) != 4:
                        raise ParseError(
                            "only triangular faces are supported", path=path, line=lineno
                        )
                    try:
                        tri = [int(v.split("/")[0]) - 1 for v in fields[1:4]]
                    except ValueError:
                        raise ParseError("bad face index", path=path, line=lineno)
                    triangles.append(tri)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from exc
    if not vertices or not triangles:
        raise ParseError("OBJ file has no triangles", path=path, line=0)
    return TriangleMesh(np.asarray(vertices), np.asarray(triangles))
