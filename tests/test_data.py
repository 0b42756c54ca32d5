import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pointgen import data as pcd
from pointgen.errors import InputError, ParseError


# ---------------------------------------------------------------------------
# normalization


def test_normalize_hand_example():
    out = pcd.normalize_unit_cube([(0, 0, 0), (2, 1, 1)])
    assert np.allclose(out, [(0, 0.25, 0.25), (1, 0.75, 0.75)], atol=1e-12)


def test_normalize_single_point():
    out = pcd.normalize_unit_cube([(123.0, -4.0, 9.0)])
    assert np.allclose(out, [(0.5, 0.5, 0.5)])


def test_normalize_fixed_point():
    pts = np.array([(0, 0, 0), (1, 1, 1), (0.25, 0.75, 0.5)])
    assert np.allclose(pcd.normalize_unit_cube(pts), pts, atol=1e-12)


def test_normalize_range_and_distance_ratios():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3)) * 17.0 + 5.0
    out = pcd.normalize_unit_cube(pts)
    assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12
    d_in = np.linalg.norm(pts[0] - pts[1:], axis=1)
    d_out = np.linalg.norm(out[0] - out[1:], axis=1)
    ratio = d_out / d_in
    assert np.all(np.abs(ratio - ratio[0]) < 1e-9)


def test_normalize_empty_cloud_rejected():
    with pytest.raises(InputError):
        pcd.normalize_unit_cube(np.empty((0, 3)))


# ---------------------------------------------------------------------------
# quantization


def test_quantize_bin_values():
    q = pcd.quantize([(0.5, 0.0, 1.0)], 200)
    assert tuple(q.bins[0]) == (100, 0, 199)


def test_quantize_near_one():
    q = pcd.quantize([(0.9999, 0.9999, 0.9999)], 200)
    assert tuple(q.bins[0]) == (199, 199, 199)


def test_quantize_out_of_range_rejected():
    with pytest.raises(InputError):
        pcd.quantize([(1.5, 0, 0)], 200)
    with pytest.raises(InputError):
        pcd.quantize([(-0.1, 0, 0)], 200)


def test_dequantize_centers():
    q = pcd.QuantizedPointCloud(np.array([[0, 100, 199]]), 200)
    assert np.allclose(pcd.dequantize(q), [[0.0025, 0.5025, 0.9975]])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 512),
    arrays(np.int64, (6, 3), elements=st.integers(0, 1_000_000)),
)
def test_quantize_dequantize_roundtrip(bins, raw):
    idx = raw % bins
    q = pcd.QuantizedPointCloud(pcd.sort_zyx(idx), bins)
    back = pcd.quantize(pcd.dequantize(q), bins)
    assert np.array_equal(back.bins, q.bins)


# ---------------------------------------------------------------------------
# ordering


def test_sort_zyx_example():
    pts = np.array([(2, 1, 3), (9, 9, 1), (5, 2, 1)])  # columns (x, y, z)
    out = pcd.sort_zyx(pts)
    assert np.array_equal(out, [(5, 2, 1), (9, 9, 1), (2, 1, 3)])


@settings(max_examples=40, deadline=None)
@given(arrays(np.int64, (8, 3), elements=st.integers(0, 5)))
def test_sort_zyx_idempotent_permutation(pts):
    once = pcd.sort_zyx(pts)
    assert np.array_equal(pcd.sort_zyx(once), once)
    # permutation of the input multiset
    assert sorted(map(tuple, once)) == sorted(map(tuple, pts))
    keys = [tuple(row[::-1]) for row in once]
    assert keys == sorted(keys)


def is_sorted_zyx_loop(bins):
    """Oracle: compare each pair of neighbouring (z, y, x) tuples."""
    keys = bins[:, ::-1]
    return all(tuple(keys[i]) <= tuple(keys[i + 1]) for i in range(len(keys) - 1))


@settings(max_examples=200, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(0, 6), st.just(3)), elements=st.integers(0, 2)))
def test_is_sorted_zyx_matches_tuple_loop(bins):
    # values in 0..2 make equal keys common; the sorted copy makes True common
    for candidate in (bins, pcd.sort_zyx(bins)):
        cloud = pcd.QuantizedPointCloud(candidate, 3)
        assert cloud.is_sorted_zyx() == is_sorted_zyx_loop(candidate)


# ---------------------------------------------------------------------------
# farthest point sampling


def test_fps_whole_cloud():
    rng = np.random.default_rng(1)
    pts = rng.random((7, 3))
    out = pcd.farthest_point_sampling(pts, 7)
    assert sorted(map(tuple, out)) == sorted(map(tuple, pts))


def test_fps_square_corners():
    corners = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    pts = np.array(corners + [(0.5, 0.5, 0.0)])
    out = pcd.farthest_point_sampling(pts, 4)
    assert sorted(map(tuple, out)) == sorted(corners)
    # brute force: the 4 corners maximize the min pairwise distance
    def min_pairwise(sub):
        return min(
            np.linalg.norm(np.subtract(a, b)) for a, b in itertools.combinations(sub, 2)
        )
    best = max(itertools.combinations(map(tuple, pts), 4), key=min_pairwise)
    assert sorted(best) == sorted(corners)


def test_fps_k1_is_lexicographic_minimum():
    pts = np.array([(0.9, 0.2, 0.3), (0.1, 0.9, 0.1), (0.5, 0.5, 0.1)])
    out = pcd.farthest_point_sampling(pts, 1)
    assert tuple(out[0]) == (0.5, 0.5, 0.1)  # smallest (z, y, x)


def test_fps_matches_greedy_oracle():
    rng = np.random.default_rng(2)
    for n in (5, 9, 12):
        pts = rng.random((n, 3))
        k = n // 2 + 1
        got = pcd.farthest_point_sampling(pts, k)
        # naive greedy from the same seed point
        start = min(range(n), key=lambda i: (pts[i, 2], pts[i, 1], pts[i, 0], i))
        chosen = [start]
        for _ in range(k - 1):
            best, best_d = None, -1.0
            for i in range(n):
                d = min(np.linalg.norm(pts[i] - pts[c]) for c in chosen)
                if d > best_d:
                    best, best_d = i, d
            chosen.append(best)
        assert np.array_equal(got, pts[chosen])


def test_fps_k_too_large():
    with pytest.raises(InputError):
        pcd.farthest_point_sampling(np.random.default_rng(0).random((3, 3)), 4)


# ---------------------------------------------------------------------------
# mesh sampling


def _square_mesh():
    vertices = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    return pcd.TriangleMesh(np.array(vertices, float), np.array([[0, 1, 2], [0, 2, 3]]))


def test_mesh_sample_containment():
    mesh = pcd.TriangleMesh(
        np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], float), np.array([[0, 1, 2]])
    )
    pts = pcd.sample_mesh_surface(mesh, 500, seed=3)
    assert np.all(pts[:, 2] == 0)
    assert np.all(pts[:, 0] >= -1e-12) and np.all(pts[:, 1] >= -1e-12)
    assert np.all(pts[:, 0] + pts[:, 1] <= 1 + 1e-12)


def test_mesh_sample_area_weighting():
    # two triangles with a 9:1 area ratio
    vertices = np.array(
        [(0, 0, 0), (3, 0, 0), (0, 6, 0), (4, 0, 0), (5, 0, 0), (4, 2, 0)], float
    )
    mesh = pcd.TriangleMesh(vertices, np.array([[0, 1, 2], [3, 4, 5]]))
    areas = mesh.areas()
    assert np.allclose(sorted(areas), [1.0, 9.0])
    pts = pcd.sample_mesh_surface(mesh, 10000, seed=4)
    in_big = np.sum(pts[:, 0] <= 3.0 + 1e-9)  # big triangle spans x in [0, 3]
    sigma = np.sqrt(10000 * 0.9 * 0.1)
    assert abs(in_big - 9000) <= 3 * sigma


def test_mesh_sample_deterministic():
    mesh = _square_mesh()
    a = pcd.sample_mesh_surface(mesh, 100, seed=5)
    b = pcd.sample_mesh_surface(mesh, 100, seed=5)
    assert np.array_equal(a, b)


def test_mesh_zero_area_rejected():
    degenerate = pcd.TriangleMesh(
        np.array([(0, 0, 0), (1, 1, 1), (2, 2, 2)], float), np.array([[0, 1, 2]])
    )
    with pytest.raises(InputError):
        pcd.sample_mesh_surface(degenerate, 10, seed=0)


# ---------------------------------------------------------------------------
# file formats


def test_xyz_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    pts = rng.random((20, 3)) * 4 - 2
    path = tmp_path / "cloud.xyz"
    pcd.save_xyz(pts, path)
    back = pcd.load_xyz(path)
    assert np.allclose(back, pts, atol=1e-9)


def test_xyz_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("")
    with pytest.raises(ParseError):
        pcd.load_xyz(path)


def test_xyz_bad_line_reports_number(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(ParseError) as err:
        pcd.load_xyz(path)
    assert err.value.line == 2


def test_ply_header(tmp_path):
    path = tmp_path / "cloud.ply"
    pcd.save_ply(np.zeros((3, 3)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert lines[2] == "element vertex 3"
    assert lines[3:6] == ["property float x", "property float y", "property float z"]
    assert lines[6] == "end_header"
    assert len(lines) == 10


def test_obj_loader(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = pcd.load_obj(path)
    assert mesh.vertices.shape == (3, 3)
    assert np.array_equal(mesh.triangles, [[0, 1, 2]])


def test_obj_rejects_quads(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ParseError):
        pcd.load_obj(path)
