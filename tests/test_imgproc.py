import itertools
import struct
import warnings

import numpy as np
import pytest
from scipy import ndimage

from cablerecon import imgproc
from cablerecon.errors import EmptyInputError, InsufficientDepthError
from cablerecon.geom import Pose, rotation_about_axis
from cablerecon.imgproc import (
    CameraIntrinsics,
    ImageGrid,
    blur_and_clean,
    cluster_pixels,
    pixels_to_cloud,
    rgb_to_lab,
    save_depth,
    save_pgm,
    save_ppm,
    skeletonize,
)


def grid(mask):
    return ImageGrid(np.asarray(mask, dtype=bool))


def color_like(mask, rgb=(120, 120, 120)):
    data = np.zeros((*np.asarray(mask).shape, 3))
    data[...] = rgb
    return ImageGrid(data)


def components_8(mask):
    _, n = ndimage.label(mask, structure=np.ones((3, 3)))
    return n


class TestBlurAndClean:
    def test_empty_mask_fixed_point(self):
        mask = np.zeros((12, 12), dtype=bool)
        out = blur_and_clean(grid(mask))
        assert not out.data.any()

    def test_solid_square_loses_one_pixel_border(self):
        mask = np.zeros((14, 14), dtype=bool)
        mask[2:12, 2:12] = True
        out = blur_and_clean(grid(mask))
        expected = np.zeros_like(mask)
        expected[3:11, 3:11] = True
        assert np.array_equal(out.data, expected)

    def test_isolated_speck_removed(self):
        # blur leaves the speck at 1/9 < 0.5, so thresholding erases it
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        out = blur_and_clean(grid(mask))
        assert not out.data.any()


def brute_force_clusters(features, min_cluster_size, cut_threshold):
    """Kruskal MST over explicit mutual-reachability edges, then cut."""
    n = len(features)
    if n == 1:
        core = np.zeros(1)
    else:
        dists = np.linalg.norm(features[:, None] - features[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        k_eff = min(min_cluster_size, n - 1)
        core = np.sort(dists, axis=1)[:, k_eff - 1]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(features[i] - features[j])
            edges.append((max(core[i], core[j], d), i, j))
    edges.sort()
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    taken = 0
    for w, i, j in edges:
        if find(i) != find(j):
            if w <= cut_threshold:
                parent[find(i)] = find(j)
            taken += 1
            if taken == n - 1:
                break
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    kept = [g for g in groups.values() if len(g) >= min_cluster_size]
    return sorted(frozenset(g) for g in kept)


def cluster_with(mask_img, color_img, min_cluster_size, cut_threshold=imgproc.CUT_THRESHOLD):
    """cluster_pixels with the module's core size and cut set to these for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imgproc, "MIN_CLUSTER_SIZE", min_cluster_size)
        mp.setattr(imgproc, "CUT_THRESHOLD", cut_threshold)
        return cluster_pixels(mask_img, color_img)


def clustered(out):
    """Every (row, col) that lies in some cluster of `out`."""
    return {(int(r), int(c)) for cluster in out.clusters for r, c in cluster.pixels}


def foreground(mask):
    return {(int(r), int(c)) for r, c in np.argwhere(mask)}


class TestClusterPixels:
    def test_single_uniform_blob_is_one_cluster(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[10:20, 5:25] = True
        out = cluster_with(grid(mask), color_like(mask), 10)
        assert len(out.clusters) == 1
        assert clustered(out) == foreground(mask)

    def test_two_colors_two_clusters(self):
        mask = np.zeros((40, 40), dtype=bool)
        mask[5:12, 5:35] = True
        mask[28:35, 5:35] = True
        color = np.zeros((40, 40, 3))
        color[5:12] = (25, 25, 28)     # black cable
        color[28:35] = (40, 80, 200)   # blue cable
        out = cluster_with(grid(mask), ImageGrid(color), 10)
        assert len(out.clusters) == 2
        # sorted by mean color: black first
        assert out.clusters[0].mean_color[2] < out.clusters[1].mean_color[2]
        # row-major pixels, so a thinned subset of them keeps argwhere's order
        for cluster in out.clusters:
            mask_pixels = np.argwhere(cluster.as_mask(40, 40).data)
            assert np.array_equal(cluster.pixels, mask_pixels)

    def test_sparse_specks_are_noise(self):
        mask = np.zeros((50, 50), dtype=bool)
        for r, c in [(5, 5), (25, 40), (45, 10)]:
            mask[r, c] = True
        out = cluster_with(grid(mask), color_like(mask), 10)
        assert len(out.clusters) == 0
        assert not clustered(out) & foreground(mask)

    def test_empty_mask_raises(self):
        mask = np.zeros((8, 8), dtype=bool)
        with pytest.raises(EmptyInputError):
            cluster_pixels(grid(mask), color_like(mask))

    def test_clusters_disjoint_and_within_foreground(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[2:8, 2:28] = True
        mask[20:26, 2:28] = True
        out = cluster_with(grid(mask), color_like(mask), 5)
        seen = set()
        for cluster in out.clusters:
            for r, c in cluster.pixels:
                assert mask[r, c]
                assert (r, c) not in seen
                seen.add((r, c))

    def test_matches_brute_force_on_small_inputs(self):
        # generic positions (no ties) so the MST is unique
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 40, size=(8, 2))
        min_size, cut = 2, 12.0
        for size in range(2, 9):
            for subset in itertools.combinations(range(8), size):
                pix = np.round(base[list(subset)]).astype(int)
                if len(np.unique(pix, axis=0)) != len(pix):
                    continue
                mask = np.zeros((45, 45), dtype=bool)
                mask[pix[:, 0], pix[:, 1]] = True
                got, expected, _ = self.clusters_and_oracle(
                    mask, color_like(mask).data, min_size, cut
                )
                assert got == expected

    @staticmethod
    def clusters_and_oracle(mask, color, min_cluster_size, cut_threshold):
        """cluster_pixels' clusters and the brute-force MST cut's, as index sets."""
        out = cluster_with(grid(mask), ImageGrid(color), min_cluster_size, cut_threshold)
        rows, cols = np.nonzero(mask)
        feats = np.column_stack([0.5 * rows, 0.5 * cols, rgb_to_lab(color[rows, cols])])
        index_of = {(r, c): i for i, (r, c) in enumerate(zip(rows, cols))}
        got = sorted(
            frozenset(index_of[(r, c)] for r, c in cluster.pixels)
            for cluster in out.clusters
        )
        return got, brute_force_clusters(feats, min_cluster_size, cut_threshold), out

    def test_gapped_bar_fragments_rejoin_like_brute_force(self):
        # Three 3-row segments of one colour split by 3- and 4-column gaps:
        # every pixel's 11 nearest neighbours lie in its own segment, so the
        # kNN graph holds three fragments that only the join step can link.
        # Two specks far below have no dense neighbourhood and stay noise.
        mask = np.zeros((60, 60), dtype=bool)
        mask[2:5, 0:16] = mask[2:5, 19:35] = mask[2:5, 39:55] = True
        mask[58, 2] = mask[58, 50] = True
        color = np.full((60, 60, 3), 120.0)
        for cut, n_clusters in [(12.0, 1), (2.0, 2), (1.9, 3)]:
            got, expected, out = self.clusters_and_oracle(mask, color, 10, cut)
            assert got == expected
            assert len(out.clusters) == n_clusters
            assert clustered(out) == foreground(mask) - {(58, 2), (58, 50)}

    def test_color_boundary_at_the_cut_matches_brute_force(self):
        # Two touching bars of two colours about 15 LAB units apart. The
        # closest cross-colour pairs, one row apart, lie at hypot(0.5, that
        # distance) in feature space; cuts just under and over it split and join.
        mask = np.ones((6, 20), dtype=bool)
        color = np.zeros((6, 20, 3))
        color[:3] = (120, 120, 120)
        color[3:] = (120, 120, 145)
        lab = rgb_to_lab(np.array([(120, 120, 120), (120, 120, 145)], dtype=float))
        cross = float(np.linalg.norm([0.5, 0, *(lab[0] - lab[1])]))
        assert 5.0 < cross < 20.0
        for cut, n_clusters in [(cross * (1 - 1e-6), 2), (cross * (1 + 1e-6), 1)]:
            got, expected, out = self.clusters_and_oracle(mask, color, 5, cut)
            assert got == expected
            assert len(out.clusters) == n_clusters

    def test_fewer_pixels_than_min_cluster_size(self):
        color = np.full((10, 10, 3), 120.0)
        for pixels in ([(4, 4)], [(1, 1), (1, 2)], [(0, 0), (3, 3), (6, 6), (9, 9), (0, 9)]):
            mask = np.zeros((10, 10), dtype=bool)
            mask[tuple(np.array(pixels).T)] = True
            for min_size in (1, len(pixels), 10):
                got, expected, out = self.clusters_and_oracle(mask, color, min_size, 12.0)
                assert got == expected
                if min_size > len(pixels):
                    assert out.clusters == [] and not clustered(out) & foreground(mask)

    def test_cut_is_inclusive_at_the_threshold(self):
        # Same-colour bars on one row, 12 columns apart at their closest:
        # a feature distance of exactly 6.0 at spatial weight 0.5.
        mask = np.zeros((3, 51), dtype=bool)
        mask[1, 0:20] = mask[1, 31:51] = True
        color = np.full((3, 51, 3), 120.0)
        for cut, n_clusters in [(6.0, 1), (5.999, 2)]:
            got, expected, out = self.clusters_and_oracle(mask, color, 5, cut)
            assert got == expected
            assert len(out.clusters) == n_clusters


class TestSkeletonize:
    def test_empty_image(self):
        out = skeletonize(grid(np.zeros((10, 10))))
        assert not out.data.any()

    def test_horizontal_bar_thins_to_line(self):
        mask = np.zeros((9, 26), dtype=bool)
        mask[3:6, 3:23] = True
        out = skeletonize(grid(mask)).data
        rows = np.unique(np.nonzero(out)[0])
        assert len(rows) == 1
        # the two-subiteration thinning shortens each end slightly; 17 is
        # the frozen output of the literal reference loop on this bar
        assert out.sum() == 17
        assert components_8(out) == 1

    def test_matches_literal_reference_loop(self, rng):
        for _ in range(3):
            mask = _random_strokes(rng, 30, 30, n_strokes=2)
            mine = skeletonize(grid(mask)).data
            assert np.array_equal(mine, _reference_thinning(mask))

    def test_cross_keeps_single_component(self):
        mask = np.zeros((21, 21), dtype=bool)
        mask[9:12, 2:19] = True
        mask[2:19, 9:12] = True
        out = skeletonize(grid(mask)).data
        assert components_8(out) == 1
        # four branches survive: pixels beyond the center in each arm
        assert out[:, :8].any() and out[:, 13:].any()
        assert out[:8, :].any() and out[13:, :].any()

    def test_idempotent(self, rng):
        mask = _random_strokes(rng, 40, 40)
        once = skeletonize(grid(mask)).data
        twice = skeletonize(ImageGrid(once)).data
        assert np.array_equal(once, twice)

    def test_preserves_component_count(self, rng):
        for _ in range(5):
            mask = _random_strokes(rng, 48, 48)
            out = skeletonize(grid(mask)).data
            assert components_8(out) == components_8(mask)


def _reference_thinning(img):
    """Literal per-pixel two-subiteration thinning, the slow oracle."""
    img = np.asarray(img, dtype=np.uint8).copy()
    changed = True
    while changed:
        changed = False
        for step in (0, 1):
            pad = np.pad(img, 1)
            to_del = []
            for r in range(1, pad.shape[0] - 1):
                for c in range(1, pad.shape[1] - 1):
                    if pad[r, c] == 0:
                        continue
                    nb = [
                        pad[r - 1, c], pad[r - 1, c + 1], pad[r, c + 1],
                        pad[r + 1, c + 1], pad[r + 1, c], pad[r + 1, c - 1],
                        pad[r, c - 1], pad[r - 1, c - 1],
                    ]
                    b = sum(nb)
                    a = sum(
                        1 for i in range(8) if nb[i] == 0 and nb[(i + 1) % 8] == 1
                    )
                    if not (2 <= b <= 6 and a == 1):
                        continue
                    if step == 0:
                        ok = nb[0] * nb[2] * nb[4] == 0 and nb[2] * nb[4] * nb[6] == 0
                    else:
                        ok = nb[0] * nb[2] * nb[6] == 0 and nb[0] * nb[4] * nb[6] == 0
                    if ok:
                        to_del.append((r - 1, c - 1))
            for r, c in to_del:
                img[r, c] = 0
                changed = True
    return img.astype(bool)


def _random_strokes(rng, h, w, n_strokes=3, width=2):
    """Blobby multi-stroke test images, the shapes this pipeline sees."""
    mask = np.zeros((h, w), dtype=bool)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(n_strokes):
        x = rng.uniform(5, w - 5)
        y = rng.uniform(5, h - 5)
        heading = rng.uniform(0, 2 * np.pi)
        for _ in range(rng.integers(8, 20)):
            mask |= (yy - y) ** 2 + (xx - x) ** 2 <= width**2
            heading += rng.uniform(-0.5, 0.5)
            x = np.clip(x + 2.0 * np.cos(heading), 3, w - 3)
            y = np.clip(y + 2.0 * np.sin(heading), 3, h - 3)
    return mask


@pytest.fixture
def camera():
    pose = Pose(np.eye(3), np.zeros(3))
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, pose=pose)


class TestPixelsToCloud:
    def test_principal_point(self, camera):
        depth = ImageGrid(np.full((480, 640), 1.0))
        out = pixels_to_cloud(np.array([[240, 320]]), depth, camera)
        assert np.allclose(out, [[0, 0, 1.0]])

    def test_unit_tangent(self, camera):
        depth = ImageGrid(np.full((480, 1000), 2.0))
        out = pixels_to_cloud(np.array([[240, 820]]), depth, camera)
        assert np.allclose(out, [[2.0, 0, 2.0]])

    def test_insufficient_depth_raises(self, camera):
        depth = np.zeros((480, 640))
        depth[0, 0] = 1.0
        pixels = np.array([[0, 0], [1, 1], [2, 2]])
        with pytest.raises(InsufficientDepthError):
            pixels_to_cloud(pixels, ImageGrid(depth), camera)

    def test_reprojection_roundtrip(self, camera, rng):
        pixels = np.column_stack(
            [rng.integers(0, 480, 50), rng.integers(0, 640, 50)]
        )
        depth = ImageGrid(rng.uniform(0.5, 2.0, (480, 640)))
        cloud = pixels_to_cloud(pixels, depth, camera)
        cam = (cloud - camera.pose.translation) @ camera.pose.rotation
        back = np.column_stack(
            [
                camera.fy * cam[:, 1] / cam[:, 2] + camera.cy,
                camera.fx * cam[:, 0] / cam[:, 2] + camera.cx,
            ]
        )
        assert np.abs(back - pixels).max() < 0.5


@pytest.fixture
def tilted_camera():
    """Looks 20 degrees off straight down; its x axis is base x, so a point
    offset from it along base x lies on the camera plane exactly."""
    pose = Pose(rotation_about_axis(np.array([1.0, 0, 0]), 160.0), np.array([0.1, -0.2, 0.7]))
    return CameraIntrinsics(fx=610.0, fy=590.0, cx=322.5, cy=238.25, pose=pose)


class TestCameraModel:
    def test_project_inverts_the_ray_scaled_by_depth(self, tilted_camera, rng):
        rows, cols = rng.integers(1, 480, 200), rng.integers(1, 640, 200)
        z = rng.uniform(0.2, 3.0, 200)
        points = tilted_camera.pose.transform(tilted_camera.ray(rows, cols) * z[:, None])
        for got, want in zip(tilted_camera.project(points), (rows, cols, z)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_points_behind_and_on_the_camera_plane_project_without_a_warning(
        self, tilted_camera
    ):
        pose = tilted_camera.pose
        behind = pose.transform(np.array([0.05, -0.1, -0.4]))
        on_plane = pose.translation + [[0.3, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, z = tilted_camera.project(np.vstack([behind, on_plane]))
        assert z[0] < 0
        assert (z[1:] == 0).all()

    def test_ray_over_a_grid_equals_per_pixel_calls(self, tilted_camera):
        rows, cols = np.arange(7, 19), np.arange(300, 331)
        grid = tilted_camera.ray(rows[:, None], cols)
        assert grid.shape == (len(rows), len(cols), 3)
        for (i, r), (j, c) in itertools.product(enumerate(rows), enumerate(cols)):
            assert np.array_equal(grid[i, j], tilted_camera.ray(r, c))


class TestColorConversion:
    def test_black_and_white_lightness(self):
        lab = rgb_to_lab(np.array([[0.0, 0, 0], [255.0, 255, 255]]))
        assert abs(lab[0, 0]) < 1e-6
        assert abs(lab[1, 0] - 100.0) < 1e-3


class TestImageIO:
    """The writers' bytes: a header, then the row-major payload."""

    def test_pgm_roundtrip(self, tmp_path, rng):
        mask = rng.random((20, 30)) > 0.5
        save_pgm(tmp_path / "m.pgm", ImageGrid(mask))
        raw = (tmp_path / "m.pgm").read_bytes()
        header = b"P5\n30 20\n255\n"
        assert raw.startswith(header)
        data = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(20, 30)
        assert np.array_equal(data, np.where(mask, 255, 0))

    def test_ppm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, (15, 10, 3))
        save_ppm(tmp_path / "c.ppm", ImageGrid(img))
        raw = (tmp_path / "c.ppm").read_bytes()
        header = b"P6\n10 15\n255\n"
        assert raw.startswith(header)
        data = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(15, 10, 3)
        assert np.array_equal(data, img)

    def test_depth_roundtrip(self, tmp_path, rng):
        depth = rng.uniform(0, 3, (12, 18)).astype(np.float32)
        save_depth(tmp_path / "d.f32", ImageGrid(depth))
        raw = (tmp_path / "d.f32").read_bytes()
        assert raw[:16] == b"DPTHF32\x00" + struct.pack("<II", 18, 12)
        data = np.frombuffer(raw[16:], dtype="<f4").reshape(12, 18)
        assert np.array_equal(data, depth)
