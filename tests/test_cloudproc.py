import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cablerecon import cloudproc
from cablerecon.cloudproc import (
    PlaneModel,
    as_cloud,
    load_ply,
    merge_close_points,
    project_to_plane,
    ransac_plane,
    save_ply,
    voxel_downsample,
)
from cablerecon.errors import DegenerateGeometryError
from cablerecon.geom import Pose
from cablerecon.imgproc import CameraIntrinsics, ImageGrid, pixels_to_cloud

clouds = st.lists(
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
).map(np.array)

CAMERA = np.array([0.0, 0.0, 2.0])  # the viewpoint every fit orients its normal toward


class TestRansacPlane:
    def test_exact_horizontal_plane(self, rng):
        pts = np.column_stack(
            [rng.uniform(-1, 1, 100), rng.uniform(-1, 1, 100), np.ones(100)]
        )
        plane = ransac_plane(pts, CAMERA, seed=3)
        assert abs(abs(plane.normal[2]) - 1.0) < 1e-9
        assert abs(abs(plane.offset) - 1.0) < 1e-9
        assert plane.inlier_count == 100

    def test_recovers_plane_under_outliers(self, rng, monkeypatch):
        n_in, n_out = 400, 100
        inliers = np.column_stack(
            [rng.uniform(-1, 1, n_in), rng.uniform(-1, 1, n_in), np.zeros(n_in)]
        )
        outliers = rng.uniform(-0.5, 0.5, (n_out, 3))
        cloud = np.vstack([inliers, outliers])
        monkeypatch.setattr(cloudproc, "RANSAC_INLIER_TOL", 0.002)
        plane = ransac_plane(cloud, CAMERA, seed=11)
        angle = np.degrees(np.arccos(min(1.0, abs(plane.normal[2]))))
        assert angle < 1.0

    def test_three_points_exact(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        plane = ransac_plane(pts, CAMERA, seed=0)
        assert plane.inlier_count == 3
        assert np.max(np.abs(plane.signed_distance(pts))) < 1e-12

    def test_collinear_rejected(self):
        pts = np.array([[float(i), 2.0 * i, 0.0] for i in range(10)])
        with pytest.raises(DegenerateGeometryError):
            ransac_plane(pts, CAMERA, seed=0)

    def test_seeded_reproducibility(self, rng):
        cloud = rng.normal(size=(200, 3))
        a = ransac_plane(cloud, CAMERA, seed=42)
        b = ransac_plane(cloud, CAMERA, seed=42)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.inlier_count == b.inlier_count

    def test_fit_error_vanishes_on_exact_plane_points(self, rng):
        plane = ransac_plane(_exact_plane(rng), CAMERA, seed=3)
        assert plane.fit_error <= 1e-12
        assert PlaneModel(plane.coefficients).fit_error == 0.0  # not fitted

    def test_fit_error_is_the_largest_inlier_residual(self, rng):
        # 0.5 mm of noise on the plane; outliers at least 5 cm off it are no inliers
        on_plane = _tilted_plane_points(rng, 300)
        tilted = PlaneModel(np.array([0.26, -0.1, 0.96, -0.3]))
        noisy = on_plane + rng.uniform(-5e-4, 5e-4, (300, 1)) * tilted.normal
        away = rng.choice([-1.0, 1.0], (60, 1)) * rng.uniform(0.05, 0.2, (60, 1))
        outliers = _tilted_plane_points(rng, 60) + away * tilted.normal
        plane = ransac_plane(np.vstack([noisy, outliers]), CAMERA, seed=5)
        assert plane.inlier_count == 300
        residual = np.abs(plane.signed_distance(noisy)).max()
        assert 1e-4 < plane.fit_error == residual

    def test_normal_points_toward_reference(self, rng):
        pts = np.column_stack(
            [rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50), np.zeros(50)]
        )
        for camera in (CAMERA, -CAMERA):
            plane = ransac_plane(pts, camera, seed=1)
            assert plane.signed_distance(camera)[0] > 0


def _full_loop_ransac(cloud, inlier_tol, max_iters, seed, orient_toward):
    """Reference: the plane fit scoring all `max_iters` hypotheses."""
    pts = as_cloud(cloud)
    rng = np.random.default_rng(seed)
    best = None
    for it in range(max_iters):
        idx = rng.choice(len(pts), size=3, replace=False)
        coeffs = cloudproc._plane_through(*pts[idx])
        if coeffs is None:
            continue
        dist = np.abs(pts @ coeffs[:3] + coeffs[3])
        count = int(np.count_nonzero(dist <= inlier_tol))
        if best is None or count > best[0]:
            best = (count, it, coeffs)
    inliers = pts[np.abs(pts @ best[2][:3] + best[2][3]) <= inlier_tol]
    centroid = inliers.mean(axis=0)
    cov = np.cov((inliers - centroid).T)
    eigvals, eigvecs = np.linalg.eigh(np.atleast_2d(cov))
    normal = eigvecs[:, 0]
    coeffs = np.append(normal, -np.dot(normal, centroid))
    if np.dot(coeffs[:3], orient_toward) + coeffs[3] < 0:
        coeffs = -coeffs
    return PlaneModel(coeffs, inlier_count=int(best[0]))


def _tilted_plane_points(rng, n):
    plane = PlaneModel(np.array([0.26, -0.1, 0.96, -0.3]))
    return plane.from_plane_coords(rng.uniform(-0.2, 0.2, (n, 2)))


def _exact_plane(rng):
    return _tilted_plane_points(rng, 300)


def _plane_with_outliers(rng):
    inliers = _tilted_plane_points(rng, 210)
    return np.vstack([inliers, rng.uniform(-0.3, 0.6, (90, 3))])


def _mostly_coincident(rng):
    # 17 copies of one point: most 3-point draws are degenerate
    distinct = _tilted_plane_points(rng, 4)
    return np.vstack([np.repeat(distinct[:1], 17, axis=0), distinct[1:]])


class TestRansacEarlyStop:
    @pytest.mark.parametrize(
        "make_cloud", [_exact_plane, _plane_with_outliers, _mostly_coincident]
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_equals_the_full_loop(self, make_cloud, seed):
        cloud = make_cloud(np.random.default_rng(seed))
        for toward in (CAMERA, -CAMERA):
            got = ransac_plane(cloud, toward, seed=seed)
            want = _full_loop_ransac(cloud, cloudproc.RANSAC_INLIER_TOL, 500, seed, toward)
            assert got.coefficients.tobytes() == want.coefficients.tobytes()
            assert got.inlier_count == want.inlier_count

    def _hypotheses(self, monkeypatch, cloud):
        calls = []
        real = cloudproc._plane_through

        def counting(*points):
            coeffs = real(*points)
            calls.append(coeffs is not None)
            return coeffs

        monkeypatch.setattr(cloudproc, "_plane_through", counting)
        plane = ransac_plane(cloud, CAMERA, seed=3)
        return plane, calls

    def test_full_consensus_stops_after_one_hypothesis(self, monkeypatch, rng):
        plane, calls = self._hypotheses(monkeypatch, _exact_plane(rng))
        assert calls == [True]
        assert plane.inlier_count == 300

    def test_no_full_consensus_scores_every_hypothesis(self, monkeypatch, rng):
        plane, calls = self._hypotheses(monkeypatch, _plane_with_outliers(rng))
        assert len(calls) == cloudproc.RANSAC_MAX_ITERS
        assert 210 <= plane.inlier_count < 300

    def test_degenerate_draws_delay_the_stop(self, monkeypatch, rng):
        plane, calls = self._hypotheses(monkeypatch, _mostly_coincident(rng))
        assert 1 < len(calls) < cloudproc.RANSAC_MAX_ITERS
        assert calls[-1] and not any(calls[:-1])
        assert plane.inlier_count == 20


def _fresh_basis(n):
    """The in-plane basis as PlaneModel computed it on every call."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(n[0]) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    u = ref - np.dot(ref, n) * n
    u = u / np.linalg.norm(u)
    return u, np.cross(n, u)


class TestPlaneBasis:
    @pytest.mark.parametrize(
        "normal",
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.9, 0.43588989435406733, 0.0],  # |n0| = 0.9: stays on x ref
            [0.9000001, 0.1, 0.2],
            [-0.95, 0.2, -0.1],
            [0.26, -0.1, 0.96],
        ],
    )
    def test_cached_basis_is_bit_equal_to_a_fresh_one(self, normal):
        plane = PlaneModel(np.append(normal, 0.4))
        for got, want in zip(plane.basis(), _fresh_basis(plane.normal)):
            assert got.tobytes() == want.tobytes()

    def test_random_normals_both_sides_of_the_switch(self, rng):
        sides = set()
        for n in rng.normal(size=(400, 3)) * [3.0, 1.0, 1.0]:
            plane = PlaneModel(np.append(n, rng.normal()))
            sides.add(bool(abs(plane.normal[0]) > 0.9))
            for got, want in zip(plane.basis(), _fresh_basis(plane.normal)):
                assert got.tobytes() == want.tobytes()
        assert sides == {True, False}


class TestVoxelDownsample:
    def test_single_point_passthrough(self):
        cloud = np.array([[0.31, -0.02, 0.77]])
        assert np.allclose(voxel_downsample(cloud, 0.02), cloud)

    def test_two_points_one_voxel_centroid(self):
        cloud = np.array([[0.0, 0, 0], [0.004, 0, 0]])
        out = voxel_downsample(cloud, 0.02)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], [0.002, 0, 0])

    def test_distinct_voxels_kept(self):
        cloud = np.array([[0.0, 0, 0], [0.025, 0, 0]])
        assert len(voxel_downsample(cloud, 0.02)) == 2

    @settings(max_examples=50)
    @given(clouds)
    def test_centroids_stay_inside_their_voxel(self, cloud):
        d = 0.1
        out = voxel_downsample(cloud, d)
        assert len(out) <= len(cloud)
        bins = np.floor(out / d)
        assert np.all(out >= bins * d - 1e-12)
        assert np.all(out <= (bins + 1) * d + 1e-12)

    @pytest.mark.parametrize("d_m", [1.0e-300, 2.0**-63, 5e-324])
    def test_a_voxel_whose_bin_indices_overflow_int64_is_a_value_error(self, d_m):
        # bin 2**63 is one past int64's largest; without the check the cast
        # warns and every point lands in one voxel
        cloud = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow int64"):
                voxel_downsample(cloud, d_m)

    def test_bin_indices_at_the_ends_of_int64_are_kept(self):
        # bins -2**63 and 2**62 both fit
        cloud = np.array([[-1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        assert np.array_equal(voxel_downsample(cloud, 2.0**-63), cloud)


class TestMergeClosePoints:
    def test_close_pair_becomes_midpoint(self):
        cloud = np.array([[0.0, 0, 0], [0.005, 0, 0]])
        out = merge_close_points(cloud, 0.008)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], [0.0025, 0, 0])

    def test_far_pair_unchanged(self):
        cloud = np.array([[0.0, 0, 0], [0.009, 0, 0]])
        assert len(merge_close_points(cloud, 0.008)) == 2

    def test_collinear_chain_collapses_fully(self):
        # (0, 5mm) merge to 2.5mm, then (2.5, 10) at 7.5mm < 8mm merge again
        cloud = np.array([[0.0, 0, 0], [0.005, 0, 0], [0.010, 0, 0]])
        out = merge_close_points(cloud, 0.008)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], [0.00625, 0, 0])

    @settings(max_examples=50)
    @given(clouds)
    def test_postcondition_min_pairwise_distance(self, cloud):
        t_p = 0.5
        out = merge_close_points(cloud, t_p)
        if len(out) > 1:
            diff = out[:, None, :] - out[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= t_p - 1e-12


def merge_close_points_ref(cloud, t_p):
    """The merge as a list of rows rebuilt into an array on every pass, as it was."""
    pts = [p for p in as_cloud(cloud)]
    while len(pts) > 1:
        arr = np.array(pts)
        diff = arr[:, None, :] - arr[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        dmin = dist[i, j]
        if dmin >= t_p:
            break
        candidates = np.argwhere(np.isclose(dist, dmin, rtol=0, atol=1e-12))
        pick = min(
            (tuple(arr[min(a, b)]), tuple(arr[max(a, b)]), min(a, b), max(a, b))
            for a, b in candidates
            if a < b
        )
        a, b = pick[2], pick[3]
        pts[a] = 0.5 * (arr[a] + arr[b])
        del pts[b]
    return np.array(pts).reshape(-1, 3)


# points on a dyadic lattice: many pairs lie exactly the same distance
# apart, so the lexicographic tie-break picks which pair merges first
lattice_clouds = st.lists(
    st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=30
).map(lambda rows: np.array(rows, dtype=float) * 2.0**-3)


class TestMergeMatchesListOfRows:
    @settings(max_examples=100)
    @given(clouds, st.sampled_from([0.1, 0.5, 1.0]))
    def test_random_clouds(self, cloud, t_p):
        got = merge_close_points(cloud, t_p)
        assert got.tobytes() == merge_close_points_ref(cloud, t_p).tobytes()

    @settings(max_examples=100)
    @given(lattice_clouds, st.sampled_from([0.13, 0.2, 0.3]))
    def test_lattice_clouds_with_distance_ties(self, cloud, t_p):
        got = merge_close_points(cloud, t_p)
        assert got.tobytes() == merge_close_points_ref(cloud, t_p).tobytes()

    def test_shuffled_lattices(self, rng):
        for _ in range(40):
            cloud = rng.integers(0, 4, (int(rng.integers(2, 40)), 3)) * 2.0**-3
            cloud = cloud[rng.permutation(len(cloud))]
            got = merge_close_points(cloud, 0.3)
            assert got.tobytes() == merge_close_points_ref(cloud, 0.3).tobytes()

    def test_input_is_not_modified(self):
        cloud = np.array([[0.0, 0, 0], [0.005, 0, 0]])
        merge_close_points(cloud, 0.008)
        assert cloud.tolist() == [[0.0, 0, 0], [0.005, 0, 0]]


class TestProjectToPlane:
    plane = PlaneModel(np.array([0.0, 0, 1, -1]))  # z = 1

    def test_point_on_plane_fixed(self):
        pts = np.array([[0.3, -0.2, 1.0]])
        assert np.allclose(project_to_plane(pts, self.plane), pts)

    def test_axis_aligned_projection(self):
        z0 = PlaneModel(np.array([0.0, 0, 1, 0]))
        assert np.allclose(
            project_to_plane(np.array([[0.0, 0, 1]]), z0), [[0, 0, 0]]
        )
        assert np.allclose(
            project_to_plane(np.array([[1.0, 2, 3]]), self.plane), [[1, 2, 1]]
        )

    @settings(max_examples=50)
    @given(clouds)
    def test_idempotent_and_contractive(self, cloud):
        once = project_to_plane(cloud, self.plane)
        twice = project_to_plane(once, self.plane)
        assert np.abs(self.plane.signed_distance(once)).max() < 1e-9
        assert np.allclose(once, twice)
        if len(cloud) >= 2:
            d_before = np.linalg.norm(cloud[0] - cloud[1])
            d_after = np.linalg.norm(once[0] - once[1])
            assert d_after <= d_before + 1e-12


class TestCloudIO:
    def test_ply_roundtrip(self, tmp_path, rng):
        cloud = rng.normal(size=(17, 3))
        save_ply(tmp_path / "c.ply", cloud)
        back = load_ply(tmp_path / "c.ply")
        assert np.allclose(back, cloud, rtol=1e-8, atol=0)

    def test_ply_bytes_equal_per_point_formatting(self, tmp_path, rng):
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-5, 0.1, 1 / 3,
                123456789.5, -2.5e-10, 2.2250738585072014e-308, 1.7976931348623157e308]
        scaled = rng.normal(size=300) * 10.0 ** rng.integers(-12, 12, 300)
        cloud = np.concatenate([edge * 3, scaled])
        cloud = cloud[: len(cloud) // 3 * 3].reshape(-1, 3)
        for pts in (cloud, cloud[:1], np.zeros((0, 3))):
            lines = ["ply", "format ascii 1.0", f"element vertex {len(pts)}",
                     "property float x", "property float y", "property float z", "end_header"]
            lines += [f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}" for p in pts]
            save_ply(tmp_path / "c.ply", pts)
            assert (tmp_path / "c.ply").read_text() == "\n".join(lines) + "\n"

    def test_empty_cloud_roundtrip(self, tmp_path):
        save_ply(tmp_path / "e.ply", np.zeros((0, 3)))
        assert load_ply(tmp_path / "e.ply").shape == (0, 3)

    @pytest.mark.parametrize(
        "declared, body",
        [(5, ["1 2 3"] * 4), (3, ["1 2 3"]), (2, ["1 2 3"] * 3), (2, ["1 2 3", "1 2"]),
         (2, ["1 2 3", "1 2 3 4"]), (0, ["1 2 3"])],
        ids=["short_body", "one_of_three", "long_body", "short_row", "long_row", "zero_declared"],
    )
    def test_body_that_differs_from_the_header_is_refused(self, tmp_path, declared, body):
        path = tmp_path / "bad.ply"
        save_ply(path, np.zeros((declared, 3)))
        head = path.read_text().split("end_header\n")[0]
        path.write_text(head + "end_header\n" + "\n".join(body) + "\n")
        with pytest.raises(ValueError, match=f"bad.ply: body is not the {declared} rows"):
            load_ply(path)


# each stage of a cable's cloud, given no point, takes its general path to no point
EMPTY_INPUT_CALLS = {
    "pixels_to_cloud": lambda: pixels_to_cloud(
        [], ImageGrid(np.ones((4, 4))), CameraIntrinsics(2, 2, 2, 2, Pose(np.eye(3), CAMERA))
    ),
    "project_to_plane": lambda: project_to_plane([], PlaneModel(np.array([0.0, 0.0, 1.0, -0.5]))),
    "voxel_downsample": lambda: voxel_downsample([], 0.01),
}


@pytest.mark.parametrize("name", EMPTY_INPUT_CALLS)
def test_an_empty_input_gives_an_empty_float_cloud(name):
    out = EMPTY_INPUT_CALLS[name]()
    assert out.shape == (0, 3) and out.dtype == np.float64
