import numpy as np
import pytest

from cablerecon.errors import DegenerateGeometryError
from cablerecon.evaluation import COVERAGE_TOL, curve_error, icp, truth_side_error
from cablerecon.fitting import bspline_from_control_points, fit_bspline
from cablerecon.geom import rotation_about_axis
from cablerecon.worldsim import GroundTruthCable


def spread_cloud(rng, n=60, spacing=0.05):
    """Cloud with pairwise spacing large enough for unambiguous matching."""
    grid = np.array(
        [[i, j, k] for i in range(5) for j in range(4) for k in range(3)],
        dtype=float,
    )
    jitter = rng.uniform(-0.1, 0.1, grid.shape)
    return (grid + jitter) * spacing * 4


class TestIcp:
    def test_identity_on_equal_clouds(self, rng):
        cloud = spread_cloud(rng)
        result = icp(cloud, cloud)
        assert result.rmse < 1e-9
        assert result.converged
        assert result.iterations == 1
        assert np.allclose(result.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(result.translation, 0.0, atol=1e-9)

    def test_recovers_known_transform(self, rng):
        cloud = spread_cloud(rng)
        r = rotation_about_axis(np.array([0.0, 0, 1]), 10.0)
        t = np.array([0.005, 0.0, 0.0])
        target = cloud @ r.T + t
        result = icp(cloud, target)
        assert result.rmse < 1e-9
        assert np.abs(result.rotation - r).max() < 1e-6
        assert np.abs(result.translation - t).max() < 1e-6

    def test_recovers_many_random_rigid_transforms(self, rng):
        for seed in range(10):
            local = np.random.default_rng(seed)
            cloud = spread_cloud(local)
            axis = local.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = rotation_about_axis(axis, local.uniform(-3, 3))
            t = local.uniform(-0.01, 0.01, 3)
            result = icp(cloud, cloud @ r.T + t)
            assert np.abs(result.rotation - r).max() < 1e-6
            assert np.abs(result.translation - t).max() < 1e-6

    def test_rmse_history_non_increasing(self, rng):
        cloud = spread_cloud(rng)
        r = rotation_about_axis(np.array([0.0, 1, 0]), 4.0)
        result = icp(cloud, cloud @ r.T + [0.01, 0, 0])
        history = np.array(result.rmse_history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_coincident_source_rejected(self):
        src = np.tile([[0.1, 0.2, 0.3]], (5, 1))
        tgt = np.eye(3)
        with pytest.raises(DegenerateGeometryError):
            icp(src, tgt)

    def test_tiny_clouds_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            icp(np.zeros((2, 3)), np.eye(3))


def straight_truth(radius=0.003):
    ctrl = np.column_stack(
        [np.linspace(0, 0.4, 6), np.zeros(6), np.full(6, radius)]
    )
    return GroundTruthCable(
        centerline=bspline_from_control_points(ctrl),
        radius=radius,
        color=np.array([0.0, 0, 0]),
    )


class TestCurveError:
    def test_zero_for_the_centerline_itself(self):
        truth = straight_truth()
        mean, peak = curve_error(truth.centerline, truth)
        assert mean < 1e-6
        assert peak < 1e-6

    def test_constant_lateral_offset(self):
        truth = straight_truth()
        offset = truth.centerline.translated(np.array([0.0, 0.002, 0.0]))
        mean, peak = curve_error(offset, truth)
        assert mean == pytest.approx(0.002, abs=1e-6)
        assert peak == pytest.approx(0.002, abs=1e-6)

    def test_symmetric_under_rigid_motion_of_both(self, rng):
        t = np.linspace(0, 1.5, 12)
        pts = np.column_stack([np.cos(t), np.sin(t), 0.1 * t])
        curve = fit_bspline(pts + rng.normal(0, 1e-4, pts.shape))
        ctrl = pts[:: 2]
        truth = GroundTruthCable(
            centerline=bspline_from_control_points(ctrl),
            radius=0.003,
            color=np.zeros(3),
        )
        base = curve_error(curve, truth)

        shift = np.array([0.3, -0.2, 0.5])
        curve_m = curve.translated(shift)
        truth_m = GroundTruthCable(
            centerline=bspline_from_control_points(ctrl + shift),
            radius=0.003,
            color=np.zeros(3),
        )
        moved = curve_error(curve_m, truth_m)
        assert moved[0] == pytest.approx(base[0], abs=1e-9)
        assert moved[1] == pytest.approx(base[1], abs=1e-9)


class TestTruthSideError:
    def test_the_centerline_itself_covers_everything_and_ends_at_the_ends(self):
        truth = straight_truth()
        samples = truth.dense_samples
        coverage, gap_max, ends = truth_side_error(truth, samples, samples[[-1, 0]])
        assert (coverage, gap_max, ends) == (1.0, 0.0, [0.0, 0.0])

    def test_a_lateral_offset_is_covered_only_within_the_tolerance(self):
        truth = straight_truth()
        for offset, covered in ((0.002, 1.0), (0.004, 0.0)):
            model = truth.dense_samples + [0.0, offset, 0.0]
            coverage, gap_max, _ = truth_side_error(truth, model, model[[0, -1]])
            assert coverage == covered
            assert gap_max == pytest.approx(offset, abs=1e-12)

    def test_a_model_short_of_one_end_leaves_it_uncovered(self):
        # the model stops 10 cm short of the far end of the 40 cm cable
        truth = straight_truth()
        model = truth.dense_samples[truth.dense_samples[:, 0] <= 0.3]
        coverage, gap_max, ends = truth_side_error(truth, model, model[[0, -1]])
        reach = np.mean(truth.dense_samples[:, 0] <= model[-1, 0] + COVERAGE_TOL)
        assert 0.5 < coverage < 1.0
        assert coverage == pytest.approx(reach, abs=1 / len(truth.dense_samples))
        assert gap_max == pytest.approx(0.4 - model[-1, 0], abs=1e-12)
        assert ends[0] == 0.0
        assert ends[1] == pytest.approx(0.4 - model[-1, 0], abs=1e-12)

    def test_no_model_end_gives_no_end_error(self):
        truth = straight_truth()
        _, _, ends = truth_side_error(truth, truth.dense_samples, np.zeros((0, 3)))
        assert ends is None
