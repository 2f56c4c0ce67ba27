import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import BSpline, make_interp_spline

from cablerecon import fitting
from cablerecon.fitting import (
    BSplineCurve,
    _averaged_knots,
    bspline_from_control_points,
    chord_length_params,
    fit_bspline,
    load_spline,
    refine_merged,
    sample_curve,
    save_spline,
)
from cablerecon.geom import ReconParams


def as_point_set(cloud):
    return {tuple(np.round(p, 9)) for p in cloud}


class TestRefineMerged:
    def test_already_sparse_cloud_unchanged(self):
        params = ReconParams()
        # one point per voxel, spacing above t_p
        cloud = np.array(
            [[0.01, 0.01, 0.0], [0.03, 0.01, 0.0], [0.05, 0.01, 0.0], [0.07, 0.01, 0.0]]
        )
        out = refine_merged(cloud, params)
        assert as_point_set(out) == as_point_set(cloud)

    def test_dense_double_coverage_is_thinned(self, rng):
        params = ReconParams()
        xs = np.arange(0.0, 0.2, 0.01)
        line = np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])
        doubled = np.vstack([line, line + [0.002, 0.002, 0.0]])
        out = refine_merged(doubled, params)
        assert len(out) < len(doubled)
        diff = out[:, None, :] - out[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= params.t_p - 1e-12

    def test_empty_cloud(self):
        out = refine_merged(np.zeros((0, 3)), ReconParams())
        assert out.shape == (0, 3)


class TestFitBspline:
    def test_collinear_points_give_a_straight_segment(self):
        pts = np.column_stack([np.linspace(0, 0.3, 4), np.zeros(4), np.zeros(4)])
        curve = fit_bspline(pts)
        samples = sample_curve(curve, 100)
        assert np.abs(samples[:, 1:]).max() < 1e-9
        assert samples[:, 0].min() > -1e-9
        assert samples[:, 0].max() < 0.3 + 1e-9

    def test_endpoints_clamped_to_data(self, rng):
        pts = np.cumsum(rng.uniform(-0.02, 0.05, (12, 3)), axis=0)
        curve = fit_bspline(pts)
        lo, hi = curve.domain
        ends = curve.evaluate(np.array([lo, hi]))
        assert np.linalg.norm(ends[0] - pts[0]) < 1e-9
        assert np.linalg.norm(ends[1] - pts[-1]) < 1e-9

    def test_interpolates_every_input_point(self, rng):
        t = np.linspace(0, 2.0, 15)
        pts = np.column_stack([np.cos(t), np.sin(t), 0.2 * t])
        curve = fit_bspline(pts)
        params = chord_length_params(pts)
        assert np.abs(curve.evaluate(params) - pts).max() < 1e-6

    def test_circle_arc_reconstruction_error(self):
        # 2 cm chord spacing on a 10 cm circle; fit must stay within 1 mm
        r = 0.1
        angles = np.arange(0.0, 2.1, 0.2)
        pts = np.column_stack([r * np.cos(angles), r * np.sin(angles), np.zeros(len(angles))])
        curve = fit_bspline(pts)
        samples = sample_curve(curve, 300)
        radial = np.abs(np.linalg.norm(samples[:, :2], axis=1) - r)
        assert radial.max() < 0.001

    def test_three_points_reduce_to_quadratic(self):
        pts = np.array([[0.0, 0, 0], [0.05, 0.03, 0], [0.1, 0.0, 0]])
        curve = fit_bspline(pts)
        assert curve.degree == 2
        params = chord_length_params(pts)
        assert np.abs(curve.evaluate(params) - pts).max() < 1e-9

    def test_two_points_become_a_line(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0.1, 0]])
        curve = fit_bspline(pts)
        assert curve.degree == 1
        mid = curve.evaluate(np.array([0.5]))[0]
        assert np.allclose(mid, [0.05, 0.05, 0])

    def test_duplicate_points_dropped(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [0.05, 0, 0], [0.1, 0, 0]])
        curve = fit_bspline(pts)
        assert len(curve.control_points) == 3

    def test_local_support_decay(self):
        # bump one interior point of a straight line laterally and check the
        # geometric deviation: large at the bump, below 1e-9 ten knot spans
        # out (the collocation inverse decays ~0.27x per span)
        n = 41
        xs = np.linspace(0, 1.0, n)
        pts = np.column_stack([xs, np.zeros(n), np.zeros(n)])
        bumped_pts = pts.copy()
        bumped_pts[20, 1] += 1e-4
        bumped = fit_bspline(bumped_pts)
        ts = np.linspace(0, 1, 2001)
        off_line = np.abs(bumped.evaluate(ts)[:, 1])
        assert off_line.max() > 0.5e-4
        params = chord_length_params(pts)
        far = np.abs(ts - params[20]) > 10 * np.mean(np.diff(params))
        assert off_line[far].max() < 1e-9


class TestFullPipelineIdempotence:
    def test_reconstructed_cloud_stays_one_segment(self):
        # refine + sort + fit on an already-reconstructed cloud must keep
        # a single segment with two endpoints
        from cablerecon.cloudproc import PlaneModel
        from cablerecon.topology import sort_and_find_endpoints

        params = ReconParams()
        plane = PlaneModel(np.array([0.0, 0, 1, 0]))
        angles = np.linspace(0.3, 5.5, 40)
        cloud = 0.11 * np.column_stack(
            [np.cos(angles), np.sin(angles), np.zeros(len(angles))]
        )
        refined = refine_merged(cloud, params)
        poly = sort_and_find_endpoints(refined, plane, params.r_search)
        assert len(poly.segments) == 1
        assert len(poly.endpoints) == 2
        curve = fit_bspline(poly.points[poly.segments[0]])
        assert len(sample_curve(curve, 50)) == 50


class TestSampleCurve:
    def test_two_samples_are_the_data_endpoints(self, rng):
        pts = np.cumsum(rng.uniform(0.01, 0.05, (8, 3)), axis=0)
        curve = fit_bspline(pts)
        samples = sample_curve(curve, 2)
        assert np.linalg.norm(samples[0] - pts[0]) < 1e-9
        assert np.linalg.norm(samples[-1] - pts[-1]) < 1e-9

    def test_straight_line_uniform_chords(self):
        pts = np.column_stack([np.linspace(0, 0.4, 4), np.zeros(4), np.zeros(4)])
        curve = fit_bspline(pts)
        samples = sample_curve(curve, 5)
        chords = np.linalg.norm(np.diff(samples, axis=0), axis=1)
        assert np.abs(chords - chords[0]).max() < 1e-9

    def test_arc_samples_never_backtrack(self):
        r = 0.1
        angles = np.arange(0.0, 2.1, 0.2)
        pts = np.column_stack(
            [r * np.cos(angles), r * np.sin(angles), np.zeros(len(angles))]
        )
        samples = sample_curve(fit_bspline(pts), 100)
        tangents = np.diff(samples, axis=0)
        dots = (tangents[:-1] * tangents[1:]).sum(axis=1)
        assert (dots > 0).all()

    def test_rejects_tiny_counts(self):
        curve = fit_bspline(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        with pytest.raises(ValueError):
            sample_curve(curve, 1)


class TestCurveContainers:
    def test_control_polygon_curve_invariants(self):
        ctrl = np.array([[0.0, 0, 0], [0.1, 0.1, 0], [0.2, -0.1, 0], [0.3, 0, 0], [0.4, 0, 0]])
        curve = bspline_from_control_points(ctrl)
        k = curve.degree
        assert len(curve.knots) == len(curve.control_points) + k + 1
        assert np.allclose(curve.knots[: k + 1], 0.0)
        assert np.allclose(curve.knots[-k - 1 :], 1.0)

    def test_bad_knot_vector_rejected(self):
        with pytest.raises(ValueError):
            BSplineCurve(
                degree=3,
                knots=np.linspace(0, 1, 9),  # not clamped
                control_points=np.zeros((5, 3)),
            )

    def test_spline_file_roundtrip(self, tmp_path, rng):
        pts = np.cumsum(rng.uniform(0.01, 0.04, (9, 3)), axis=0)
        curve = fit_bspline(pts)
        save_spline(tmp_path / "s.yaml", curve)
        back = load_spline(tmp_path / "s.yaml")
        assert back.degree == curve.degree
        assert np.allclose(back.knots, curve.knots, atol=1e-8)
        assert np.allclose(back.control_points, curve.control_points, atol=1e-8)

    def test_translated_shifts_rigidly(self, rng):
        pts = np.cumsum(rng.uniform(0.01, 0.04, (7, 3)), axis=0)
        curve = fit_bspline(pts)
        moved = curve.translated(np.array([0.0, 0.0, 0.003]))
        ts = np.linspace(0, 1, 50)
        assert np.allclose(
            moved.evaluate(ts), curve.evaluate(ts) + [0, 0, 0.003], atol=1e-12
        )


# knot vectors a spline file may hold: (knots, degree)
KNOT_EDGE_CASES = {
    "interior_multiplicity_2": ([0, 0, 0, 0, 0.3, 0.3, 0.6, 1, 1, 1, 1], 3),
    "interior_multiplicity_4": ([0, 0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1], 3),
    "end_multiplicity_5": ([0, 0, 0, 0, 0.4, 1, 1, 1, 1, 1], 3),
    "start_multiplicity_5": ([0, 0, 0, 0, 0, 0.4, 1, 1, 1, 1], 3),
    "degree_1": ([0, 0, 0.2, 0.5, 0.7, 1, 1], 1),
    "degree_5": ([0] * 6 + [0.1, 0.3, 0.5, 0.9] + [1] * 6, 5),
    "near_clamped": ([0, 0, 0, 1e-12, 0.5, 1 - 1e-12, 1, 1, 1], 2),
}


def loop_averaged_knots(params, degree):
    """The per-knot loop that `_averaged_knots` replaced, kept as its oracle."""
    n = len(params)
    interior = [params[j : j + degree].mean() for j in range(1, n - degree)]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def test_averaged_knots_equal_the_per_knot_loop():
    rng = np.random.default_rng(29)
    for _ in range(500):
        degree = int(rng.integers(2, 4))
        n = int(rng.integers(degree + 1, 200))  # n = degree + 1 has no interior knot
        params = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, n - 2)), [1.0]])
        expected = loop_averaged_knots(params, degree)
        assert _averaged_knots(params, degree).tobytes() == expected.tobytes()


class TestScipyOracle:
    """The numpy fit and evaluation against scipy.interpolate, bit for bit."""

    @staticmethod
    def assert_evaluates_like_scipy(curve, ts):
        ref = BSpline(curve.knots, curve.control_points, curve.degree, extrapolate=False)(ts)
        out = curve.evaluate(ts)
        assert np.array_equal(out, ref, equal_nan=True)
        assert out.tobytes() == ref.tobytes()  # the sign of zero and NaN too

    def test_random_fits_equal_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            pts = np.cumsum(rng.normal(scale=0.02, size=(int(rng.integers(3, 120)), 3)), axis=0)
            curve = fit_bspline(pts)
            params = chord_length_params(pts)
            k = curve.degree
            assert k in (2, 3)
            ref = make_interp_spline(params, pts, k=k, t=_averaged_knots(params, k))
            assert np.array_equal(curve.control_points, ref.c)
            assert curve.control_points.tobytes() == ref.c.tobytes()
            ts = np.concatenate([rng.uniform(-0.1, 1.1, 200), curve.knots, [np.nan]])
            self.assert_evaluates_like_scipy(curve, ts)

    def test_random_degree_1_to_3_curves_evaluate_like_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k + 1, 30))
            interior = np.sort(rng.choice(np.linspace(0, 1, 12)[1:-1], n - k - 1))
            knots = np.concatenate([np.zeros(k + 1), interior, np.ones(k + 1)])
            curve = BSplineCurve(k, knots, rng.normal(size=(n, 3)))
            ts = np.concatenate([rng.uniform(-0.1, 1.1, 100), knots, [np.nan, np.inf]])
            self.assert_evaluates_like_scipy(curve, ts)

    @pytest.mark.parametrize("name", KNOT_EDGE_CASES)
    def test_knot_edge_cases_evaluate_like_scipy(self, name):
        knots, k = KNOT_EDGE_CASES[name]
        rng = np.random.default_rng(5)
        ctrl = rng.normal(size=(len(knots) - k - 1, 3))
        ctrl[:, 2] = -0.0  # scipy's sum starts from +0.0, so this coordinate is +0.0
        curve = BSplineCurve(k, knots, ctrl)
        ts = np.concatenate(
            [np.linspace(-0.2, 1.2, 701), knots, [np.nan, np.inf, -np.inf]]
        )
        self.assert_evaluates_like_scipy(curve, ts)

    def test_singular_collocation_falls_back_to_the_polyline(self, monkeypatch):
        def singular(kl, ku, ab, b, overwrite_ab=False):
            return ab, np.zeros(len(b), dtype=np.int32), b.copy(), 1

        monkeypatch.setattr(fitting, "_GBSV", singular)
        pts = np.array([[0.0, 0, 0], [0.05, 0.03, 0], [0.1, 0.0, 0], [0.2, 0.05, 0.01]])
        curve = fit_bspline(pts)
        params = chord_length_params(pts)
        assert curve.degree == 1
        assert np.array_equal(curve.control_points, pts)
        assert np.array_equal(curve.knots, np.concatenate([[0.0], params, [1.0]]))


def test_cold_import_loads_no_scipy_interpolate():
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys, cablerecon.pipeline; print(sorted(m for m in "
        "('scipy.interpolate', 'scipy.optimize', 'scipy.fft') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
