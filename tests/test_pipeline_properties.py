"""End-to-end properties over randomized scenes, beyond the fixed templates."""

from functools import partial

import numpy as np
import pytest

from cablerecon import pipeline, scenarios
from cablerecon.explore import explore_from_endpoints
from cablerecon.geom import Pose, ReconParams, frame_from_y_z
from cablerecon.topology import SortedPolyline
from cablerecon.worldsim import probe

from test_worldsim import PLANE, make_scene, straight_cable


def random_loop_scenario(seed, occluded=True):
    """A smooth random closed-ish cable on a horizontal plane."""
    rng = np.random.default_rng(seed)
    plane_point = np.array([0.55, 0.0, 0.0])
    normal = np.array([0.0, 0.0, 1.0])
    camera = plane_point + 0.65 * normal

    base_r = rng.uniform(0.09, 0.12)
    a1, a2 = rng.uniform(0.005, 0.02, 2)
    p1, p2 = rng.uniform(0, 2 * np.pi, 2)
    gap = 0.012 / (2 * base_r)
    phi = np.linspace(gap, 2 * np.pi - gap, 27)
    r = base_r + a1 * np.cos(phi + p1) + a2 * np.cos(2 * phi + p2)
    uv = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    ctrl = np.column_stack(
        [plane_point[0] + uv[:, 0], plane_point[1] + uv[:, 1], np.zeros(len(uv))]
    )

    occluders = []
    if occluded:
        pick = uv[rng.integers(5, len(uv) - 5)]
        center = np.array([plane_point[0] + pick[0], plane_point[1] + pick[1], 0.0])
        half = np.array([0.03, 0.03, 0.0])
        occluders.append(
            {
                "min": [float(v) for v in center - half - [0, 0, 0.02]],
                "max": [float(v) for v in center + half + [0, 0, 0.05]],
            }
        )

    return {
        "schema_version": 1,
        "seed": int(seed),
        "plane": {"point": plane_point.tolist(), "normal": normal.tolist()},
        "cables": [
            {
                "color": [30.0, 30.0, 35.0],
                "radius": 0.003,
                "control_points": [[float(v) for v in p] for p in ctrl],
            }
        ],
        "occluders": occluders,
        "camera": {
            "fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0,
            "width": 640, "height": 480,
            "position": camera.tolist(),
            "look_at": plane_point.tolist(),
            "up_hint": [0.0, 1.0, 0.0],
        },
        "pressure_noise_sigma": 0.0,
    }


@pytest.mark.parametrize("seed", [13, 21, 34])
def test_randomized_occluded_loops_reconstruct(tmp_path, seed):
    doc = random_loop_scenario(seed, occluded=True)
    path = tmp_path / f"loop_{seed}.yaml"
    scenarios.save_scenario(path, doc)
    result = pipeline.run_pipeline(path, tmp_path / f"run_{seed}")
    assert result.exit_status == pipeline.EXIT_COMPLETE
    report = pipeline.evaluate_run(
        result.out_dir, path, tmp_path / f"eval_{seed}.yaml"
    )
    row = report["cables"][0]
    assert row["curve_mean_error"] <= 0.003
    assert row["segment_count"] == 1


def test_unoccluded_scene_completes_without_tactile(tmp_path, scenario_files):
    result = pipeline.run_pipeline(
        scenario_files["cs1_plain"], tmp_path / "plain_nt", tactile=False
    )
    assert result.exit_status == pipeline.EXIT_COMPLETE
    assert all(c["tactile_points"] == 0 for c in result.manifest["cables"])


def test_noisy_probe_is_still_pose_deterministic():
    scene = make_scene([straight_cable()], pressure_noise_sigma=0.01)
    pose = Pose(
        frame_from_y_z(np.array([1.0, 0, 0]), np.array([0.0, 0, 1])),
        np.array([0.0, 0.0, -0.0004]),
    )
    a = probe(scene, pose)
    assert np.array_equal(a, probe(scene, pose))
    other = Pose(pose.rotation, np.array([0.05, 0.0, -0.0004]))
    assert not np.array_equal(a, probe(scene, other))


def test_exploration_skips_singleton_segments():
    scene = make_scene([])
    pts = np.array([[0.0, 0, 0], [0.2, 0.2, 0.0]])
    poly = SortedPolyline(points=pts, segments=[np.array([0]), np.array([1])])
    result = explore_from_endpoints(
        poly, PLANE, partial(probe, scene), ReconParams(), top=0.0
    )
    assert result.probes_used == 0
    assert len(result.tactile_cloud) == 0
