"""End-to-end properties over randomized scenes, beyond the fixed templates."""

import json
from functools import partial

import numpy as np
import pytest

from cablerecon import pipeline, scenarios, worldsim
from cablerecon.errors import InsufficientDepthError
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


@pytest.mark.parametrize("radius", [0.002, 0.005])
def test_each_cable_radius_is_measured_from_the_depth(tmp_path, radius):
    doc = scenarios.make_template("cs2_plain", seed=1)
    doc["cables"][1]["radius"] = radius
    path = tmp_path / "thin_and_thick.yaml"
    scenarios.save_scenario(path, doc)
    result = pipeline.run_pipeline(path, tmp_path / "run")
    assert result.exit_status == pipeline.EXIT_COMPLETE
    truth = {tuple(c["color"]): c["radius"] for c in doc["cables"]}
    for cable in result.manifest["cables"]:
        nearest = min(truth, key=lambda c: np.linalg.norm(np.subtract(c, cable["color"])))
        assert cable["radius"] == truth[nearest]


def test_a_cable_under_a_half_pixel_principal_row_is_one_complete_cable(tmp_path):
    # cy = 239.5, the (h - 1) / 2 convention, puts every centre of this
    # straight cable on a half pixel; rounding each disk pixel on its own
    # rendered it as 1-px stripes, which the blur erased
    doc = scenarios.make_template("cs2_plain", seed=1)
    doc["camera"]["cy"] = 239.5
    doc["cables"] = [{
        "color": [25, 25, 28], "radius": 0.003,
        "control_points": [[0.40 + 0.06 * i, 0.0, 0.0] for i in range(6)],
    }]
    path = tmp_path / "half_pixel_row.yaml"
    scenarios.save_scenario(path, doc)
    result = pipeline.run_pipeline(path, tmp_path / "run")
    assert result.exit_status == pipeline.EXIT_COMPLETE
    (cable,) = result.manifest["cables"]
    assert cable["complete"] and cable["final_segments"] == 1


def test_a_failure_in_the_radius_pass_names_its_cable(tmp_path, monkeypatch):
    # the second cable's pixels carry no depth, so its cluster, cable_01, has no cloud
    render = worldsim.render

    def render_without_depth_on_cable_1(scene):
        out = render(scene)
        out.depth.data[out.cable_masks[1].data] = 0.0
        return out

    monkeypatch.setattr(worldsim, "render", render_without_depth_on_cable_1)
    path = tmp_path / "cs2_plain.yaml"
    scenarios.save_scenario(path, scenarios.make_template("cs2_plain", seed=1))
    with pytest.raises(InsufficientDepthError):
        pipeline.run_pipeline(path, tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failure"]["error"] == "InsufficientDepthError"
    assert manifest["failure"]["cable"] == "cable_01"
    # the pass ends before the first cable's directory is written
    assert manifest["cables"] == []
    assert not any(rel.startswith("cable_") for rel in manifest["artifacts"])


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
