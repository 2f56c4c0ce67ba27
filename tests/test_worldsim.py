import hashlib
import warnings
import zlib

import numpy as np
import pytest
import yaml
from scipy.spatial import cKDTree

from cablerecon import yamlio
from cablerecon.cloudproc import PlaneModel
from cablerecon.errors import InvalidViewError
from cablerecon.explore import EPS_CONTACT as EPS, PAD_PITCH, TAXELS, _centroid
from cablerecon.fitting import bspline_from_control_points
from cablerecon.geom import Pose, frame_from_y_z, rotation_about_axis
from cablerecon.imgproc import CameraIntrinsics, pixels_to_cloud
from cablerecon.scenarios import (
    TEMPLATES,
    load_scenario,
    make_cs1,
    make_template,
    save_scenario,
)
from cablerecon.worldsim import (
    PRESSURE_GAIN,
    GroundTruthCable,
    WorldScene,
    _box_entry_depth,
    _point_to_polyline,
    probe,
    render,
)

PLANE = PlaneModel(np.array([0.0, 0.0, 1.0, 0.0]))  # z = 0, normal up


def overhead_camera(height=0.6):
    rotation = frame_from_y_z(np.array([0.0, -1.0, 0.0]), np.array([0.0, 0.0, -1.0]))
    return CameraIntrinsics(
        fx=400.0, fy=400.0, cx=160.0, cy=120.0,
        pose=Pose(rotation, np.array([0.0, 0.0, height])),
    )


def straight_cable(radius=0.003, length=0.4, y=0.0, color=(30, 30, 30)):
    xs = np.linspace(-length / 2, length / 2, 6)
    ctrl = np.column_stack([xs, np.full(6, y), np.full(6, radius)])
    return GroundTruthCable(
        centerline=bspline_from_control_points(ctrl), radius=radius,
        color=np.array(color, dtype=float),
    )


def make_scene(cables, occluders=(), **kwargs):
    return WorldScene(
        support_plane=PLANE,
        cables=list(cables),
        occluders=list(occluders),
        camera=overhead_camera(),
        width=320,
        height=240,
        **kwargs,
    )


def face_down_pose(position):
    # pad z along the plane normal, y along world y
    rotation = frame_from_y_z(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    return Pose(rotation, np.asarray(position, dtype=float))


class TestRender:
    def test_occluder_removes_exactly_the_blocked_pixels(self):
        cable = straight_cable()
        plain = render(make_scene([cable]))
        box = (np.array([-0.05, -0.05, 0.0]), np.array([0.05, 0.05, 0.05]))
        occluded = render(make_scene([cable], occluders=[box]))
        m1 = plain.cable_masks[0].data
        m2 = occluded.cable_masks[0].data
        assert m2.sum() < m1.sum()
        # per-pixel ray-box oracle over the unoccluded cable pixels
        cam = overhead_camera()
        rows, cols = np.nonzero(m1)
        depth = plain.depth.data[rows, cols]
        dirs_cam = np.column_stack(
            [(cols - cam.cx) / cam.fx, (rows - cam.cy) / cam.fy, np.ones(len(rows))]
        )
        dirs = dirs_cam @ cam.pose.rotation.T
        origin = cam.pose.translation
        lo, hi = box
        with np.errstate(divide="ignore"):
            t1 = (lo - origin) / dirs
            t2 = (hi - origin) / dirs
        t_near = np.minimum(t1, t2).max(axis=1)
        t_far = np.maximum(t1, t2).min(axis=1)
        blocked = (t_near <= t_far) & (t_far > 0) & (t_near < depth)
        expected = m1.copy()
        expected[rows[blocked], cols[blocked]] = False
        assert np.array_equal(m2, expected)

    def test_no_occluder_masks_match(self):
        cable = straight_cable()
        a = render(make_scene([cable]))
        b = render(make_scene([cable], occluders=[]))
        assert np.array_equal(a.cable_masks[0].data, b.cable_masks[0].data)

    def test_empty_scene(self):
        out = render(make_scene([]))
        assert out.union_cable_mask().data.sum() == 0
        assert out.shelf_mask.data.all()

    def test_camera_behind_plane_rejected(self):
        cam = overhead_camera(height=-0.5)
        with pytest.raises(InvalidViewError):
            WorldScene(
                support_plane=PLANE, cables=[], occluders=[], camera=cam,
                width=64, height=48,
            )

    def test_backprojected_mask_hugs_the_centerline(self):
        cable = straight_cable()
        out = render(make_scene([cable]))
        pixels = np.argwhere(out.cable_masks[0].data)
        cloud = pixels_to_cloud(pixels, out.depth, overhead_camera())
        d = cable.distance_to_centerline(cloud)
        assert d.max() < cable.radius + 0.02


class TestProbe:
    def test_no_contact_high_above(self):
        scene = make_scene([straight_cable()])
        pressures = probe(scene, face_down_pose([0.0, 0.0, 0.10]))
        assert pressures.shape == (6, 2)
        assert not pressures.any()

    def test_uniform_flat_plane_contact(self):
        scene = make_scene([])
        pressures = probe(scene, face_down_pose([0.0, 0.0, -0.0005]))
        assert (pressures > EPS).any()
        assert np.allclose(pressures, PRESSURE_GAIN * 0.0005)

    def test_cable_ridge_matches_circle_height_oracle(self):
        radius = 0.008  # wider than the taxel pitch so side columns engage
        cable = straight_cable(radius=radius)
        scene = make_scene([cable])
        face_h = 2 * radius - 0.002
        # pad y along the cable, so the long (x) side crosses the ridge
        rotation = frame_from_y_z(np.array([1.0, 0, 0]), np.array([0.0, 0, 1]))
        pressures = probe(scene, Pose(rotation, np.array([0.0, 0.0, face_h])))
        assert (pressures > EPS).any()
        assert np.allclose(pressures, ridge_oracle(radius, face_h), atol=1e-9)

    def test_bit_identical_repeats(self):
        scene = make_scene([straight_cable()])
        pose = face_down_pose([0.01, 0.02, 0.004])
        assert np.array_equal(probe(scene, pose), probe(scene, pose))

    def test_mirror_symmetry_across_the_cable(self):
        cable = straight_cable(radius=0.008, y=0.0)
        scene = make_scene([cable])
        # cable along x; rotate the pad so its long side crosses the cable
        rotation = frame_from_y_z(np.array([1.0, 0, 0]), np.array([0.0, 0, 1]))
        h = 2 * 0.008 - 0.002
        left = probe(scene, Pose(rotation, np.array([0.0, -0.002, h])))
        right = probe(scene, Pose(rotation, np.array([0.0, 0.002, h])))
        assert np.allclose(left, np.flipud(right), atol=1e-12)

    def test_scenes_sharing_a_cable_probe_their_own_planes(self):
        # the second plane is tilted about the cable axis and tangent to the
        # tube, so the cable is one radius above both planes
        radius, tilt = 0.008, 0.3
        cable = straight_cable(radius=radius)
        tilted = PlaneModel(np.array([0, np.sin(tilt), np.cos(tilt), radius * (1 - np.cos(tilt))]))
        scenes = [
            WorldScene(support_plane=plane, cables=[cable], occluders=[],
                       camera=overhead_camera(), width=320, height=240)
            for plane in (PLANE, tilted)
        ]
        face_h = 2 * radius - 0.002
        got = {}
        for scene in scenes + scenes:  # each scene asked twice, in turn
            normal = scene.support_plane.normal
            # pad y along the cable, its face face_h above the plane over the centerline
            rotation = frame_from_y_z(np.array([1.0, 0, 0]), normal)
            pose = Pose(rotation, np.array([0.0, 0.0, radius]) + (face_h - radius) * normal)
            pressures = probe(scene, pose)
            assert pressures.tobytes() == all_taxel_pressures(scene, pose).tobytes()
            assert np.allclose(pressures, ridge_oracle(radius, face_h), atol=1e-6)
            got.setdefault(id(scene), []).append(pressures.tobytes())
        assert all(a == b for a, b in got.values())


class TestRenderOracles:
    def test_box_entry_matches_nan_reductions(self):
        lo = np.array([-0.1, -0.1, 0.0])
        hi = np.array([0.1, 0.1, 0.05])
        axes = [-1.0, -0.0, 0.0, 0.5, 1.0]
        dirs = np.array(
            [[a, b, c] for a in axes for b in axes for c in axes]
        ).reshape(5, 25, 3)
        # on one slab plane, on two, at a corner, inside, and outside
        origins = [
            np.array([0.0, 0.0, 0.05]),
            np.array([0.1, 0.0, 0.05]),
            np.array([0.1, -0.1, 0.0]),
            np.array([0.0, 0.02, 0.01]),
            np.array([0.3, -0.2, 0.4]),
        ]
        saw_nan = False
        for origin in origins:
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (lo - origin) / dirs
                t2 = (hi - origin) / dirs
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                t_near = np.nanmax(np.minimum(t1, t2), axis=-1)
                t_far = np.nanmin(np.maximum(t1, t2), axis=-1)
            hit = (t_near <= t_far) & (t_far > 0)
            expected = np.where(hit, np.maximum(t_near, 0.0), np.inf)
            got = _box_entry_depth(origin, dirs, lo, hi)
            assert got.tobytes() == expected.tobytes()
            saw_nan |= bool(np.isnan(t1).any() or np.isnan(t2).any())
        assert saw_nan


def ridge_oracle(radius, face_h):
    """Pressures of a level pad face_h above the plane, its x across a straight cable."""
    rho = np.abs(TAXELS[:, 0].reshape(6, 2))
    surf = np.where(
        rho <= radius, radius + np.sqrt(np.maximum(radius**2 - rho**2, 0)), -np.inf
    )
    return PRESSURE_GAIN * np.maximum(surf - face_h, 0.0)


def polyline_distance_oracle(queries, samples, tree):
    """`_point_to_polyline` as a loop over the nearest sample's two segments,
    one at a time, each index and t bounded with np.clip."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    _, idx = tree.query(q)
    best_d = np.full(len(q), np.inf)
    for off in (-1, 0):
        i0 = np.clip(idx + off, 0, len(samples) - 2)
        a = samples[i0]
        b = samples[i0 + 1]
        ab = b - a
        denom = (ab * ab).sum(axis=1)
        t = ((q - a) * ab).sum(axis=1) / np.maximum(denom, 1e-300)
        t = np.clip(np.where(denom > 0, t, 0.0), 0.0, 1.0)
        proj = a + t[:, None] * ab
        best_d = np.minimum(best_d, np.linalg.norm(q - proj, axis=1))
    return best_d


class TestPointToPolyline:
    def check(self, queries, samples):
        tree = cKDTree(samples)
        got = _point_to_polyline(queries, samples, tree)
        assert got.tobytes() == polyline_distance_oracle(queries, samples, tree).tobytes()
        return got

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bytes_equal_the_oracle_on_random_polylines(self, rng, dim):
        for n in (2, 3, 17, 400):
            samples = np.cumsum(rng.normal(size=(n, dim)), axis=0)
            queries = samples[rng.integers(0, n, 50)] + rng.normal(scale=2.0, size=(50, dim))
            self.check(queries, samples)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nearest_sample_first_or_last(self, dim):
        samples = np.zeros((5, dim))
        samples[:, 0] = np.arange(5.0)
        beyond = np.zeros((4, dim))
        beyond[:, 0] = [-2.0, -0.5, 4.5, 6.0]
        beyond[:, 1] = [0.0, 1.0, -1.0, 0.3]
        got = self.check(beyond, samples)
        assert got == pytest.approx(np.hypot([2.0, 0.5, 0.5, 2.0], [0.0, 1.0, -1.0, 0.3]))
        # a single query, not a (1, dim) array
        assert self.check(beyond[0], samples).shape == (1,)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_length_segments(self, rng, dim):
        # repeated samples make zero-length segments on either side of the nearest one
        samples = np.repeat(np.cumsum(rng.normal(size=(6, dim)), axis=0), 2, axis=0)
        self.check(samples + rng.normal(scale=0.3, size=samples.shape), samples)
        self.check(samples, samples)
        point = np.zeros((2, dim))
        assert np.array_equal(self.check(np.ones(dim), point), [np.sqrt(dim)])


    def test_a_bound_gives_inf_beyond_it_and_the_oracle_within(self, rng):
        samples = np.cumsum(rng.normal(size=(400, 2)) * 0.01, axis=0)
        tree = cKDTree(samples)
        queries = samples[rng.integers(0, 400, 300)] + rng.normal(scale=0.05, size=(300, 2))
        nearest = tree.query(queries)[0]
        expected = polyline_distance_oracle(queries, samples, tree)
        for bound in (0.01, 0.03, 0.1):
            got = _point_to_polyline(queries, samples, tree, bound)
            within = nearest < bound
            assert 0 < within.sum() < len(queries)
            assert got[within].tobytes() == expected[within].tobytes()
            assert np.isinf(got[~within]).all()


def test_a_taxel_just_inside_the_tube_between_two_samples_is_pressed():
    # its nearest sample lies farther than r: the probe's kd-tree bound, r plus
    # the plan's longest segment, must still find it
    radius = 0.003
    cable = straight_cable(radius=radius)
    scene = make_scene([cable])
    plan = scene._plans[0][0]
    k = int(np.argmax(np.diff(plan[:, 0])))
    mid = 0.5 * (plan[k, 0] + plan[k + 1, 0])
    rho = np.nextafter(radius, 0.0)
    taxel = TAXELS[1]  # row 0, column +2.5 mm
    pose = face_down_pose([mid - taxel[0], rho - taxel[1], radius / 2])
    assert np.hypot(plan[k, 0] - mid, rho) > radius
    pressures = probe(scene, pose)
    assert pressures.tobytes() == all_taxel_pressures(scene, pose).tobytes()
    assert pressures[0, 1] > 0


def test_a_scene_builds_no_3d_tree_before_the_first_distance_query(tmp_path):
    # only evaluation measures distance to a centerline; loading and probing do not
    path = tmp_path / "scene.yaml"
    save_scenario(path, make_template("cs2_occluded", seed=1))
    _, scene = load_scenario(path)
    probe(scene, face_down_pose(scene.cables[0].dense_samples[100]))
    assert all("_tree" not in vars(cable) for cable in scene.cables)
    cable = scene.cables[0]
    query = cable.dense_samples[:3] + [0.0, 0.0, 0.01]
    got = cable.distance_to_centerline(query)
    assert isinstance(vars(cable)["_tree"], cKDTree)
    expected = polyline_distance_oracle(query, cable.dense_samples, cKDTree(cable.dense_samples))
    assert got.tobytes() == expected.tobytes()
    assert cable.distance_to_centerline(query).tobytes() == got.tobytes()


def all_taxel_pressures(scene, pose):
    """Every taxel against every cable, with the noise draw probe uses; each
    cable's plan on the scene's plane is built here, per call."""
    plane = scene.support_plane
    centers = pose.transform(TAXELS)
    face_height = plane.signed_distance(centers)
    penetration = -face_height
    uv = plane.to_plane_coords(centers)
    for cable in scene.cables:
        plan = plane.to_plane_coords(cable.dense_samples)
        rho = polyline_distance_oracle(uv, plan, cKDTree(plan))
        under = rho <= cable.radius
        surf = cable.radius + np.sqrt(
            np.maximum(cable.radius**2 - rho[under] ** 2, 0.0)
        )
        penetration[under] = np.maximum(penetration[under], surf - face_height[under])
    pressures = PRESSURE_GAIN * np.maximum(penetration, 0.0)
    if scene.pressure_noise_sigma > 0:
        tag = zlib.crc32(pose.rotation.tobytes() + pose.translation.tobytes())
        rng = np.random.default_rng(np.random.SeedSequence([scene.seed, tag]))
        noise = rng.normal(0.0, scene.pressure_noise_sigma, 12)
        pressures = np.maximum(pressures + noise, 0.0)
    return pressures.reshape(6, 2)


class TestProbeShortcut:
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_pressures_equal_all_taxel_evaluation_around_2r(self, sigma):
        radius = 0.003
        scene = make_scene(
            [straight_cable(radius=radius), straight_cable(radius=0.005, y=0.04)],
            seed=3, pressure_noise_sigma=sigma,
        )
        top = 2 * radius
        heights = [top, top - 1e-3, top + 1e-3, top - 1e-6, top + 1e-6]
        up, down = top, top
        for _ in range(4):
            up, down = np.nextafter(up, 1.0), np.nextafter(down, 0.0)
            heights += [up, down]
        # pad x across the cable; one taxel column sits over the centerline
        level = frame_from_y_z(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        tilts = [
            level,
            rotation_about_axis(np.array([1.0, 0.0, 0.0]), 4.0) @ level,
            rotation_about_axis(np.array([0.0, 1.0, 0.0]), -7.0) @ level,
        ]
        touched = untouched = 0
        for rotation in tilts:
            for h in heights:
                for x in (0.0, 0.0025, 0.0013):
                    pose = Pose(rotation, np.array([0.01, x, h]))
                    pressures = probe(scene, pose)
                    expected = all_taxel_pressures(scene, pose)
                    assert pressures.tobytes() == expected.tobytes()
                    hit = (pressures > EPS).any()
                    touched += hit
                    untouched += not hit
        assert touched and untouched


    def test_no_cable_and_single_low_taxel_on_a_tilted_plane(self):
        # on a tilted plane the uv of a one-row product can round apart
        # from the same row of the 12-row product, so taxels reaching a
        # cable one at a time must still see the 12-row coordinates; the
        # cable runs oblique to u and v so that either coordinate moves rho
        plane = PlaneModel(np.array([0.05, -0.1, 1.0, -0.2]))
        radius = 0.004
        along, across = np.array([0.8, 0.6]), np.array([-0.6, 0.8])
        plan = np.linspace(-0.2, 0.2, 6)[:, None] * along
        cable = GroundTruthCable(
            centerline=bspline_from_control_points(
                plane.from_plane_coords(plan) + radius * plane.normal
            ),
            radius=radius,
            color=np.array([30.0, 30.0, 30.0]),
        )
        scenes = [
            WorldScene(support_plane=plane, cables=cables, occluders=[],
                       camera=overhead_camera(), width=320, height=240)
            for cables in ([], [cable])
        ]
        rng = np.random.default_rng(4)
        single = 0
        for _ in range(200):
            tilt = rotation_about_axis(np.array([0.6, 0.8, 0.0]), rng.uniform(15.0, 40.0))
            rotation = frame_from_y_z(rng.normal(size=3), plane.normal) @ tilt
            # put the lowest taxel over the cable, between r and 2r high
            low = Pose(rotation, np.zeros(3)).transform(TAXELS)
            low = low[np.argmin(plane.signed_distance(low))]
            uv = rng.uniform(-0.05, 0.05) * along + rng.uniform(-0.6, 0.6) * radius * across
            target = plane.from_plane_coords(uv)[0] + rng.uniform(1.0, 2.0) * radius * plane.normal
            pose = Pose(rotation, target - low)
            for scene in scenes:
                pressures = probe(scene, pose)
                expected = all_taxel_pressures(scene, pose)
                assert pressures.tobytes() == expected.tobytes()
                hit = (pressures > EPS).any()
            face = plane.signed_distance(pose.transform(TAXELS))
            single += hit and (face <= 2 * radius).sum() == 1
        assert single >= 20


class TestTaxelGrid:
    def test_built_once_read_only_and_equal_to_the_grid(self):
        assert PAD_PITCH == 0.005
        xs = (np.arange(6) - 2.5) * PAD_PITCH
        ys = (np.arange(2) - 0.5) * PAD_PITCH
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        want = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(12)])
        assert TAXELS.tobytes() == want.tobytes() and TAXELS.shape == (12, 3)
        assert not TAXELS.flags.writeable
        with pytest.raises(ValueError):
            TAXELS[0, 0] = 1.0


class TestMapCentroid:
    """The pressure-weighted taxel centroid the walk takes of a touch."""

    def test_single_active_taxel(self):
        pose = face_down_pose([0.0, 0.0, 0.001])
        pressures = np.zeros((6, 2))
        pressures[1, 0] = 2.5
        centroid = _centroid(pressures, pose, PLANE)
        taxel_world = pose.transform(TAXELS)[2]  # (1, 0)
        assert np.allclose(centroid[:2], taxel_world[:2], atol=1e-12)
        assert abs(centroid[2]) < 1e-12

    def test_two_equal_taxels_give_midpoint(self):
        pose = face_down_pose([0.0, 0.0, 0.001])
        pressures = np.zeros((6, 2))
        pressures[0, 0] = 1.0
        pressures[5, 1] = 1.0
        centroid = _centroid(pressures, pose, PLANE)
        centers = pose.transform(TAXELS)
        mid = 0.5 * (centers[0] + centers[11])
        assert np.allclose(centroid[:2], mid[:2], atol=1e-12)

    def test_crest_centroid_lands_on_the_cable(self):
        radius = 0.008
        cable = straight_cable(radius=radius, y=0.0)
        scene = make_scene([cable])
        # pad offset laterally; centroid must stay within half a pitch of
        # the true centerline
        pose = face_down_pose([0.0, 0.002, 2 * radius - 0.002])
        centroid = _centroid(probe(scene, pose), pose, PLANE)
        assert abs(centroid[1]) <= PAD_PITCH / 2
        assert abs(PLANE.signed_distance(centroid)[0]) < 1e-9


# sha256 of each template's scenario file at seed 0, and of the criterion-8 scene
FROZEN_SCENARIOS = {
    "cs1_plain": "fa19c6ddb4b7637eb756d66a2e5a21144bdf53f538adc0a8c9d2ebd9c9a6066c",
    "cs1_occluded": "95018700f76a7d140b6aa21d3f0cd02d231756875b0871be2a5e670cf46765e6",
    "cs2_plain": "9687e3901722886485ec1350c2fea5a40ca0feadcc3577158e373d2e437dde5a",
    "cs2_occluded": "8334c2db74a94c1b4103f97a7c64eada0eed72dd3a5ae6267f83684463910c8e",
    "criterion_8": "ab5f0a9c78298056e2a37a7b5c46a5c037f84e14c9723ea4aa9924c4c4b86495",
}


class TestScenarioFiles:
    def test_same_seed_bytes_identical(self, tmp_path):
        for name in ("cs1_occluded", "cs2_plain"):
            a = tmp_path / "a.yaml"
            b = tmp_path / "b.yaml"
            save_scenario(a, make_template(name, seed=9))
            save_scenario(b, make_template(name, seed=9))
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", FROZEN_SCENARIOS)
    def test_template_bytes_are_frozen(self, tmp_path, name):
        # a template's file is its geometry: a new way to build it keeps every byte
        if name == "criterion_8":
            doc = make_cs1(seed=7, occluded=True, crossing_angle_deg=30.0)
        else:
            doc = make_template(name, seed=0)
        path = tmp_path / f"{name}.yaml"
        save_scenario(path, doc)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_SCENARIOS[name]

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("name", TEMPLATES)
    def test_bytes_and_documents_equal_pure_python_yaml(self, tmp_path, name, scale):
        if yaml.__with_libyaml__:
            assert issubclass(yamlio.LOADER, yaml.CSafeLoader)
            assert yamlio.DUMPER is yaml.CSafeDumper
        for seed in range(5):
            doc = make_template(name, seed=seed)
            cam = doc["camera"]
            for key in ("fx", "fy", "cx", "cy"):
                cam[key] = float(cam[key]) * scale
            cam["width"] = int(round(cam["width"] * scale))
            cam["height"] = int(round(cam["height"] * scale))
            path = tmp_path / f"{name}_{seed}.yaml"
            save_scenario(path, doc)
            text = yaml.safe_dump(doc, sort_keys=False)
            assert path.read_text() == text
            assert load_scenario(path)[0] == yaml.safe_load(text) == doc

    def test_roundtrip_builds_valid_scene(self, tmp_path):
        path = tmp_path / "s.yaml"
        save_scenario(path, make_template("cs2_occluded", seed=3))
        scene = load_scenario(path)[1]
        assert len(scene.cables) == 2
        assert len(scene.occluders) == 2
        for cable in scene.cables:
            heights = scene.support_plane.signed_distance(cable.dense_samples)
            assert np.max(np.abs(heights - cable.radius)) < 1e-6

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        doc = make_template("cs1_plain")
        doc["schema_version"] = 99
        save_scenario(path, doc)
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError) as exc:
            make_template("nosuch")
        assert exc.value.args[0] == (
            "unknown template 'nosuch'; valid templates: "
            "cs1_plain, cs1_occluded, cs2_plain, cs2_occluded"
        )
