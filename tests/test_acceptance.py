"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""

import itertools
import time

import numpy as np

from cablerecon import cloudproc, imgproc, pipeline, scenarios
from cablerecon.cloudproc import ransac_plane
from cablerecon.evaluation import icp
from cablerecon.explore import indicator
from cablerecon.geom import Pose, ReconParams, frame_from_y_z, rotation_about_axis
from cablerecon.imgproc import ImageGrid, cluster_pixels, rgb_to_lab, skeletonize
from cablerecon.topology import sort_and_find_endpoints
from cablerecon.worldsim import probe

from test_imgproc import (
    brute_force_clusters,
    components_8,
    _random_strokes,
)
from test_topology import (
    PLANE, is_arc_order, plain_walk, recovered_order, smooth_random_open_curve,
)
from test_worldsim import EPS, make_scene, straight_cable


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_occlusion_recovery_cs1(work_root, scenario_files, template_runs):
    _, scene = scenarios.load_scenario(scenario_files["cs1_occluded"])
    cable = scene.cables[0]

    # occluder really hides >= 20% of arc length, crossing included
    samples = cable.dense_samples
    origin = scene.camera.pose.translation
    dirs = samples - origin
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    blocked = np.zeros(len(samples), dtype=bool)
    for lo, hi in scene.occluders:
        with np.errstate(divide="ignore"):
            t1 = (lo - origin) / dirs
            t2 = (hi - origin) / dirs
        t_near = np.minimum(t1, t2).max(axis=1)
        t_far = np.maximum(t1, t2).min(axis=1)
        blocked |= (
            (t_near <= t_far)
            & (t_far > 0)
            & (t_near < np.linalg.norm(samples - origin, axis=1))
        )
    idx_a, idx_b = np.triu_indices(len(samples), k=200)
    pair_d = np.linalg.norm(samples[idx_a] - samples[idx_b], axis=1)
    crossing = 0.5 * (
        samples[idx_a[np.argmin(pair_d)]] + samples[idx_b[np.argmin(pair_d)]]
    )
    crossing_blocked = blocked[
        np.argmin(np.linalg.norm(samples - crossing, axis=1))
    ]
    report(
        1,
        blocked.mean() >= 0.20 and crossing_blocked,
        f"occluder hides {blocked.mean():.0%} of arc incl. the crossing",
    )

    t0 = time.perf_counter()
    fresh = pipeline.run_pipeline(
        scenario_files["cs1_occluded"], work_root / "c1_fresh"
    )
    runtime = time.perf_counter() - t0
    report(
        1,
        fresh.exit_status == pipeline.EXIT_COMPLETE,
        f"cs1_occluded reconstructs completely (exit {fresh.exit_status})",
    )
    rep = pipeline.evaluate_run(
        fresh.out_dir, template_runs["cs1_plain"].out_dir, work_root / "c1_eval.yaml"
    )
    rmse = rep["cables"][0]["icp_rmse"]
    curve_mean = rep["cables"][0]["curve_mean_error"]
    report(1, rmse <= 0.005, f"ICP RMSE {rmse * 1000:.2f} mm <= 5 mm")
    report(1, curve_mean <= 0.003, f"curve mean error {curve_mean * 1000:.2f} mm <= 3 mm")
    report(1, runtime < 60.0, f"runtime {runtime:.1f} s < 60 s")


def test_criterion_2_two_cable_separation_cs2(work_root, template_runs):
    run = template_runs["cs2_occluded"]
    cables = run.manifest["cables"]
    report(2, len(cables) == 2, f"cs2_occluded yields {len(cables)} clusters")
    for cable in cables:
        report(
            2,
            cable["final_segments"] == 1 and cable["final_endpoints"] == 2,
            f"{cable['directory']}: {cable['final_segments']} segment, "
            f"{cable['final_endpoints']} endpoints",
        )
    rep = pipeline.evaluate_run(
        run.out_dir, template_runs["cs2_plain"].out_dir, work_root / "c2_eval.yaml"
    )
    for row in rep["cables"]:
        report(
            2,
            row["icp_rmse"] <= 0.008,
            f"{row['cable']} ICP RMSE {row['icp_rmse'] * 1000:.2f} mm <= 8 mm",
        )


def test_criterion_3_vision_only_ablation(template_runs, no_tactile_run):
    endpoints = sum(c["final_endpoints"] for c in no_tactile_run.manifest["cables"])
    report(
        3,
        no_tactile_run.exit_status == pipeline.EXIT_PARTIAL and endpoints > 2,
        f"--no-tactile exits 2 with {endpoints} endpoints",
    )
    report(
        3,
        template_runs["cs1_occluded"].exit_status == pipeline.EXIT_COMPLETE,
        "the same scenario with tactile exploration exits 0",
    )


def test_criterion_4_indicator_discrimination():
    params = ReconParams()
    radius = 0.003
    scene = make_scene([straight_cable(radius=radius)])
    pad_down = frame_from_y_z(np.array([1.0, 0, 0]), np.array([0.0, 0, 1]))
    rng = np.random.default_rng(19)

    flat_values = []
    while len(flat_values) < 100:
        pos = np.array(
            [rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.15), -rng.uniform(2e-4, 1.4e-3)]
        )
        pressures = probe(scene, Pose(pad_down, pos))
        # a touch of the plane well away from the cable
        if (pressures > EPS).any() and scene.cables[0].distance_to_centerline(pos)[0] >= 0.03:
            flat_values.append(indicator(pressures))

    ridge_values = []
    while len(ridge_values) < 100:
        pos = np.array(
            [
                rng.uniform(-0.18, 0.18),
                rng.uniform(-0.002, 0.002),
                2 * radius - rng.uniform(2e-4, 1.4e-3),
            ]
        )
        pressures = probe(scene, Pose(pad_down, pos))
        if (pressures > EPS).any():
            ridge_values.append(indicator(pressures))

    worst_flat = max(flat_values)
    best_ridge = min(ridge_values)
    report(
        4,
        worst_flat < params.t_h < best_ridge,
        f"flat max {worst_flat:.3g} < t_H {params.t_h} < ridge min {best_ridge:.3g} "
        "(zero overlap over 100 poses each)",
    )


def test_criterion_5a_ransac_under_outliers(monkeypatch):
    monkeypatch.setattr(cloudproc, "RANSAC_INLIER_TOL", 0.002)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        inliers = np.column_stack(
            [rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400), np.zeros(400)]
        )
        outliers = rng.uniform(-0.5, 0.5, (100, 3))
        plane = ransac_plane(np.vstack([inliers, outliers]), [0.0, 0.0, 2.0], seed=seed)
        worst = max(
            worst, np.degrees(np.arccos(min(1.0, abs(plane.normal[2]))))
        )
    report(5, worst < 1.0, f"5a RANSAC worst normal error {worst:.3f} deg over 50 seeds")


def test_criterion_5b_icp_recovers_rigid_transforms():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        grid = np.array(
            [[i, j, k] for i in range(5) for j in range(4) for k in range(3)],
            dtype=float,
        )
        cloud = (grid + rng.uniform(-0.1, 0.1, grid.shape)) * 0.2
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = rotation_about_axis(axis, rng.uniform(-3, 3))
        t = rng.uniform(-0.01, 0.01, 3)
        result = icp(cloud, cloud @ r.T + t)
        worst = max(
            worst,
            np.abs(result.rotation - r).max(),
            np.abs(result.translation - t).max(),
        )
    report(5, worst < 1e-6, f"5b ICP worst transform error {worst:.2e} over 50 cases")


def test_criterion_5c_thinning_topology_corpus():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(30):
        mask = _random_strokes(rng, 48, 48, n_strokes=int(rng.integers(1, 4)))
        once = skeletonize(ImageGrid(mask)).data
        twice = skeletonize(ImageGrid(once)).data
        assert np.array_equal(once, twice)
        assert components_8(once) == components_8(mask)
        checked += 1
    report(5, checked == 30, "5c thinning idempotent, components preserved on 30 images")


def test_criterion_5d_sorter_matches_arc_length():
    count = 0
    seed = 0
    while count < 50:
        pts = smooth_random_open_curve(seed)
        seed += 1
        if pts is None:
            continue
        count += 1
        rng = np.random.default_rng(1000 + seed)
        shuffled = pts[rng.permutation(len(pts))]
        poly = sort_and_find_endpoints(shuffled, PLANE, 0.035)
        assert len(poly.segments) == 1, f"curve seed {seed - 1} fragmented"
        assert is_arc_order(recovered_order(poly, pts)), f"curve seed {seed - 1} misordered"
    report(5, True, "5d sorter matches arc-length order on 50 smooth curves")


def test_criterion_5e_clustering_matches_brute_force_exhaustively(monkeypatch):
    rng = np.random.default_rng(5)
    base = rng.uniform(0, 40, size=(8, 2))
    pix_base = np.round(base).astype(int)
    min_size, cut = 2, 12.0
    monkeypatch.setattr(imgproc, "MIN_CLUSTER_SIZE", min_size)
    monkeypatch.setattr(imgproc, "CUT_THRESHOLD", cut)
    cases = 0
    for size in range(1, 9):
        for subset in itertools.combinations(range(8), size):
            pix = pix_base[list(subset)]
            if len(np.unique(pix, axis=0)) != len(pix):
                continue
            mask = np.zeros((45, 45), dtype=bool)
            mask[pix[:, 0], pix[:, 1]] = True
            color = np.full((45, 45, 3), 120.0)
            out = cluster_pixels(ImageGrid(mask), ImageGrid(color))
            rows, cols = np.nonzero(mask)
            lab = rgb_to_lab(np.full((len(rows), 3), 120.0))
            feats = np.column_stack([0.5 * rows, 0.5 * cols, lab])
            expected = brute_force_clusters(feats, min_size, cut)
            index_of = {(r, c): i for i, (r, c) in enumerate(zip(rows, cols))}
            got = sorted(
                frozenset(index_of[(r, c)] for r, c in cluster.pixels)
                for cluster in out.clusters
            )
            assert got == expected, f"subset {subset} diverged"
            cases += 1
    report(5, cases >= 250, f"5e clustering matches brute force on {cases} subsets")


def test_criterion_6_published_defaults_load_verbatim():
    p = ReconParams()
    values_ok = (
        p.d_min == 0.0150
        and p.d_m == 0.0200
        and p.t_p == 0.0080
        and p.t_h == 0.0011
        and p.delta_y == 0.0100
        and p.delta_z == 0.0015
        and p.theta_deg == 15.0
    )
    report(6, values_ok, "published parameter defaults load verbatim")
    acc = np.eye(3)
    step = rotation_about_axis(np.array([0.0, 0, 1]), p.theta_deg)
    for _ in range(24):
        acc = acc @ step
    err = np.abs(acc - np.eye(3)).max()
    report(6, err < 1e-9, f"R_z(15 deg)^24 deviates from identity by {err:.1e}")


def test_criterion_7_determinism_across_templates(work_root, scenario_files):
    for tpl, scenario in scenario_files.items():
        a = pipeline.run_pipeline(scenario, work_root / f"det_{tpl}_a")
        b = pipeline.run_pipeline(scenario, work_root / f"det_{tpl}_b")
        same_manifest = (
            (a.out_dir / "manifest.json").read_bytes()
            == (b.out_dir / "manifest.json").read_bytes()
        )
        same_artifacts = a.manifest["artifacts"] == b.manifest["artifacts"]
        report(
            7,
            same_manifest and same_artifacts,
            f"{tpl}: repeated runs byte-identical ({len(a.manifest['artifacts'])} artifacts)",
        )


def test_criterion_8_small_angle_crossing_regression(work_root, monkeypatch):
    # the merged cloud and the sort arguments (plane, r_search)
    # of the run, to sort that exact cloud with the plain walk afterwards
    merged, sort_args = [], []
    merge_clouds = pipeline.explore.merge_clouds

    def capture_merge(*args):
        merged.append(merge_clouds(*args))
        return merged[-1]

    def capture_sort(cloud, *args):
        sort_args.append(args)
        return sort_and_find_endpoints(cloud, *args)

    monkeypatch.setattr(pipeline.explore, "merge_clouds", capture_merge)
    monkeypatch.setattr(pipeline.topology, "sort_and_find_endpoints", capture_sort)
    doc = scenarios.make_cs1(seed=7, occluded=True, crossing_angle_deg=30.0)
    path = work_root / "cs1_cross30.yaml"
    scenarios.save_scenario(path, doc)
    run = pipeline.run_pipeline(path, work_root / "cs1_cross30")
    [cable] = run.manifest["cables"]

    # the plain greedy walk (no crossing recovery) fragments on the dense
    # merged cloud: refinement is what makes the final sort viable
    plain_walk(monkeypatch)
    raw = sort_and_find_endpoints(merged[0], *sort_args[0])
    dense_endpoints = 2 * len(raw.segments)
    report(
        8,
        dense_endpoints > 2,
        f"dense merged cloud: plain walk finds {dense_endpoints} endpoints (> 2)",
    )
    report(
        8,
        cable["final_segments"] == 1 and cable["final_endpoints"] == 2,
        "refined cloud sorts back to a single 2-endpoint run",
    )
