import json
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from cablerecon import explore, pipeline, scenarios
from cablerecon.errors import ProbeBudgetError
from cablerecon.explore import (
    EPS_CONTACT,
    HOVER_HEIGHT,
    PAD_PITCH,
    POSE_COLUMNS,
    ExplorationResult,
    _centroid,
    _descend,
    _fmt,
    _log,
    explore_from_endpoints,
    indicator,
    merge_clouds,
)
from cablerecon.geom import ReconParams
from cablerecon.topology import sort_and_find_endpoints
from cablerecon.worldsim import probe

from conftest import qvga_template
from test_worldsim import PLANE, make_scene, straight_cable


def stencil_oracle(p, pitch):
    """Independent literal evaluation of the padded Hessian-norm stencil."""
    p = np.asarray(p, dtype=float)
    pad = np.zeros((p.shape[0] + 2, p.shape[1] + 2))
    for i in range(pad.shape[0]):
        for j in range(pad.shape[1]):
            pad[i, j] = p[
                min(max(i - 1, 0), p.shape[0] - 1),
                min(max(j - 1, 0), p.shape[1] - 1),
            ]
    total = 0.0
    h2 = pitch * pitch
    for i in range(1, p.shape[0] + 1):
        for j in range(1, p.shape[1] + 1):
            hxx = (pad[i + 1, j] - 2 * pad[i, j] + pad[i - 1, j]) / h2
            hyy = (pad[i, j + 1] - 2 * pad[i, j] + pad[i, j - 1]) / h2
            hxy = (
                pad[i + 1, j + 1] - pad[i + 1, j - 1]
                - pad[i - 1, j + 1] + pad[i - 1, j - 1]
            ) / (4 * h2)
            total += hxx**2 + 2 * hxy**2 + hyy**2
    return float(np.sqrt(total))


def padded_indicator(pressures):
    """`indicator` with the map padded by np.pad(mode="edge")."""
    padded = np.pad(np.asarray(pressures, dtype=float), 1, mode="edge")
    h2 = PAD_PITCH * PAD_PITCH
    center = padded[1:-1, 1:-1]
    hxx = (padded[2:, 1:-1] - 2.0 * center + padded[:-2, 1:-1]) / h2
    hyy = (padded[1:-1, 2:] - 2.0 * center + padded[1:-1, :-2]) / h2
    hxy = (padded[2:, 2:] - padded[2:, :-2] - padded[:-2, 2:] + padded[:-2, :-2]) / (4.0 * h2)
    return float(np.linalg.norm(np.sqrt(hxx**2 + 2.0 * hxy**2 + hyy**2)))


class TestIndicator:
    def test_bytes_equal_the_np_pad_formulation(self, rng):
        maps = [rng.uniform(0, 3, (6, 2)) for _ in range(200)]
        maps += [rng.exponential(size=(6, 2)) * (rng.uniform(size=(6, 2)) < 0.3) for _ in range(200)]
        maps += [np.zeros((6, 2)), np.full((6, 2), 1e300), np.arange(12.0).reshape(6, 2)]
        for corner in [(0, 0), (0, 1), (5, 0), (5, 1), (2, 1)]:
            peak = np.zeros((6, 2))
            peak[corner] = 1.0
            maps.append(peak)
        for p in maps:
            assert np.float64(indicator(p)).tobytes() == np.float64(padded_indicator(p)).tobytes()
        assert indicator(maps[0].tolist()) == padded_indicator(maps[0])

    def test_constant_map_scores_zero(self):
        assert indicator(np.full((6, 2), 3.7)) == 0.0

    def test_single_peak_matches_frozen_oracle(self):
        peak = np.zeros((6, 2))
        peak[2, 0] = 1.0
        value = indicator(peak)
        assert value == pytest.approx(116619.03789690601, rel=1e-12)
        assert value == pytest.approx(stencil_oracle(peak, PAD_PITCH), rel=1e-12)

    def test_matches_stencil_oracle_on_random_maps(self, rng):
        for _ in range(10):
            p = rng.uniform(0, 3, (6, 2))
            assert indicator(p) == pytest.approx(stencil_oracle(p, PAD_PITCH), rel=1e-9)

    def test_ramp_hessians_vanish_away_from_the_pad_edge(self):
        # replicate padding leaves a second-difference residue on the two
        # boundary rows; the interior of a linear ramp is exactly flat
        ramp = np.tile(np.arange(6.0)[:, None], (1, 2))
        interior_only = ramp.copy()
        value_full = indicator(ramp)
        assert value_full == pytest.approx(stencil_oracle(ramp, PAD_PITCH), rel=1e-12)
        # removing the edge rows from the comparison: rows 1..4 of the map
        # contribute nothing (verified against the oracle on a shifted ramp)
        padded = np.pad(interior_only, 1, mode="edge")
        h2 = PAD_PITCH**2
        hxx = (padded[2:, 1:-1] - 2 * padded[1:-1, 1:-1] + padded[:-2, 1:-1]) / h2
        assert np.allclose(hxx[1:-1], 0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            indicator(np.zeros((5, 2)))


def test_vecdot_is_bit_equal_to_the_per_endpoint_norm_in_3d():
    # the walk measures its reach to every endpoint in one np.vecdot; the
    # d_min stop must round like np.linalg.norm of each difference
    rng = np.random.default_rng(8)
    ends = rng.normal(size=(10_000, 3)) * rng.uniform(1e-3, 1.0, (10_000, 1))
    p_new = rng.normal(size=3) * 0.01
    off = p_new - ends
    assert np.array_equal(np.sqrt(np.vecdot(off, off)), [np.linalg.norm(p_new - e) for e in ends])


TOP = 2 * 0.003  # the gap fixture's cable top, the tallest surface in its scene


def gap_fixture():
    """Straight cable with a 5 cm hole in its visual cloud."""
    radius = 0.003
    cable = straight_cable(radius=radius, length=0.4)
    scene = make_scene([cable])
    xs = np.concatenate(
        [np.arange(-0.2, -0.024, 0.015), np.arange(0.026, 0.2, 0.015)]
    )
    visual = np.column_stack([xs, np.zeros(len(xs)), np.zeros(len(xs))])
    poly = sort_and_find_endpoints(visual, PLANE, 0.035)
    return scene, poly, cable


class TestExploration:
    def test_gap_walk_bridges_and_terminates(self):
        scene, poly, cable = gap_fixture()
        assert len(poly.segments) == 2
        params = ReconParams()
        result = explore_from_endpoints(
            poly, PLANE, partial(probe, scene), params, top=TOP
        )
        cloud = result.tactile_cloud
        assert len(cloud) > 0
        # every accepted point lies on the plane
        assert np.abs(PLANE.signed_distance(cloud)).max() < 1e-9
        # and within one cable radius plus a taxel pitch of the truth
        d = cable.distance_to_centerline(cloud)
        assert d.max() < cable.radius + PAD_PITCH
        # the gap itself received the 4-6 bridging points of a 5 cm hole
        in_gap = cloud[(cloud[:, 0] > -0.024) & (cloud[:, 0] < 0.026)]
        assert 3 <= len(in_gap) <= 7
        # fused cloud sorts into a single run
        from cablerecon.fitting import refine_merged

        merged = merge_clouds(poly.ordered_points(), cloud)
        refined = refine_merged(merged, params)
        final = sort_and_find_endpoints(refined, PLANE, params.r_search)
        assert len(final.segments) == 1

    def test_monotone_progress_per_walk(self):
        scene, poly, _ = gap_fixture()
        params = ReconParams()
        result = explore_from_endpoints(
            poly, PLANE, partial(probe, scene), params, top=TOP
        )
        per_walk: dict[int, list[np.ndarray]] = {}
        for row in result.trace:
            if row["accepted"]:
                per_walk.setdefault(row["endpoint_id"], []).append(
                    np.array([float(row["px"]), float(row["py"]), float(row["pz"])])
                )
        for pts in per_walk.values():
            steps = np.linalg.norm(np.diff(np.array(pts), axis=0), axis=1)
            if len(steps):
                assert steps.max() <= params.delta_y + PAD_PITCH + 1e-9

    def test_true_dead_end_closes_after_a_full_turn(self):
        # a visual segment with no physical cable anywhere: every contact is
        # flat plane, so each walk should rotate a full turn and close
        scene = make_scene([])
        visual = np.column_stack([np.arange(0, 0.05, 0.015), np.zeros(4), np.zeros(4)])
        poly = sort_and_find_endpoints(visual, PLANE, 0.035)
        params = ReconParams()
        result = explore_from_endpoints(
            poly, PLANE, partial(probe, scene), params, top=0.0
        )
        assert len(result.tactile_cloud) == 0
        assert result.dead_ends == 2
        touches = [r for r in result.trace if r["touched"]]
        # one flat contact per rotation attempt per endpoint, none accepted
        assert len(touches) == 2 * params.max_rotation_attempts
        assert all(not r["accepted"] for r in touches)

    def test_probe_budget_enforced(self, monkeypatch):
        scene, poly, _ = gap_fixture()
        monkeypatch.setattr(explore, "PROBE_BUDGET", 10)
        with pytest.raises(ProbeBudgetError, match="all 10 probes used"):
            explore_from_endpoints(
                poly, PLANE, partial(probe, scene), ReconParams(), top=TOP
            )

    def test_trace_csv_written(self, tmp_path):
        scene, poly, _ = gap_fixture()
        result = explore_from_endpoints(
            poly, PLANE, partial(probe, scene), ReconParams(), top=TOP
        )
        result.save_trace_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("step,endpoint_id,r00")
        assert len(lines) == len(result.trace) + 1

    def test_centroid_uses_the_walks_pad(self):
        scene, poly, _ = gap_fixture()
        params = ReconParams()
        touches = []

        def recording_probe(pose):
            pressures = probe(scene, pose)
            if (pressures > EPS_CONTACT).any():
                touches.append((pressures, pose))
            return pressures

        result = explore_from_endpoints(poly, PLANE, recording_probe, params, top=TOP)
        rows = [r for r in result.trace if r["touched"]]
        accepted = [m for m, r in zip(touches, rows, strict=True) if r["accepted"]]
        assert len(accepted) == len(result.tactile_cloud) > 0
        for (pressures, pose), point in zip(accepted, result.tactile_cloud):
            assert point.tobytes() == _centroid(pressures, pose, PLANE).tobytes()


class TestTouch:
    """The walk, not the probe, decides a touch: a taxel above EPS_CONTACT."""

    def descend(self, maps, params, top=0.0):
        """Descend over `maps` in turn; (returned map, trace rows, probe calls)."""
        calls = []

        def fake_probe(pose):
            calls.append(pose)
            return maps[len(calls) - 1]

        trace = []
        pose, pressures = _descend(
            fake_probe, np.eye(3), np.zeros(3), PLANE, params, trace, 0, top=top
        )
        assert pose is calls[-1]
        return pressures, trace, calls

    def test_a_taxel_at_eps_contact_is_no_touch(self):
        params = ReconParams()
        at = np.zeros((6, 2))
        at[4, 1] = EPS_CONTACT
        above = at.copy()
        above[4, 1] = np.nextafter(EPS_CONTACT, np.inf)
        level = np.full((6, 2), EPS_CONTACT)
        pressures, rows, calls = self.descend([at, level, above], params)
        assert pressures.tobytes() == above.tobytes()
        assert len(calls) == 3 and [r["touched"] for r in rows] == [0, 0]
        # each probe is one delta_z lower than the one before
        heights = [PLANE.signed_distance(pose.translation)[0] for pose in calls]
        assert np.allclose(np.diff(heights), -params.delta_z)

    @pytest.mark.parametrize("steps, refused", [(9999.5, False), (10000.5, True)])
    def test_in_air_steps_past_the_budget_are_refused(self, steps, refused):
        # down to top = 0 the in-air steps number HOVER_HEIGHT / delta_z; they
        # cost no budget, and PROBE_BUDGET bounds them
        assert explore.PROBE_BUDGET == 10000
        params = ReconParams(delta_z=HOVER_HEIGHT / steps)
        touch = np.ones((6, 2))
        if refused:
            with pytest.raises(ProbeBudgetError, match="unprobed steps"):
                self.descend([touch], params)
        else:
            _, rows, calls = self.descend([touch], params)
            assert len(calls) == 1 and rows == []

    @pytest.mark.parametrize("steps", [0.5, 3.3, 6.9, 7.1])
    def test_above_hover_height_the_lattice_starts_at_or_above_top(self, steps):
        # a cable thicker than HOVER_HEIGHT / 2: the first probe is the
        # highest step of the lattice through HOVER_HEIGHT at or below top
        # (top off the lattice: on it, rounding decides which side it lies)
        params = ReconParams()
        top = HOVER_HEIGHT + steps * params.delta_z
        air, touch = np.zeros((6, 2)), np.ones((6, 2))
        _, rows, calls = self.descend([air, touch], params, top=top)
        first, second = (PLANE.signed_distance(pose.translation)[0] for pose in calls)
        assert top - params.delta_z < first <= top and len(rows) == 1
        assert first - second == pytest.approx(params.delta_z)
        lattice = (first - HOVER_HEIGHT) / params.delta_z
        assert lattice == pytest.approx(round(lattice)) and round(lattice) == int(steps)

    def test_unprobed_steps_up_past_the_budget_are_refused(self):
        params = ReconParams()
        with pytest.raises(ProbeBudgetError, match="unprobed steps"):
            self.descend([np.ones((6, 2))], params, top=HOVER_HEIGHT + 10000.5 * params.delta_z)

    def test_a_taxel_just_above_eps_contact_touches_at_once(self):
        params = ReconParams()
        above = np.zeros((6, 2))
        above[0, 0] = np.nextafter(EPS_CONTACT, np.inf)
        pressures, rows, calls = self.descend([above], params)
        assert pressures.tobytes() == above.tobytes()
        assert len(calls) == 1 and rows == []


class TestTraceRows:
    COLUMNS = [
        "step", "endpoint_id",
        "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
        "tx", "ty", "tz", "touched", "indicator", "accepted",
        "px", "py", "pz",
    ]

    def test_pose_text_and_csv_equal_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(8)
        randoms = rng.normal(size=300) * 10.0 ** rng.uniform(-300, 300, 300)
        values = np.concatenate([[-0.0, 5e-324, 1e300, -1e300], randoms, np.ones(8)])
        trace = []
        for k, chunk in enumerate(values.reshape(-1, 12)):
            pose = SimpleNamespace(rotation=chunk[:9].reshape(3, 3), translation=chunk[9:])
            # k % 4: 0 and 2 in the air, 1 an accepted touch, 3 a rejected one
            p_new = chunk[:3] if k % 4 == 1 else None
            _log(trace, k % 3, pose, chunk[4] if k % 2 else None, p_new)
        for k, (chunk, row) in enumerate(zip(values.reshape(-1, 12), trace, strict=True)):
            assert list(row) == self.COLUMNS and row["step"] == k
            assert [row[c] for c in POSE_COLUMNS] == [_fmt(x) for x in chunk]
            assert (row["touched"], row["accepted"]) == (k % 2, int(k % 4 == 1))
            assert row["indicator"] == (_fmt(chunk[4]) if k % 2 else "")
            point = [_fmt(x) for x in chunk[:3]] if k % 4 == 1 else ["", "", ""]
            assert [row["px"], row["py"], row["pz"]] == point
        ExplorationResult(np.zeros((0, 3)), trace=trace).save_trace_csv(tmp_path / "t.csv")
        lines = [",".join(self.COLUMNS)]
        lines += [",".join(str(row[c]) for c in self.COLUMNS) for row in trace]
        assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"


class TestMergeClouds:
    def test_is_the_stack_of_visual_then_tactile(self, rng):
        visual = rng.normal(size=(12, 3))
        tactile = rng.normal(size=(5, 3))
        out = merge_clouds(visual, tactile)
        assert out.shape == (17, 3)
        assert out.tobytes() == np.vstack([visual, tactile]).tobytes()

    def test_empty_tactile_is_identity(self, rng):
        visual = rng.normal(size=(10, 3))
        out = merge_clouds(visual, np.zeros((0, 3)))
        assert np.allclose(out, visual)

    def test_disjoint_concatenation(self, rng):
        a = rng.normal(size=(10, 3))
        b = a + 5.0
        assert len(merge_clouds(a, b[:4])) == 14

    def test_exact_duplicate_is_kept(self, rng):
        # close points are merged by refine_merged, not here
        a = rng.normal(size=(10, 3))
        out = merge_clouds(a, a[3:4])
        assert len(out) == 11


def trace_rows(run_dir, cable):
    return (run_dir / cable["directory"] / "trace.csv").read_text().count("\n") - 1


class TestProbeBudgetBoundary:
    """The trace row count is the probe count, and the budget caps it."""

    @staticmethod
    def _run_with_budget(scenario, out, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explore, "PROBE_BUDGET", budget)
            return pipeline.run_pipeline(scenario, out)

    def test_budget_of_exactly_the_probes_used_changes_no_artifact(
        self, template_runs, scenario_files, tmp_path
    ):
        default = template_runs["cs1_occluded"]
        [cable] = default.manifest["cables"]
        assert cable["probes_used"] == trace_rows(default.out_dir, cable) > 0
        exact = self._run_with_budget(
            scenario_files["cs1_occluded"], tmp_path / "exact", cable["probes_used"]
        )
        assert exact.exit_status == pipeline.EXIT_COMPLETE
        assert exact.manifest["artifacts"] == default.manifest["artifacts"]

    def test_one_probe_fewer_exhausts_the_budget(self, template_runs, scenario_files, tmp_path):
        [cable] = template_runs["cs1_occluded"].manifest["cables"]
        out = tmp_path / "short"
        with pytest.raises(ProbeBudgetError):
            self._run_with_budget(scenario_files["cs1_occluded"], out, cable["probes_used"] - 1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == pipeline.EXIT_BUDGET
        assert manifest["failure"]["error"] == "ProbeBudgetError"
        assert manifest["failure"]["cable"] == cable["directory"]

    def test_the_budget_caps_each_cable_not_the_run(self, tmp_path, monkeypatch):
        # each cable's walk starts its own trace: 8 + 9 probes fit a budget of 10
        # (not 9: the 9.3 unprobed delta_z steps above the cable top outnumber it)
        path = tmp_path / "cs2_occluded.yaml"
        scenarios.save_scenario(path, scenarios.make_template("cs2_occluded", seed=1))
        default = pipeline.run_pipeline(path, tmp_path / "default")
        assert [c["probes_used"] for c in default.manifest["cables"]] == [8, 9]
        assert default.exit_status == pipeline.EXIT_COMPLETE
        ten = self._run_with_budget(path, tmp_path / "ten", 10)
        assert ten.exit_status == pipeline.EXIT_COMPLETE
        assert ten.manifest["artifacts"] == default.manifest["artifacts"]
        # two delta_z steps lower, the 7.3 unprobed steps fit a budget of 8
        lower = explore.HOVER_HEIGHT - 2 * ReconParams().delta_z
        monkeypatch.setattr(explore, "HOVER_HEIGHT", lower)
        out = tmp_path / "eight"
        with pytest.raises(ProbeBudgetError, match="all 8 probes used"):
            self._run_with_budget(path, out, 8)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == pipeline.EXIT_BUDGET
        assert manifest["failure"]["cable"] == "cable_01"
        assert [c["directory"] for c in manifest["cables"]] == ["cable_00"]

    @pytest.mark.parametrize("seed", [0, 1, 23])
    def test_probes_used_is_the_trace_row_count_under_noise(self, tmp_path, seed):
        doc = qvga_template("cs1_occluded", seed)
        doc["pressure_noise_sigma"] = 0.01
        path = tmp_path / "noisy.yaml"
        scenarios.save_scenario(path, doc)
        result = pipeline.run_pipeline(path, tmp_path / "run")
        assert result.manifest["cables"]
        for cable in result.manifest["cables"]:
            assert cable["probes_used"] == trace_rows(result.out_dir, cable) > 0
