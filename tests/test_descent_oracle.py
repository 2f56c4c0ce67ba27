"""The descent that skips in-air steps against a copy of the one that probed them.

`explore._descend` keeps the delta_z height lattice that starts
HOVER_HEIGHT above the plane but probes only from `top` down, where `top`
is the tallest surface in the scene (2r of the thickest cable) plus the
fitted plane's `fit_error`. At sigma = 0 a probe above it reads exactly 0
pressure, so every run artifact must equal, bit for bit, a run with the
descent that probed every step (copied here as the oracle), except
`trace.csv`, which loses only its untouched rows above the clearance.
"""

import csv
import io
from functools import partial

import numpy as np
import pytest

from cablerecon import cloudproc, explore, pipeline, scenarios
from cablerecon.cloudproc import PlaneModel, project_to_plane
from cablerecon.errors import DescentOverrunError, ProbeBudgetError
from cablerecon.explore import PAD_PITCH
from cablerecon.geom import Pose, ReconParams, frame_from_y_z
from cablerecon.worldsim import probe

from conftest import qvga_template
from test_worldsim import make_scene, straight_cable

SEED = 1
TRACE = "trace.csv"


def descend_every_step(
    probe_fn, rotation, target_on_plane, plane, params, trace, endpoint_id, top,
):
    """The descent before in-air steps were skipped: `top` is ignored."""
    normal = plane.normal
    pos = target_on_plane + explore.HOVER_HEIGHT * normal
    while True:
        pose = Pose(rotation.copy(), pos.copy())
        if len(trace) >= explore.PROBE_BUDGET:
            raise ProbeBudgetError("probe budget exhausted during exploration")
        pressures = probe_fn(pose)
        touched = (pressures > explore.EPS_CONTACT).any()
        if not touched:
            explore._log(trace, endpoint_id, pose)
        if touched:
            return pose, pressures
        height = float(plane.signed_distance(pos)[0])
        if height < -explore.DESCENT_LIMIT:
            raise DescentOverrunError(
                "probe descended past the plane without any contact"
            )
        pos = pos - params.delta_z * normal


CASES = [(tpl, width) for tpl in scenarios.TEMPLATES for width in (640, 320)]


def scenario(tmp_path, tpl, width):
    doc = qvga_template(tpl, SEED) if width == 320 else scenarios.make_template(tpl, seed=SEED)
    path = tmp_path / f"{tpl}_{width}.yaml"
    scenarios.save_scenario(path, doc)
    return path, 2 * max(c["radius"] for c in doc["cables"])


def read_trace(path):
    return list(csv.DictReader(io.StringIO(path.read_text())))


def height(plane, rows):
    """Height of each logged pad pose above the plane."""
    poses = np.array([[float(row[k]) for k in ("tx", "ty", "tz")] for row in rows])
    return plane.signed_distance(poses.reshape(-1, 3))


@pytest.fixture(scope="module", params=CASES, ids=[f"{t}_{w}" for t, w in CASES])
def run_pair(request, tmp_path_factory):
    """(new run, oracle run, clearance) of one template at one resolution; the
    clearance is the scene's `top` plus the fit error of the run's plane."""
    tmp = tmp_path_factory.mktemp("descent")
    path, top = scenario(tmp, *request.param)
    planes = []
    ransac_plane = cloudproc.ransac_plane

    def recording_ransac_plane(*args, **kwargs):
        planes.append(ransac_plane(*args, **kwargs))
        return planes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cloudproc, "ransac_plane", recording_ransac_plane)
        new = pipeline.run_pipeline(path, tmp / "new")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explore, "_descend", descend_every_step)
        old = pipeline.run_pipeline(path, tmp / "old")
    [plane] = planes
    return new, old, top + plane.fit_error


def test_every_artifact_but_the_trace_is_unchanged(run_pair):
    new, old, _ = run_pair
    assert new.exit_status == old.exit_status == pipeline.EXIT_COMPLETE
    new_artifacts, old_artifacts = new.manifest["artifacts"], old.manifest["artifacts"]
    assert new_artifacts.keys() == old_artifacts.keys()
    traces = [name for name in new_artifacts if name.endswith("/" + TRACE)]
    assert len(traces) == len(new.manifest["cables"]) > 0
    for name in new_artifacts.keys() - set(traces):
        assert new_artifacts[name] == old_artifacts[name], name


def test_the_trace_loses_only_untouched_rows_above_the_clearance(run_pair):
    new, old, clearance = run_pair
    plane = PlaneModel(np.asarray(new.manifest["plane"]))
    assert old.manifest["plane"] == new.manifest["plane"]
    skipped = 0
    for cable, old_cable in zip(new.manifest["cables"], old.manifest["cables"], strict=True):
        new_rows = read_trace(new.out_dir / cable["directory"] / TRACE)
        old_rows = read_trace(old.out_dir / cable["directory"] / TRACE)
        # the trace prints 9 significant digits, far inside the 0.5 mm
        # between the clearance and the nearest step of the height lattice
        low = height(plane, old_rows) <= clearance
        assert all(row["touched"] == "0" for row, kept in zip(old_rows, low) if not kept)
        assert (height(plane, new_rows) <= clearance).all()
        kept_rows = [row for row, kept in zip(old_rows, low) if kept]
        renumbered = [{**row, "step": str(i)} for i, row in enumerate(kept_rows)]
        assert new_rows == renumbered
        assert cable["probes_used"] == len(new_rows) < old_cable["probes_used"] == len(old_rows)
        skipped += len(old_rows) - len(new_rows)
    assert skipped > 0


RADIUS = 0.003


def first_touches(offset, fit_error, top):
    """(descent, oracle) first touches on a straight cable on z = 0, seen from a
    fitted plane `offset` above the true one that claims `fit_error`; each is
    (pose, pressures, trace rows). The target is half a pitch off the
    centreline, so one taxel row lies over the cable's top at 2r."""
    scene = make_scene([straight_cable(radius=RADIUS)])
    fitted = PlaneModel(np.array([0.0, 0.0, 1.0, -offset]), fit_error=fit_error)
    target = project_to_plane(np.array([0.01, PAD_PITCH / 2, 0.0]), fitted)[0]
    rotation = frame_from_y_z(np.array([1.0, 0.0, 0.0]), fitted.normal)
    touches = []
    for descend in (explore._descend, descend_every_step):
        trace = []
        pose, pressures = descend(
            partial(probe, scene), rotation, target, fitted, ReconParams(), trace, 0, top,
        )
        touches.append((pose, pressures, trace))
    return touches


@pytest.mark.parametrize("offset", [-1.4e-3, -0.7e-3, -0.3e-3, 0.0, 0.3e-3, 0.7e-3, 1.4e-3])
def test_the_first_touch_is_the_oracles_within_the_fit_error(offset):
    (pose, pressures, rows), (want_pose, want_pressures, want_rows) = first_touches(
        offset, abs(offset), 2 * RADIUS + abs(offset)
    )
    assert pose.translation.tobytes() == want_pose.translation.tobytes()
    assert pose.rotation.tobytes() == want_pose.rotation.tobytes()
    assert pressures.tobytes() == want_pressures.tobytes()
    # the descent logs the oracle's last in-air rows, renumbered from 0
    skipped = len(want_rows) - len(rows)
    assert skipped > 0
    assert rows == [{**row, "step": i} for i, row in enumerate(want_rows[skipped:])]


def test_without_the_fit_error_a_low_fitted_plane_skips_the_first_touch():
    # the lattice step 6.5 mm above a plane fitted 0.7 mm low is 5.8 mm above
    # the true one, under the 6 mm cable top: it touches, but it is above 2r
    (pose, _, _), (want_pose, _, _) = first_touches(-0.7e-3, 0.7e-3, 2 * RADIUS)
    lowered = want_pose.translation - ReconParams().delta_z * np.array([0.0, 0.0, 1.0])
    assert pose.translation == pytest.approx(lowered, abs=1e-12)


def test_a_descent_over_a_15_mm_cable_starts_at_its_top(tmp_path):
    # top (30 mm plus the fit error) is above HOVER_HEIGHT (20 mm): each
    # descent's lattice is extended upward, so none first touches inside
    # the tube. Probing from HOVER_HEIGHT, every descent here first touched
    # 10 mm under the cable's top and read pressures up to 10
    doc = scenarios.make_template("cs1_occluded", seed=SEED)
    for cable in doc["cables"]:
        cable["radius"] = 0.015
    path = tmp_path / "thick.yaml"
    scenarios.save_scenario(path, doc)
    planes = []
    ransac_plane = cloudproc.ransac_plane

    def recording_ransac_plane(*args, **kwargs):
        planes.append(ransac_plane(*args, **kwargs))
        return planes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cloudproc, "ransac_plane", recording_ransac_plane)
        result = pipeline.run_pipeline(path, tmp_path / "run")
    assert result.exit_status == pipeline.EXIT_COMPLETE
    [plane] = planes
    top = 2 * 0.015 + plane.fit_error
    lowest = top - ReconParams().delta_z - plane.fit_error
    touches = 0
    for cable in result.manifest["cables"]:
        rows = read_trace(result.out_dir / cable["directory"] / TRACE)
        faces = height(plane, rows)
        assert faces.max() <= top
        touched = [face for row, face in zip(rows, faces) if row["touched"] == "1"]
        assert min(touched) >= lowest
        touches += len(touched)
    assert touches >= 20
