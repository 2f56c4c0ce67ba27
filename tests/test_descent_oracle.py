"""The descent that skips in-air steps against a copy of the one that probed them.

`explore._descend` keeps the delta_z height lattice that starts
HOVER_HEIGHT above the plane but probes only from `top` + delta_z down,
where `top` is the tallest surface in the scene (2r of the thickest
cable). At sigma = 0 a probe above `top` reads exactly 0 pressure, so every
run artifact must equal, bit for bit, a run with the descent that probed
every step (copied here as the oracle), except `trace.csv`, which loses
only its untouched rows above the clearance.
"""

import csv
import io

import numpy as np
import pytest

from cablerecon import explore, pipeline, scenarios
from cablerecon.cloudproc import PlaneModel
from cablerecon.errors import DescentOverrunError, ProbeBudgetError
from cablerecon.geom import Pose, ReconParams

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
        if len(trace) >= params.probe_budget:
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
    doc = scenarios.make_template(tpl, seed=SEED)
    if width != 640:
        cam = doc["camera"]
        for key in ("fx", "fy", "cx", "cy"):
            cam[key] = float(cam[key]) * width / 640
        cam["width"], cam["height"] = width, width * 3 // 4
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
    """(new run, oracle run, top) of one template at one resolution."""
    tmp = tmp_path_factory.mktemp("descent")
    path, top = scenario(tmp, *request.param)
    new = pipeline.run_pipeline(path, tmp / "new")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explore, "_descend", descend_every_step)
        old = pipeline.run_pipeline(path, tmp / "old")
    return new, old, top


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
    new, old, top = run_pair
    plane = PlaneModel(np.asarray(new.manifest["plane"]))
    assert old.manifest["plane"] == new.manifest["plane"]
    clearance = top + ReconParams().delta_z
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
