"""`pipeline.reconstruct` reads only the sensors: the images, the camera and
the tactile pad behind `probe_fn`, never the simulated scene."""

import ast
import hashlib
import inspect
import textwrap

import pytest

from cablerecon import pipeline, scenarios, worldsim
from conftest import qvga_template


def _pose_key(pose):
    return pose.rotation.tobytes() + pose.translation.tobytes()


def _digests(out):
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def qvga_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("qvga") / "cs2_occluded.yaml"
    scenarios.save_scenario(path, qvga_template("cs2_occluded", 1))
    return path


def _reconstruct(scenario, out, probe_fn):
    """`reconstruct` on the scenario's render, as the bench hands it over."""
    doc, scene = scenarios.load_scenario(scenario)
    rendered = worldsim.render(scene)
    out.mkdir()
    manifest = {"plane": None, "cables": []}
    status = pipeline.reconstruct(
        rendered.color, rendered.depth, rendered.union_cable_mask(), rendered.shelf_mask,
        scene.camera, probe_fn, pipeline._load_params(doc), scene.seed, out, manifest,
    )
    return status, manifest


def _assert_same_run(run, status, manifest, out):
    assert status == run.exit_status
    assert manifest["plane"] == run.manifest["plane"]
    assert manifest["cables"] == run.manifest["cables"]
    # the bench writes the scenario copy and the images; reconstruct writes the rest
    expected = {rel: digest for rel, digest in run.manifest["artifacts"].items()
                if rel != "scenario.yaml" and not rel.startswith("images/")}
    assert _digests(out) == expected


def test_replayed_probes_reproduce_every_artifact(qvga_scenario, tmp_path, monkeypatch):
    recorded = {}
    probe = worldsim.probe

    def recording(scene, pose):
        pressures = probe(scene, pose)
        recorded[_pose_key(pose)] = pressures.copy()
        return pressures

    monkeypatch.setattr(worldsim, "probe", recording)
    run = pipeline.run_pipeline(qvga_scenario, tmp_path / "run")
    monkeypatch.undo()
    assert recorded and sum(c["probes_used"] for c in run.manifest["cables"]) > 0

    def replay(pose):
        key = _pose_key(pose)
        if key not in recorded:
            raise AssertionError(f"a probe at a pose the run never probed: {pose}")
        return recorded[key].copy()

    status, manifest = _reconstruct(qvga_scenario, tmp_path / "replayed", replay)
    _assert_same_run(run, status, manifest, tmp_path / "replayed")


def test_no_probe_fn_is_the_no_tactile_run(qvga_scenario, tmp_path):
    run = pipeline.run_pipeline(qvga_scenario, tmp_path / "run", tactile=False)
    assert run.manifest["no_tactile"]
    status, manifest = _reconstruct(qvga_scenario, tmp_path / "untouched", None)
    _assert_same_run(run, status, manifest, tmp_path / "untouched")
    assert all(c["probes_used"] == 0 for c in manifest["cables"])


def test_the_body_of_reconstruct_names_no_part_of_the_simulator():
    source = textwrap.dedent(inspect.getsource(pipeline.reconstruct))
    assert "scene" not in source
    [func] = ast.parse(source).body
    names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
    names |= {arg.arg for arg in func.args.args}
    assert names.isdisjoint({"scene", "worldsim", "scenarios"})
    assert "probe_fn" in names
