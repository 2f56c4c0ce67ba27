import numpy as np
import pytest

from cablerecon import pipeline, scenarios

SEED = 7


def qvga_template(name, seed):
    """The template's scenario at 320x240: its 640x480 camera with fx, fy,
    cx and cy halved."""
    doc = scenarios.make_template(name, seed=seed)
    cam = doc["camera"]
    for key in ("fx", "fy", "cx", "cy"):
        cam[key] = float(cam[key]) * 0.5
    cam["width"], cam["height"] = 320, 240
    return doc


@pytest.fixture(scope="session")
def work_root(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


@pytest.fixture(scope="session")
def scenario_files(work_root):
    paths = {}
    for tpl in scenarios.TEMPLATES:
        path = work_root / f"{tpl}.yaml"
        scenarios.save_scenario(path, scenarios.make_template(tpl, seed=SEED))
        paths[tpl] = path
    return paths


@pytest.fixture(scope="session")
def template_runs(work_root, scenario_files):
    """One pipeline run per template, shared by every test that needs one."""
    runs = {}
    for tpl, path in scenario_files.items():
        runs[tpl] = pipeline.run_pipeline(path, work_root / tpl)
    return runs


@pytest.fixture(scope="session")
def no_tactile_run(work_root, scenario_files):
    return pipeline.run_pipeline(
        scenario_files["cs1_occluded"],
        work_root / "cs1_occluded_no_tactile",
        tactile=False,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
