"""The oracle for changes meant to keep output, and the render's memory.

`ledger.py` runs every pinned configuration end to end. Its two-cable VGA
scenes reach what the one-cable 320x240 scene does not: two pixel clusters,
the winner between two cables' depth buffers, a render window spanning two
cables and, on the occluded one, occluder footprints and a window cut by
the seams between render bands. `cs1_occluded` at 640x480 runs the
self-crossing and a 24-probe walk at full size.
"""

import csv
import io
import json
import tracemalloc

import pytest

import ledger
from cablerecon import pipeline, scenarios, worldsim

MESSAGE = ("ledger rows moved. If that is intended, re-pin with `PYTHONPATH=src python "
           "tests/ledger.py` and explain each moved row in CHANGES.md; otherwise the "
           "change broke byte-identity:\n")


def test_every_ledger_row_is_reproduced():
    moved = ledger.moved(json.loads(ledger.LEDGER.read_text()), ledger.rows())
    assert not moved, MESSAGE + "\n".join(moved)


def reproduced_row(cfg) -> dict:
    """The ledger row of `cfg`, computed afresh, once it matches its pinned row."""
    rid = ledger.name(cfg)
    pinned = json.loads(ledger.LEDGER.read_text())
    now = ledger.computed(cfg)
    moved = ledger.moved({rid: pinned[rid]} if rid in pinned else {}, {rid: now})
    assert not moved, MESSAGE + "\n".join(moved)
    return now


# every bench scene configuration, seed 1; 320x240 is the template camera
# (640x480) with its intrinsics scaled by 0.5
BENCH_SCENES = {
    "cs1_occluded_qvga": ledger.config("cs1_occluded", 1),
    "cs2_plain_vga": ledger.config("cs2_plain", 1, vga=True),
    "cs2_occluded_vga": ledger.config("cs2_occluded", 1, vga=True),
    "cs1_plain_vga": ledger.config("cs1_plain", 1, vga=True),
    "cs1_occluded_vga": ledger.config("cs1_occluded", 1, vga=True),
    "cs2_occluded_qvga": ledger.config("cs2_occluded", 1),
}


@pytest.mark.parametrize("case", BENCH_SCENES)
def test_bench_scene_artifacts_match_the_golden_digest(case):
    cfg = BENCH_SCENES[case]
    row = reproduced_row(cfg)
    assert row["exit"] == pipeline.EXIT_COMPLETE
    assert len(row["cables"]) == len(ledger.scenario(cfg)["cables"])


# no bench scene draws pressure noise or logs an in-air probe: this run does
# both, 29 probes of which 2 in the air
NOISY_SCENE = ledger.config("cs1_occluded", 1, sigma=0.02)


def test_a_noisy_run_matches_the_golden_digest(tmp_path):
    path = tmp_path / "noisy.yaml"
    scenarios.save_scenario(path, ledger.scenario(NOISY_SCENE))

    result = pipeline.run_pipeline(path, tmp_path / "run")

    assert result.exit_status == pipeline.EXIT_COMPLETE
    [cable] = result.manifest["cables"]
    trace = (result.out_dir / cable["directory"] / "trace.csv").read_text()
    touched = [row["touched"] for row in csv.DictReader(io.StringIO(trace))]
    assert len(touched) == cable["probes_used"] == 29 and touched.count("0") == 2
    row = reproduced_row(NOISY_SCENE)
    assert row["cables"][0]["probe_count"] == 29
    assert ledger.artifacts_digest(result.manifest["artifacts"]) == row["digest"], MESSAGE


# The outputs are about 4.3 MB: the 8-bit color image, the depth image and
# the masks. Above them, render holds the cable window (about 1.5 MB here)
# and the plane and occluder depths, surface index and colors of one band
# of about 64k pixels, freed before the next band is built: about 4.9 MB in
# all on this scene, a peak of about 9.2 MB (CPython 3.11, NumPy 2.4). The
# margin leaves the rest for allocator and version differences.
RENDER_PEAK_MARGIN = 14e6  # bytes


def traced_render(doc, tmp_path):
    """(traced peak, bytes of the outputs) of the render of scenario `doc`."""
    path = tmp_path / "scene.yaml"
    scenarios.save_scenario(path, doc)
    _, scene = scenarios.load_scenario(path)
    worldsim.render(scene)  # nothing allocated once per process is counted

    tracemalloc.start()
    try:
        out = worldsim.render(scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    images = [out.color, out.depth, out.shelf_mask, *out.cable_masks]
    return peak, sum(image.data.nbytes for image in images)


def test_cs2_occluded_vga_render_peak_stays_near_its_outputs(tmp_path):
    peak, outputs = traced_render(scenarios.make_template("cs2_occluded", seed=1), tmp_path)
    assert 4e6 < outputs < 5e6
    assert peak <= outputs + RENDER_PEAK_MARGIN, (peak, outputs)


def test_a_5_cm_cable_at_vga_renders_within_the_same_margin(tmp_path):
    # the stamp holds the disks of one chunk of samples, about BAND_PIXELS
    # pixels, at a time: about 9.9 MB here. Stamping all the samples of one
    # disk radius at once peaked at 1350 MB
    doc = scenarios.make_template("cs2_plain", seed=1)
    doc["cables"][0]["radius"] = 0.05
    peak, outputs = traced_render(doc, tmp_path)
    assert 4e6 < outputs < 5e6
    assert peak <= outputs + RENDER_PEAK_MARGIN, (peak, outputs)
