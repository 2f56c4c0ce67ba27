"""Golden artifact digests: the oracle for changes meant to keep output.

A speedup or refactor must leave every run artifact byte-identical. These
tests run the six bench scene configurations end to end, from one table,
and pin the sha256 of the manifest's `artifacts` map (path -> sha256 of
the file). Among them, a small one-cable occluded scene, and the
two-cable plain and occluded scenes at the full 640x480. The two-cable
VGA scenes reach what the first does not: two pixel clusters, the winner
between two cables' depth buffers, a render window spanning two cables
and, on the occluded one, occluder footprints and a window cut by the
seams between render bands. `cs1_occluded` at 640x480 runs the
self-crossing and a 24-probe walk at full size.
"""

import csv
import hashlib
import io
import json
import tracemalloc

import pytest

from cablerecon import pipeline, scenarios, worldsim
from conftest import qvga_template

# every bench scene configuration, seed 1: (template, 320x240?, digest); 320x240
# is the template camera (640x480) with its intrinsics scaled by 0.5
GOLDEN_BENCH_SCENES = {
    "cs1_occluded_qvga": (
        "cs1_occluded", True,
        "57341a776d218782b5aa07c916ce9337f3540f177f71b251db1f6afd5f5351ce",
    ),
    "cs2_plain_vga": (
        "cs2_plain", False,
        "2a6dc7d4a43162c0f5b548b0bd2de63241a170fe37d5f57e8ec4dcffdacf74af",
    ),
    "cs2_occluded_vga": (
        "cs2_occluded", False,
        "76d764e15c5387dc69ae180a59e79b05b066e10b29184890b63c2c28492dfe61",
    ),
    "cs1_plain_vga": (
        "cs1_plain", False,
        "3a30864b4026c1d655a220368340ff139dfb563aaa812046a4bbb3b0f486f792",
    ),
    "cs1_occluded_vga": (
        "cs1_occluded", False,
        "25a1c5472ab8879610dff26264296ec23b1a1488ba4a2d59e4fae3df2c24e080",
    ),
    "cs2_occluded_qvga": (
        "cs2_occluded", True,
        "25d96503ce817cadc2afcb3c68c22f82c903b1b3e43f77ac9a3518e5001ae6f1",
    ),
}
MESSAGE = (
    "run artifacts changed. If the output change is intended, update the "
    "golden digest and explain the change and its new accuracy numbers in "
    "CHANGES.md; otherwise the change broke byte-identity."
)


def artifacts_digest(result) -> str:
    artifacts = json.dumps(result.manifest["artifacts"], sort_keys=True)
    return hashlib.sha256(artifacts.encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN_BENCH_SCENES)
def test_bench_scene_artifacts_match_the_golden_digest(case, tmp_path):
    template, qvga, digest = GOLDEN_BENCH_SCENES[case]
    doc = qvga_template(template, 1) if qvga else scenarios.make_template(template, seed=1)
    path = tmp_path / f"{case}.yaml"
    scenarios.save_scenario(path, doc)

    result = pipeline.run_pipeline(path, tmp_path / "run")

    assert result.exit_status == pipeline.EXIT_COMPLETE
    assert len(result.manifest["cables"]) == len(doc["cables"])
    assert artifacts_digest(result) == digest, MESSAGE


# no bench scene draws pressure noise or logs an in-air probe: this run does
# both, 29 probes of which 2 in the air; the digest was measured before the
# probe and walk were rewritten to cost fewer numpy calls
NOISY_SCENE = ("cs1_occluded", 0.02)  # 320x240, seed 1
NOISY_DIGEST = "6de6b7a47992e4145ca30cee76303e1a1174ca2d09a0f02bed35e33b82545c3d"


def test_a_noisy_run_matches_the_golden_digest(tmp_path):
    template, sigma = NOISY_SCENE
    doc = qvga_template(template, 1)
    doc["pressure_noise_sigma"] = sigma
    path = tmp_path / "noisy.yaml"
    scenarios.save_scenario(path, doc)

    result = pipeline.run_pipeline(path, tmp_path / "run")

    assert result.exit_status == pipeline.EXIT_COMPLETE
    [cable] = result.manifest["cables"]
    trace = (result.out_dir / cable["directory"] / "trace.csv").read_text()
    touched = [row["touched"] for row in csv.DictReader(io.StringIO(trace))]
    assert len(touched) == cable["probes_used"] == 29 and touched.count("0") == 2
    assert artifacts_digest(result) == NOISY_DIGEST, MESSAGE


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
