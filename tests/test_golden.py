"""Golden artifact digest: the oracle for changes meant to keep output.

A speedup or refactor must leave every run artifact byte-identical. This
test runs one small occluded scene end to end and pins the sha256 of the
manifest's `artifacts` map (path -> sha256 of the file).
"""

import hashlib
import json

from cablerecon import pipeline, scenarios

# cs1_occluded, seed 1, intrinsics scaled by 0.5 to 320x240
GOLDEN_ARTIFACTS_SHA256 = (
    "850416c82b2edaade89dd0d379a81eccdb1a52d1f3420562e5db114340bbccfc"
)


def test_cs1_occluded_qvga_artifacts_match_the_golden_digest(tmp_path):
    doc = scenarios.make_template("cs1_occluded", seed=1)
    cam = doc["camera"]
    for key in ("fx", "fy", "cx", "cy"):
        cam[key] = float(cam[key]) * 0.5
    cam["width"], cam["height"] = 320, 240
    path = tmp_path / "cs1_occluded_qvga.yaml"
    scenarios.save_scenario(path, doc)

    result = pipeline.run_pipeline(path, tmp_path / "run")

    assert result.exit_status == pipeline.EXIT_COMPLETE
    artifacts = json.dumps(result.manifest["artifacts"], sort_keys=True)
    digest = hashlib.sha256(artifacts.encode()).hexdigest()
    assert digest == GOLDEN_ARTIFACTS_SHA256, (
        "run artifacts changed. If the output change is intended, update "
        "GOLDEN_ARTIFACTS_SHA256 and explain the change and its new accuracy "
        "numbers in CHANGES.md; otherwise the change broke byte-identity."
    )
