"""Benchmark workloads and the scenario files they are built from.

Importing this module loads no part of cablerecon, so the benchmark can
name workloads before it times the package's cold import. Run as a script
it is the benchmark's set-up step, which every CLI call also pays: a fresh
interpreter imports `cablerecon.pipeline` and writes the workload's
scenario files.

    python3 perfbench/scenes.py <workload> <seed> <out_dir>
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (scene templates, camera intrinsics scale). No workload turns on
# pressure noise: at sigma 0.01 and 0.005 some seeds leave cs1_occluded
# partial or exhaust the probe budget, and a failing op cannot be timed.
WORKLOADS = {
    "plain_vga": (("cs1_plain", "cs2_plain"), 1.0),
    "occluded_vga": (("cs1_occluded", "cs2_occluded"), 1.0),
    "tactile_qvga": (("cs1_occluded", "cs2_occluded"), 0.5),
}


def scene_files(workload: str, out_dir: Path) -> list[tuple[str, Path, Path]]:
    """(scene name, scenario file, plain-twin scenario file) per scene."""
    templates = WORKLOADS[workload][0]
    return [
        (name, out_dir / f"{name}.yaml", out_dir / f"{name}.twin.yaml")
        for name in templates
    ]


def _scaled(doc: dict, scale: float) -> dict:
    cam = doc["camera"]
    for key in ("fx", "fy", "cx", "cy"):
        cam[key] = float(cam[key]) * scale
    cam["width"] = int(round(cam["width"] * scale))
    cam["height"] = int(round(cam["height"] * scale))
    return doc


def write_scenes(workload: str, seed: int, out_dir: Path) -> None:
    """Write every scenario of `workload` and its plain twin (same camera,
    no occluder) under `out_dir`. The benchmark seed is every scenario's seed."""
    from cablerecon import scenarios

    scale = WORKLOADS[workload][1]
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, path, twin_path in scene_files(workload, out_dir):
        twin = name.replace("_occluded", "_plain")
        doc = _scaled(scenarios.make_template(name, seed), scale)
        twin_doc = _scaled(scenarios.make_template(twin, seed), scale)
        scenarios.save_scenario(path, doc)
        scenarios.save_scenario(twin_path, twin_doc)


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv
    sys.path.insert(0, str(SRC))
    import cablerecon.pipeline  # noqa: F401  (the cold import being timed)

    write_scenes(workload, int(seed), Path(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
