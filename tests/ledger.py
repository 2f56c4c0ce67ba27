"""The ledger: every pinned run of the suite, its exit code, digest and accuracy.

A row is one configuration run through `cablerecon run`: its exit code, the
sha256 of its manifest's `artifacts` map and, if the run exits 0 or 2, each
cable's `cablerecon eval` row against the same scene without occluders,
every float written %.9g. `ledger.json` holds the pinned rows, and
`test_golden.py` recomputes them. A change meant to move them re-pins the
file with `PYTHONPATH=src python tests/ledger.py`, then explains each moved
row of its `git diff` in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from cablerecon import cli, pipeline, scenarios
from conftest import qvga

LEDGER = Path(__file__).with_name("ledger.json")


def config(template, seed, vga=False, sigma=0.0, crossing_angle_deg=None) -> dict:
    cfg = {"template": template, "size": "640x480" if vga else "320x240", "seed": seed,
           "pressure_noise_sigma": sigma}
    if crossing_angle_deg is not None:
        cfg["crossing_angle_deg"] = crossing_angle_deg
    return cfg


CONFIGS = [
    # the six bench scenes
    *(config(template, 1, vga) for template, vga in [
        ("cs1_occluded", False), ("cs2_plain", True), ("cs2_occluded", True),
        ("cs1_plain", True), ("cs1_occluded", True), ("cs2_occluded", False)]),
    # pressure noise and in-air probes: 29 probes, 2 of them in the air
    config("cs1_occluded", 1, sigma=0.02),
    # criterion 8's scene: the cable crosses itself at 30 degrees under the occluder
    *(config("cs1_occluded", 7, vga, crossing_angle_deg=30.0) for vga in (True, False)),
    # the sigma = 0.01 envelope of README.md's "Pressure noise": partial on seeds 23,
    # 41 and 57, where the fused cloud re-sorts into two segments; on seed 34 a walk
    # that misses its endpoint reads flat contacts as cable until the budget runs out
    *(config("cs1_occluded", seed, sigma=0.01) for seed in range(60)),
]


def name(cfg) -> str:
    """The row's key: cs1_occluded_cross30_640x480_seed7, cs1_occluded_320x240_seed23_sigma0.01."""
    cross = f"_cross{cfg['crossing_angle_deg']:g}" if "crossing_angle_deg" in cfg else ""
    sigma = f"_sigma{cfg['pressure_noise_sigma']:g}" if cfg["pressure_noise_sigma"] else ""
    return f"{cfg['template']}{cross}_{cfg['size']}_seed{cfg['seed']}{sigma}"


def scenario(cfg) -> dict:
    if "crossing_angle_deg" in cfg:
        doc = scenarios.make_cs1(cfg["seed"], cfg["template"] == "cs1_occluded",
                                 cfg["crossing_angle_deg"])
    else:
        doc = scenarios.make_template(cfg["template"], cfg["seed"])
    doc["pressure_noise_sigma"] = cfg["pressure_noise_sigma"]
    return qvga(doc) if cfg["size"] == "320x240" else doc


def artifacts_digest(artifacts: dict) -> str:
    """The sha256 of a manifest's `artifacts` map (path -> sha256 of the file)."""
    return hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest()


def row(cfg) -> dict:
    """The ledger row of configuration `cfg`, computed afresh."""
    with tempfile.TemporaryDirectory() as tmp:
        scene, twin, run = (Path(tmp) / leaf for leaf in ("scene.yaml", "twin.yaml", "run"))
        doc = scenario(cfg)
        scenarios.save_scenario(scene, doc)
        scenarios.save_scenario(twin, {**doc, "occluders": []})
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(scene), "--out", str(run)])
        artifacts = json.loads((run / "manifest.json").read_text())["artifacts"]
        digest = artifacts_digest(artifacts)
        cables = None
        if code in (pipeline.EXIT_COMPLETE, pipeline.EXIT_PARTIAL):
            report = json.dumps(pipeline.evaluate_run(run, twin)["cables"])
            cables = json.loads(report, parse_float=lambda text: f"{float(text):.9g}")
    return {"config": cfg, "exit": code, "digest": digest, "cables": cables}


_COMPUTED = {}


def computed(cfg) -> dict:
    """row(cfg), computed once per process, so the tests that read one row share it."""
    key = name(cfg)
    if key not in _COMPUTED:
        _COMPUTED[key] = row(cfg)
    return _COMPUTED[key]


def rows() -> dict:
    return {name(cfg): computed(cfg) for cfg in CONFIGS}


def fields(value, path=""):
    """(path, value) of every number, string or null in `value`: `cables[0].coverage`."""
    if isinstance(value, (dict, list)):
        for key, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from fields(v, f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}")
    else:
        yield path.lstrip("."), value


def moved(pinned: dict, now: dict) -> list[str]:
    """One `row field: pinned -> now` line per value that differs between two tables of rows."""
    before, after = ({f"{rid} {path}": v for rid, r in table.items() for path, v in fields(r)}
                     for table in (pinned, now))
    absent = "<absent>"
    return [f"{key}: {before.get(key, absent)} -> {after.get(key, absent)}"
            for key in sorted(before.keys() | after.keys())
            if before.get(key, absent) != after.get(key, absent)]


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(rows(), indent=1) + "\n")
    print(LEDGER)
