"""End-to-end orchestration: run a scenario, evaluate a run, plot a run.

`run_pipeline` is the simulated bench: it renders the scene, writes the
images and passes them, the camera and a probe of the scene's pad to
`reconstruct`, which reads only those sensors, never the scene. A run
directory holds its scenario, the images, every stage's cloud, the trace
and a manifest with the sha256 of every artifact; the same scenario and
seed reproduce every artifact byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import cloudproc, explore, fitting, imgproc, scenarios, topology, worldsim
from .errors import EmptyInputError, ProbeBudgetError
from .evaluation import curve_error, icp, truth_side_error
from .geom import ReconParams, checked, read
from .yamlio import load_yaml, save_yaml

EXIT_COMPLETE = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_BUDGET = 3

CANONICAL_CLOUDS = (
    "P_skeleton",
    "P_down",
    "P_proj",
    "P_sorted",
    "P_tactile",
    "P_merged",
    "P_interpolated",
)

MAX_PLANE_PIXELS = 20000

# what eval and plot read of each cable of a finished run's manifest, and its rule
CABLE_RULES = {
    "directory": "one path component", "color": "3 finite numbers",
    "final_segments": "an integer >= 0", "final_endpoints": "an integer >= 0",
    "probes_used": "an integer >= 0",
}


@dataclass
class RunResult:
    out_dir: Path
    exit_status: int
    manifest: dict  # as written to manifest.json; one record per cable under "cables"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_params(params_file=None) -> ReconParams:
    """The params file's values over the defaults."""
    doc = {} if params_file is None else load_yaml(params_file)
    overrides = checked({} if doc is None else doc, "a mapping", f"params file {params_file}")
    unknown = sorted(map(str, set(overrides) - {f.name for f in fields(ReconParams)}))
    if unknown:
        raise ValueError(f"unknown reconstruction parameter(s): {', '.join(unknown)}")
    return ReconParams(**overrides)


def _nearest(colors: np.ndarray, color) -> int:
    """The row of `colors` nearest to `color`."""
    return int(np.argmin(np.linalg.norm(colors - color, axis=1)))


def run_pipeline(
    scenario_path,
    out_dir,
    params_file=None,
    seed: int | None = None,
    tactile: bool = True,
) -> RunResult:
    """Run a scenario on the simulated bench: render it, write `images/`, and
    `reconstruct` from the images and the scene's tactile pad."""
    t_start = time.perf_counter()
    doc, scene = scenarios.load_scenario(scenario_path, seed)
    params = _load_params(params_file)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "scenario": "scenario.yaml",
        "seed": scene.seed,
        "no_tactile": not tactile,
        "params": asdict(params),
        "plane": None,
        "cables": [],
    }
    try:
        scenarios.save_scenario(out / "scenario.yaml", doc)
        rendered = worldsim.render(scene)
        images = out / "images"
        images.mkdir(exist_ok=True)
        union_mask = rendered.union_cable_mask()
        imgproc.save_ppm(images / "color.ppm", rendered.color)
        imgproc.save_depth(images / "depth.f32", rendered.depth)
        imgproc.save_pgm(images / "mask_union.pgm", union_mask)
        imgproc.save_pgm(images / "shelf.pgm", rendered.shelf_mask)
        for i, mask in enumerate(rendered.cable_masks):
            imgproc.save_pgm(images / f"mask_cable_{i:02d}.pgm", mask)
        # looked up here, per run, so a wrapper installed on worldsim.probe sees every probe
        probe_fn = functools.partial(worldsim.probe, scene) if tactile else None
        exit_status = reconstruct(rendered.color, rendered.depth, union_mask, rendered.shelf_mask,
                                  scene.camera, probe_fn, params, scene.seed, out, manifest)
    except Exception as exc:
        # a failed run still certifies what it wrote and says what failed
        manifest.setdefault("failure", _failure(None, exc))
        failed = EXIT_BUDGET if isinstance(exc, ProbeBudgetError) else EXIT_ERROR
        _write_manifest(out, manifest, failed, t_start)
        raise

    _write_manifest(out, manifest, exit_status, t_start)
    return RunResult(out_dir=out, exit_status=exit_status, manifest=manifest)


def _failure(cable: str | None, exc: Exception) -> dict:
    return {"cable": cable, "error": type(exc).__name__, "message": str(exc)}


def reconstruct(color, depth, cable_mask, shelf_mask, camera, probe_fn,
                params: ReconParams, seed: int, out: Path, manifest: dict) -> int:
    """Reconstruct every cable from the sensors alone; return the exit status.

    Reads the color and depth images, the union cable mask, the shelf mask
    and the camera (pose included), and touches the world only through
    `probe_fn` (pad pose -> (6, 2) pressures; None skips exploration). Fills
    `out` and the manifest's plane and cables; a failure names its cable.
    """
    current = None
    try:
        # support plane from the shelf pixels, exactly as on a real bench
        shelf_flat = np.flatnonzero(shelf_mask.data)
        stride = max(1, len(shelf_flat) // MAX_PLANE_PIXELS)
        shelf_pixels = np.column_stack(np.divmod(shelf_flat[::stride], depth.width))
        shelf_cloud = imgproc.pixels_to_cloud(shelf_pixels, depth, camera)
        plane = cloudproc.ransac_plane(shelf_cloud, seed=seed, orient_toward=camera.pose.translation)
        manifest["plane"] = [float(c) for c in plane.coefficients]

        cleaned = imgproc.blur_and_clean(cable_mask)
        clusters = imgproc.cluster_pixels(cleaned, color)
        if not clusters.clusters:
            raise EmptyInputError("no pixel cluster reaches MIN_CLUSTER_SIZE pixels")

        # the render stamps each cable pixel at its centerline's depth, one
        # radius above the plane: a cable's radius is its cloud's median height
        dense_clouds, radii = [], []
        for ci, cluster in enumerate(clusters.clusters):
            current = f"cable_{ci:02d}"
            dense = imgproc.pixels_to_cloud(cluster.pixels, depth, camera)
            dense_clouds.append(dense)
            radii.append(round(float(np.median(plane.signed_distance(dense))), 6))  # to 1 um
        # nothing is taller than the thickest cable, seen from a plane fitted within fit_error
        top = 2 * max(radii) + plane.fit_error

        for ci, (cluster, dense, radius) in enumerate(zip(clusters.clusters, dense_clouds, radii)):
            cable_dir = out / f"cable_{ci:02d}"
            current = cable_dir.name
            cable_dir.mkdir(exist_ok=True)
            cloudproc.save_ply(cable_dir / "P_dense.ply", dense)

            skeleton = imgproc.skeletonize(cluster.as_mask(depth.height, depth.width))
            # thinning keeps a subset of the cluster, whose pixels are in row-major order
            skeleton_pixels = cluster.pixels[skeleton.data[tuple(cluster.pixels.T)]]
            p_skeleton = imgproc.pixels_to_cloud(skeleton_pixels, depth, camera)
            cloudproc.save_ply(cable_dir / "P_skeleton.ply", p_skeleton)

            p_down = fitting.refine_merged(p_skeleton, params)
            cloudproc.save_ply(cable_dir / "P_down.ply", p_down)

            p_proj = cloudproc.project_to_plane(p_down, plane)
            cloudproc.save_ply(cable_dir / "P_proj.ply", p_proj)

            poly = topology.sort_and_find_endpoints(p_proj, plane, params.r_search)
            topology.save_sorted_csv(cable_dir / "P_sorted.csv", poly)

            result = (explore.explore_from_endpoints(poly, plane, probe_fn, params, top=top)
                      if probe_fn is not None else explore.ExplorationResult(np.zeros((0, 3))))
            result.save_trace_csv(cable_dir / "trace.csv")
            p_tactile = result.tactile_cloud
            cloudproc.save_ply(cable_dir / "P_tactile.ply", p_tactile)

            p_merged = explore.merge_clouds(poly.ordered_points(), p_tactile)
            cloudproc.save_ply(cable_dir / "P_merged.ply", p_merged)

            p_refined = fitting.refine_merged(p_merged, params)
            final = topology.sort_and_find_endpoints(p_refined, plane, params.r_search)
            topology.save_sorted_csv(cable_dir / "P_resorted.csv", final)

            # reconstructed curves live on the fitted plane; real centerlines
            # run one radius above it, so exported models are lifted back up
            lift = radius * plane.normal
            samples = []
            for sid, seg in enumerate(final.segments):
                if len(seg) < 2:
                    continue
                curve = fitting.fit_bspline(final.points[seg]).translated(lift)
                fitting.save_spline(cable_dir / f"spline_seg{sid:02d}.yaml", curve)
                samples.append(fitting.sample_curve(curve, curve.sampling_count))
            p_interp = np.vstack(samples) if samples else np.zeros((0, 3))
            cloudproc.save_ply(cable_dir / "P_interpolated.ply", p_interp)

            manifest["cables"].append({
                "directory": cable_dir.name,
                "color": [float(c) for c in cluster.mean_color],
                "radius": radius,
                "first_sort_segments": len(poly.segments),
                "final_segments": len(final.segments),
                "final_endpoints": 2 * len(final.segments),
                "tactile_points": len(p_tactile),
                "probes_used": result.probes_used,
                "dead_ends": result.dead_ends,
                "complete": len(final.segments) == 1 and len(samples) == 1,
            })
    except Exception as exc:
        manifest["failure"] = _failure(current, exc)
        raise
    return EXIT_COMPLETE if all(c["complete"] for c in manifest["cables"]) else EXIT_PARTIAL


def _write_manifest(out: Path, manifest: dict, exit_status: int, t_start: float) -> None:
    """Add the exit status and the sha256 of every artifact, write the manifest and timing."""
    manifest["exit_status"] = exit_status
    manifest["artifacts"] = {
        str(path.relative_to(out)): _sha256(path)
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in ("manifest.json", "timing.txt")
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (out / "timing.txt").write_text(f"{time.perf_counter() - t_start:.3f}\n")


def _read_manifest(run: Path) -> dict:
    """The manifest of a finished run; each value eval and plot read is checked, and
    each cable holds its CABLE_RULES keys, cast."""
    path = run / "manifest.json"
    try:
        manifest = checked(json.loads(path.read_text()), "a mapping", path)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if "failure" in manifest:
        failure = read(manifest, "failure", path, "a mapping")
        raise ValueError(f"{run}: the run failed ({failure.get('error')})")
    manifest["cables"] = [
        {key: read(cable, key, f"{path} cable {i}", rule) for key, rule in CABLE_RULES.items()}
        for i, cable in enumerate(read(manifest, "cables", path, "a list of mappings"))
    ]
    for key in read(manifest, "artifacts", path, "a mapping"):
        checked(key, "a relative path", f"{path} artifacts key")
    read(manifest, "plane", path, "4 finite numbers")
    checked(manifest["plane"][:3], "3 finite numbers, not all 0", f"{path} plane normal")
    return manifest


def _reference_dense_clouds(reference) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mean_color, dense cloud) pairs from a run dir or a scenario file."""
    ref = Path(reference)
    if ref.is_dir():
        return [(cable["color"], cloudproc.load_ply(ref / cable["directory"] / "P_dense.ply"))
                for cable in _read_manifest(ref)["cables"]]
    _, scene = scenarios.load_scenario(ref)
    rendered = worldsim.render(scene)
    out = []
    for cable, mask in zip(scene.cables, rendered.cable_masks):
        pixels = np.argwhere(mask.data)
        cloud = imgproc.pixels_to_cloud(pixels, rendered.depth, scene.camera)
        out.append((cable.color, cloud))
    return out


def evaluate_run(run_dir, reference, out_file=None) -> dict:
    """ICP against a dense unoccluded reference plus the simulation oracle.

    The source cloud is the run's interpolated model, the target the dense
    back-projected cable cloud of the reference (another run directory or a
    scenario file). Curve error compares each fitted spline against the
    generating centerline of the run's own scenario.
    """
    run = Path(run_dir)
    manifest = _read_manifest(run)
    _, scene = scenarios.load_scenario(run / "scenario.yaml")
    references = _reference_dense_clouds(reference)
    for where, cables in ((reference, references), (run / "scenario.yaml", scene.cables)):
        if not cables:
            raise ValueError(f"{where}: no cable to compare against")
    runtime = None
    timing = run / "timing.txt"
    if timing.exists():
        try:
            runtime = float(timing.read_text().strip())
        except ValueError as exc:
            raise ValueError(f"{timing}: {exc}") from None
        runtime = checked(runtime, "a finite number >= 0", timing)

    ref_colors = np.array([c for c, _ in references])
    truth_colors = np.array([c.color for c in scene.cables])
    rows = []
    for cable in manifest["cables"]:
        cable_dir = run / cable["directory"]
        recon = cloudproc.load_ply(cable_dir / "P_interpolated.ply")
        if len(recon) == 0:
            raise EmptyInputError(f"{cable_dir}: empty interpolated cloud")
        color = cable["color"]
        reg = icp(recon, references[_nearest(ref_colors, color)][1])

        truth = scene.cables[_nearest(truth_colors, color)]
        means, maxes, ends = [], [], []
        prefix = f"{cable['directory']}/spline_seg"  # the certified splines, not a glob
        for rel in sorted(r for r in manifest["artifacts"] if r.startswith(prefix)):
            curve = fitting.load_spline(run / rel)
            mean_d, max_d = curve_error(curve, truth)
            means.append(mean_d)
            maxes.append(max_d)
            ends.extend(fitting.sample_curve(curve, 2))
        coverage, gap_max, end_errors = truth_side_error(truth, recon, np.reshape(ends, (-1, 3)))
        rows.append(
            {
                "cable": cable["directory"],
                "color": [float(c) for c in color],
                "icp_rmse": float(reg.rmse),
                "icp_iterations": int(reg.iterations),
                "curve_mean_error": float(np.mean(means)) if means else None,
                "curve_max_error": float(np.max(maxes)) if maxes else None,
                "coverage": coverage,
                "gap_max_mm": 1e3 * gap_max,
                "end_error_mm": None if end_errors is None else [1e3 * e for e in end_errors],
                "segment_count": cable["final_segments"],
                "endpoint_count": cable["final_endpoints"],
                "probe_count": cable["probes_used"],
            }
        )

    report = {
        "run": str(run),
        "reference": str(reference),
        "runtime_s": runtime,
        "cables": rows,
    }
    if out_file is None:
        out_file = run / "eval_report.yaml"
    save_yaml(out_file, report)
    return report


def _svg(path: Path, title: str, uv: np.ndarray, ends: np.ndarray, line: bool) -> None:
    """Minimal deterministic SVG scatter in plane coordinates: the points `uv`,
    a red ring at each of `ends` (rows of `uv`) and, if `line`, the polyline
    through the points. The frame spans the points, or [-1, 1] if there are none."""
    size, margin = 640, 40
    lo, hi = (uv.min(axis=0), uv.max(axis=0)) if len(uv) else (np.full(2, -1.0), np.full(2, 1.0))
    scale = (size - 2 * margin) / np.maximum(hi - lo, 1e-6).max()
    # pixel x grows with u and pixel y falls with v, from the frame's lower left corner
    xy, ends_xy = ([margin, size - margin] + (p - lo) * scale * [1, -1] for p in (uv, ends))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{margin}" y="24" font-size="16" font-family="sans-serif">{title}</text>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="#888"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" stroke="#888"/>',
    ]
    if line and len(xy) >= 2:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in xy)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#2060c0" stroke-width="1.5"/>'
        )
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#303030"/>' for x, y in xy]
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="none" stroke="red" stroke-width="2"/>'
              for x, y in ends_xy]
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def plot_run(run_dir) -> list[Path]:
    """One SVG per canonical cloud of every cable; P_sorted rings its endpoints."""
    run = Path(run_dir)
    manifest = _read_manifest(run)
    plane = cloudproc.PlaneModel(np.asarray(manifest["plane"], dtype=float))
    written = []
    for cable in manifest["cables"]:
        cable_dir = run / cable["directory"]
        for name in CANONICAL_CLOUDS:
            ends = np.zeros((0, 3))
            if name == "P_sorted":
                poly = topology.load_sorted_csv(cable_dir / "P_sorted.csv")
                cloud, ends = poly.ordered_points(), poly.endpoints
            else:
                cloud = cloudproc.load_ply(cable_dir / f"{name}.ply")
            out_path = cable_dir / f"{name}.svg"
            _svg(out_path, f"{cable['directory']} {name}", plane.to_plane_coords(cloud),
                 plane.to_plane_coords(ends), line=name == "P_interpolated")
            written.append(out_path)
    return written
