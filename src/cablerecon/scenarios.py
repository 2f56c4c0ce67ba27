"""Scenario files: declarative scenes, their YAML schema, and templates.

A scenario declares the support plane, the cables (3D control points,
radius, color), occluder boxes, the camera, a seed, and optional parameter
overrides. Templates mirror the bench case studies: a single
self-intersecting cable on an inclined plane (cs1_*) and two differently
colored cables on a horizontal plane (cs2_*), each plain or occluded.
"""

from __future__ import annotations

import numpy as np

from .cloudproc import PlaneModel, project_to_plane
from .fitting import bspline_from_control_points
from .errors import DegenerateGeometryError
from .geom import UNIT_TOL, Pose, checked, frame_from_y_z, normalize, read
from .imgproc import CameraIntrinsics
from .worldsim import GroundTruthCable, WorldScene
from .yamlio import load_yaml, save_yaml

SCHEMA_VERSION = 1


def _fmt(x: float) -> float:
    return float(f"{float(x):.9g}")


def _vec(v) -> list[float]:
    return [_fmt(x) for x in np.asarray(v, dtype=float)]


def save_scenario(path, doc: dict) -> None:
    save_yaml(path, doc)


def load_scenario(path, seed: int | None = None) -> tuple[dict, WorldScene]:
    """The scenario at `path`, its seed replaced by `seed` if given, and its scene."""
    where = f"scenario {path}"
    doc = checked(load_yaml(path), "a mapping", where)
    if read(doc, "schema_version", where, "an integer > 0") != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema_version: {doc['schema_version']!r}")
    if seed is not None:
        doc["seed"] = seed
    return doc, build_scene(doc, where)


def _known(mapping: dict, keys: str, where: str) -> dict:
    """`mapping`, or a ValueError naming its first key that is not one of `keys`."""
    for key in mapping:
        if key not in keys.split():
            raise ValueError(f"{where} has unknown key {key!r}")
    return mapping


def build_scene(doc: dict, where: str) -> WorldScene:
    """Check and instantiate the world of a scenario document; errors begin with `where`.

    Every mapping holds only the keys of its schema, so a misspelled key is
    an error, not a default. Cable control points are projected onto the
    declared plane and lifted by one radius along its normal, which pins
    every centerline exactly one radius above the support surface.
    """
    _known(doc, "schema_version seed plane cables occluders camera pressure_noise_sigma", where)
    plane_doc = _known(read(doc, "plane", where, "a mapping"), "point normal", f"{where} plane")
    point = read(plane_doc, "point", f"{where} plane", "3 finite numbers")
    normal = read(plane_doc, "normal", f"{where} plane", "3 finite numbers, not all 0")
    cam = f"{where} camera"
    cam_doc = _known(read(doc, "camera", where, "a mapping"),
                     "fx fy cx cy width height position look_at up_hint", cam)
    cam_pos = read(cam_doc, "position", cam, "3 finite numbers")
    look_dir = read(cam_doc, "look_at", cam, "3 finite numbers") - cam_pos
    if np.linalg.norm(look_dir) < UNIT_TOL:
        raise ValueError(f"{cam} look_at must differ from its position")
    up_hint = read(cam_doc, "up_hint", cam, "3 finite numbers", [0.0, 1.0, 0.0])
    try:
        rotation = frame_from_y_z(-up_hint, look_dir)
    except DegenerateGeometryError:
        raise ValueError(f"{cam} up_hint must not be zero or within 1 degree of the view") from None
    intr = CameraIntrinsics(
        fx=read(cam_doc, "fx", cam, "a finite number > 0"),
        fy=read(cam_doc, "fy", cam, "a finite number > 0"),
        cx=read(cam_doc, "cx", cam, "a finite number"),
        cy=read(cam_doc, "cy", cam, "a finite number"),
        pose=Pose(rotation, cam_pos),
    )

    normal = normalize(normal)
    if np.dot(normal, cam_pos - point) < 0:
        normal = -normal
    plane = PlaneModel(np.append(normal, -np.dot(normal, point)))

    cables = []
    for i, cable_doc in enumerate(read(doc, "cables", where, "a list of mappings")):
        at = f"{where} cable {i}"
        _known(cable_doc, "color radius control_points", at)
        radius = read(cable_doc, "radius", at, "a finite number > 0")
        ctrl = read(cable_doc, "control_points", at,
                    "a list of at least 4 points of 3 finite numbers")
        on_plane = project_to_plane(ctrl, plane)
        cables.append(
            GroundTruthCable(
                centerline=bspline_from_control_points(on_plane + radius * plane.normal),
                radius=radius,
                color=read(cable_doc, "color", at, "3 numbers in [0, 255]"),
            )
        )

    occluders = []
    for i, box in enumerate(read(doc, "occluders", where, "a list of mappings", [])):
        at = f"{where} occluder {i}"
        _known(box, "min max", at)
        occluders.append((read(box, "min", at, "3 finite numbers"),
                          read(box, "max", at, "3 finite numbers")))

    return WorldScene(
        support_plane=plane,
        cables=cables,
        occluders=occluders,
        camera=intr,
        width=read(cam_doc, "width", cam, "an integer > 0"),
        height=read(cam_doc, "height", cam, "an integer > 0"),
        seed=read(doc, "seed", where, "an integer >= 0", 0),
        pressure_noise_sigma=read(doc, "pressure_noise_sigma", where, "a finite number >= 0", 0.0),
    )


def _limacon_uv(crossing_angle_deg: float, scale: float, n: int = 33) -> np.ndarray:
    """Open limacon with an inner loop: one self-crossing at the pole.

    r(phi) = b + a*cos(phi) with b = a*sin(half crossing angle) crosses
    itself at the pole exactly at the requested angle; cutting a short arc
    at phi = 0 leaves the two cable ends adjacent and far from the crossing.
    """
    a = scale
    b = a * np.sin(np.radians(crossing_angle_deg / 2.0))
    end_gap = 0.012  # meters between the two cable ends
    gap = end_gap / (2.0 * (a + b))  # radians removed around phi = 0
    phi = np.linspace(gap, 2.0 * np.pi - gap, n)
    r = b + a * np.cos(phi)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _oval_uv(r_u: float, r_v: float, center, gap_m: float, n: int = 25) -> np.ndarray:
    """Nearly closed oval whose two ends sit `gap_m` apart at angle 0."""
    gap = gap_m / (2.0 * r_v)
    phi = np.linspace(gap, 2.0 * np.pi - gap, n)
    c = np.asarray(center, dtype=float)
    return np.column_stack([c[0] + r_u * np.cos(phi), c[1] + r_v * np.sin(phi)])


def _uv_to_world(plane: PlaneModel, center_world: np.ndarray, uv: np.ndarray) -> np.ndarray:
    c_uv = plane.to_plane_coords(center_world)[0]
    return plane.from_plane_coords(uv + c_uv)


def _document(seed: int, normal, point, cables, occluders) -> dict:
    """A template's scenario document: the plane through `point` with
    `normal`, the (color, control points) `cables` and the (min, max)
    `occluders`; the camera sits 0.65 m above `point` along `normal` and
    looks at it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": int(seed),
        "plane": {"point": _vec(point), "normal": _vec(normal)},
        "cables": [
            {"color": color, "radius": 0.003, "control_points": [_vec(p) for p in ctrl]}
            for color, ctrl in cables
        ],
        "occluders": [{"min": _vec(lo), "max": _vec(hi)} for lo, hi in occluders],
        "camera": {
            "fx": 600.0,
            "fy": 600.0,
            "cx": 320.0,
            "cy": 240.0,
            "width": 640,
            "height": 480,
            "position": _vec(point + 0.65 * normal),
            "look_at": _vec(point),
            "up_hint": [0.0, 1.0, 0.0],
        },
        "pressure_noise_sigma": 0.0,
    }


def make_cs1(seed: int = 0, occluded: bool = False, crossing_angle_deg: float = 55.0) -> dict:
    """Single self-intersecting cable on a plane inclined by 15 degrees."""
    tilt = np.radians(15.0)
    normal = np.array([np.sin(tilt), 0.0, np.cos(tilt)])
    point = np.array([0.55, 0.0, 0.10])
    plane = PlaneModel(np.append(normal, -np.dot(normal, point)))

    uv_raw = _limacon_uv(crossing_angle_deg, scale=0.11)
    # recenter so the whole figure sits around the camera target
    shift = uv_raw.mean(axis=0)
    uv = uv_raw - shift
    ctrl = _uv_to_world(plane, point, uv)

    occluders = []
    if occluded:
        # the self-crossing sits at the limacon pole, uv (0,0) before the shift
        crossing_world = _uv_to_world(plane, point, (-shift)[None, :])[0]
        w = 0.035  # occluder half-width
        occluders.append((crossing_world - np.array([w, w, 0.02]),
                          crossing_world + np.array([w, w, 0.06])))
    return _document(seed, normal, point, [([30.0, 30.0, 33.0], ctrl)], occluders)


def make_cs2(seed: int = 0, occluded: bool = False) -> dict:
    """Two differently colored cables on a horizontal plane."""
    normal = np.array([0.0, 0.0, 1.0])
    point = np.array([0.55, 0.0, 0.0])
    plane = PlaneModel(np.append(normal, -np.dot(normal, point)))

    black_uv = _oval_uv(0.085, 0.105, center=(-0.165, 0.0), gap_m=0.012)
    blue_uv = _oval_uv(0.085, 0.105, center=(0.165, 0.0), gap_m=0.012)
    cables = [([25.0, 25.0, 28.0], _uv_to_world(plane, point, black_uv)),
              ([40.0, 80.0, 200.0], _uv_to_world(plane, point, blue_uv))]

    occluders = []
    if occluded:
        for uc in (-0.10, 0.10):
            center = _uv_to_world(plane, point, np.array([[uc, 0.09]]))[0]
            half = np.array([0.035, 0.045, 0.0])
            occluders.append((center - half - np.array([0, 0, 0.02]),
                              center + half + np.array([0, 0, 0.06])))
    return _document(seed, normal, point, cables, occluders)


# name -> (builder, occluded); a template is one entry
_TEMPLATES = {
    "cs1_plain": (make_cs1, False),
    "cs1_occluded": (make_cs1, True),
    "cs2_plain": (make_cs2, False),
    "cs2_occluded": (make_cs2, True),
}
TEMPLATES = tuple(_TEMPLATES)


def make_template(name: str, seed: int = 0) -> dict:
    if name not in _TEMPLATES:
        raise ValueError(f"unknown template {name!r}; valid templates: {', '.join(TEMPLATES)}")
    build, occluded = _TEMPLATES[name]
    return build(seed=seed, occluded=occluded)
