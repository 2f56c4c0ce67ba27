"""Scenario files: declarative scenes, their YAML schema, and templates.

A scenario declares the support plane, the cables (3D control points,
radius, color), occluder boxes, the camera, a seed, and optional parameter
overrides. Templates mirror the bench case studies: a single
self-intersecting cable on an inclined plane (cs1_*) and two differently
colored cables on a horizontal plane (cs2_*), each plain or occluded.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from .cloudproc import PlaneModel
from .fitting import bspline_from_control_points
from .geom import UNIT_TOL, Pose, finite_number, finite_triple, frame_from_y_z, normalize
from .imgproc import CameraIntrinsics
from .worldsim import GroundTruthCable, WorldScene
from .yamlio import load_yaml, save_yaml

SCHEMA_VERSION = 1

TEMPLATES = ("cs1_plain", "cs1_occluded", "cs2_plain", "cs2_occluded")


def _fmt(x: float) -> float:
    return float(f"{float(x):.9g}")


def _vec(v) -> list[float]:
    return [_fmt(x) for x in np.asarray(v, dtype=float)]


def save_scenario(path, doc: dict) -> None:
    save_yaml(path, doc)


# required top-level keys -> keys each of their mappings must carry
REQUIRED_KEYS = {
    "plane": ("point", "normal"),
    "camera": ("position", "look_at", "fx", "fy", "cx", "cy", "width", "height"),
    "cables": ("radius", "control_points", "color"),
}


def _require(mapping, keys, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a mapping")
    for key in keys:
        if key not in mapping:
            raise ValueError(f"{where} is missing required key {key!r}")


def _require_number(value, where: str, kind=Real, allow_zero: bool = False) -> None:
    """A finite number of `kind` (never a bool), > 0 or, with allow_zero, >= 0."""
    if not (finite_number(value, kind) and (value >= 0 if allow_zero else value > 0)):
        what = "an integer" if kind is Integral else "a finite number"
        raise ValueError(f"{where} must be {what} {'>=' if allow_zero else '>'} 0, not {value!r}")


def _require_triple(value, where: str) -> None:
    if not finite_triple(value):
        raise ValueError(f"{where} must be 3 finite numbers, not {value!r}")


def load_scenario(path) -> dict:
    doc = load_yaml(path)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema_version: {version!r}")
    where = f"scenario {path}"
    _require(doc, REQUIRED_KEYS, where)
    plane, cam = doc["plane"], doc["camera"]
    _require(plane, REQUIRED_KEYS["plane"], f"{where} plane")
    _require(cam, REQUIRED_KEYS["camera"], f"{where} camera")
    _require_triple(plane["point"], f"{where} plane point")
    _require_triple(plane["normal"], f"{where} plane normal")
    _require_triple(cam["position"], f"{where} camera position")
    _require_triple(cam["look_at"], f"{where} camera look_at")
    # build_scene normalizes both directions
    if np.linalg.norm(np.asarray(plane["normal"], dtype=float)) < UNIT_TOL:
        raise ValueError(f"{where} plane normal must not be zero")
    if np.linalg.norm(np.subtract(cam["look_at"], cam["position"], dtype=float)) < UNIT_TOL:
        raise ValueError(f"{where} camera look_at must differ from its position")
    for key in ("width", "height"):
        _require_number(cam[key], f"{where} camera {key}", Integral)
    for key in ("fx", "fy"):
        _require_number(cam[key], f"{where} camera {key}")
    _require_number(doc.get("seed", 0), f"{where} seed", Integral, allow_zero=True)
    sigma = doc.get("pressure_noise_sigma", 0.0)
    _require_number(sigma, f"{where} pressure_noise_sigma", allow_zero=True)
    if not isinstance(doc["cables"], list):
        raise ValueError(f"{where} cables must be a list")
    for i, cable in enumerate(doc["cables"]):
        _require(cable, REQUIRED_KEYS["cables"], f"{where} cable {i}")
        _require_number(cable["radius"], f"{where} cable {i} radius")
        _require_triple(cable["color"], f"{where} cable {i} color")
        points = cable["control_points"]
        # a clamped cubic needs at least 4 control points
        if not (isinstance(points, list) and len(points) >= 4
                and all(map(finite_triple, points))):
            raise ValueError(
                f"{where} cable {i} control_points must be a list of at least 4 points "
                "of 3 finite numbers"
            )
    occluders = doc.get("occluders", [])
    if not isinstance(occluders, list):
        raise ValueError(f"{where} occluders must be a list")
    for i, box in enumerate(occluders):
        _require(box, ("min", "max"), f"{where} occluder {i}")
        for key in ("min", "max"):
            _require_triple(box[key], f"{where} occluder {i} {key}")
    return doc


def build_scene(doc: dict) -> WorldScene:
    """Instantiate the world described by a scenario document.

    Cable control points are projected onto the declared plane and lifted
    by one radius along its normal, which pins every centerline exactly one
    radius above the support surface.
    """
    plane_doc = doc["plane"]
    normal = normalize(np.asarray(plane_doc["normal"], dtype=float))
    point = np.asarray(plane_doc["point"], dtype=float)
    cam_doc = doc["camera"]
    cam_pos = np.asarray(cam_doc["position"], dtype=float)
    if np.dot(normal, cam_pos - point) < 0:
        normal = -normal
    plane = PlaneModel(np.append(normal, -np.dot(normal, point)))

    look_at = np.asarray(cam_doc["look_at"], dtype=float)
    up_hint = np.asarray(cam_doc.get("up_hint", [0.0, 1.0, 0.0]), dtype=float)
    look_dir = look_at - cam_pos
    rotation = frame_from_y_z(-up_hint, look_dir)
    intr = CameraIntrinsics(
        fx=float(cam_doc["fx"]),
        fy=float(cam_doc["fy"]),
        cx=float(cam_doc["cx"]),
        cy=float(cam_doc["cy"]),
        pose=Pose(rotation, cam_pos),
    )

    cables = []
    for cable_doc in doc["cables"]:
        radius = float(cable_doc["radius"])
        ctrl = np.asarray(cable_doc["control_points"], dtype=float)
        dist = plane.signed_distance(ctrl)
        on_plane = ctrl - dist[:, None] * plane.normal
        lifted = on_plane + radius * plane.normal
        cables.append(
            GroundTruthCable(
                centerline=bspline_from_control_points(lifted),
                radius=radius,
                color=np.asarray(cable_doc["color"], dtype=float),
            )
        )

    occluders = [
        (np.asarray(o["min"], dtype=float), np.asarray(o["max"], dtype=float))
        for o in doc.get("occluders", [])
    ]

    return WorldScene(
        support_plane=plane,
        cables=cables,
        occluders=occluders,
        camera=intr,
        width=int(cam_doc["width"]),
        height=int(cam_doc["height"]),
        seed=int(doc.get("seed", 0)),
        pressure_noise_sigma=float(doc.get("pressure_noise_sigma", 0.0)),
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


def _camera_doc(position, look_at) -> dict:
    return {
        "fx": 600.0,
        "fy": 600.0,
        "cx": 320.0,
        "cy": 240.0,
        "width": 640,
        "height": 480,
        "position": _vec(position),
        "look_at": _vec(look_at),
        "up_hint": [0.0, 1.0, 0.0],
    }


def _uv_to_world(plane: PlaneModel, center_world: np.ndarray, uv: np.ndarray) -> np.ndarray:
    c_uv = plane.to_plane_coords(center_world)[0]
    return plane.from_plane_coords(uv + c_uv)


def make_cs1(
    seed: int = 0,
    occluded: bool = False,
    crossing_angle_deg: float = 55.0,
    occluder_halfwidth: float = 0.035,
) -> dict:
    """Single self-intersecting cable on a plane inclined by 15 degrees."""
    tilt = np.radians(15.0)
    normal = np.array([np.sin(tilt), 0.0, np.cos(tilt)])
    point = np.array([0.55, 0.0, 0.10])
    plane = PlaneModel(np.append(normal, -np.dot(normal, point)))
    camera_pos = point + 0.65 * normal

    uv_raw = _limacon_uv(crossing_angle_deg, scale=0.11)
    # recenter so the whole figure sits around the camera target
    shift = uv_raw.mean(axis=0)
    uv = uv_raw - shift
    ctrl = _uv_to_world(plane, point, uv)

    occluders = []
    if occluded:
        # the self-crossing sits at the limacon pole, uv (0,0) before the shift
        crossing_world = _uv_to_world(plane, point, (-shift)[None, :])[0]
        w = occluder_halfwidth
        occluders.append(
            {
                "min": _vec(crossing_world - np.array([w, w, 0.02])),
                "max": _vec(crossing_world + np.array([w, w, 0.06])),
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "seed": int(seed),
        "plane": {"point": _vec(point), "normal": _vec(normal)},
        "cables": [
            {
                "color": [30.0, 30.0, 33.0],
                "radius": 0.003,
                "control_points": [_vec(p) for p in ctrl],
            }
        ],
        "occluders": occluders,
        "camera": _camera_doc(camera_pos, point),
        "pressure_noise_sigma": 0.0,
    }


def make_cs2(seed: int = 0, occluded: bool = False) -> dict:
    """Two differently colored cables on a horizontal plane."""
    normal = np.array([0.0, 0.0, 1.0])
    point = np.array([0.55, 0.0, 0.0])
    plane = PlaneModel(np.append(normal, -np.dot(normal, point)))
    camera_pos = point + 0.65 * normal

    black_uv = _oval_uv(0.085, 0.105, center=(-0.165, 0.0), gap_m=0.012)
    blue_uv = _oval_uv(0.085, 0.105, center=(0.165, 0.0), gap_m=0.012)
    black = _uv_to_world(plane, point, black_uv)
    blue = _uv_to_world(plane, point, blue_uv)

    occluders = []
    if occluded:
        for uc in (-0.10, 0.10):
            center = _uv_to_world(plane, point, np.array([[uc, 0.09]]))[0]
            half = np.array([0.035, 0.045, 0.0])
            occluders.append(
                {
                    "min": _vec(center - half - np.array([0, 0, 0.02])),
                    "max": _vec(center + half + np.array([0, 0, 0.06])),
                }
            )

    return {
        "schema_version": SCHEMA_VERSION,
        "seed": int(seed),
        "plane": {"point": _vec(point), "normal": _vec(normal)},
        "cables": [
            {
                "color": [25.0, 25.0, 28.0],
                "radius": 0.003,
                "control_points": [_vec(p) for p in black],
            },
            {
                "color": [40.0, 80.0, 200.0],
                "radius": 0.003,
                "control_points": [_vec(p) for p in blue],
            },
        ],
        "occluders": occluders,
        "camera": _camera_doc(camera_pos, point),
        "pressure_noise_sigma": 0.0,
    }


def make_template(name: str, seed: int = 0) -> dict:
    if name == "cs1_plain":
        return make_cs1(seed=seed, occluded=False)
    if name == "cs1_occluded":
        return make_cs1(seed=seed, occluded=True)
    if name == "cs2_plain":
        return make_cs2(seed=seed, occluded=False)
    if name == "cs2_occluded":
        return make_cs2(seed=seed, occluded=True)
    raise KeyError(
        f"unknown template {name!r}; valid templates: {', '.join(TEMPLATES)}"
    )
