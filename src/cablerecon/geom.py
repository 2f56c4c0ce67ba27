"""Shared geometric primitives and frame conventions.

Base frame is right-handed and z-up; every cloud and pose in the package
lives in this single frame. Rotation matrices use the column convention:
columns are the end-effector x, y, z axes expressed in the base frame.
Public angles are degrees; conversion to radians happens once, here.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateGeometryError

UNIT_TOL = 1e-9


def normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n < UNIT_TOL:
        raise DegenerateGeometryError("cannot normalize a near-zero vector")
    return np.asarray(v, dtype=float) / n


def is_rotation(mat: np.ndarray, tol: float = UNIT_TOL) -> bool:
    """True if `mat` is orthonormal with determinant +1 within `tol`."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        return False
    # np.allclose(mat.T @ mat, eye, atol=tol) with its default rtol, less its overhead
    eye = np.eye(3)
    if not (np.abs(mat.T @ mat - eye) <= tol + 1e-5 * eye).all():
        return False
    return abs(np.linalg.det(mat) - 1.0) <= tol


@dataclass
class Pose:
    """Rigid placement of a frame in the base frame.

    rotation: 3x3 matrix whose columns are the frame axes in base
    coordinates; translation: frame origin in meters.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if not is_rotation(self.rotation, tol=1e-8):
            raise ValueError("pose rotation must be orthonormal with det +1")

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map points (N,3) or (3,) from this frame into the base frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


def rotation_about_axis(axis: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis by `angle_deg` degrees."""
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-6:
        raise ValueError("rotation axis must be unit-norm")
    theta = np.radians(angle_deg)
    kx, ky, kz = axis
    k_cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return (
        np.eye(3)
        + np.sin(theta) * k_cross
        + (1.0 - np.cos(theta)) * (k_cross @ k_cross)
    )


def frame_from_y_z(y_dir: np.ndarray, z_dir: np.ndarray) -> np.ndarray:
    """Right-handed frame with z trusted and y corrected to be orthogonal.

    z column = normalize(z_dir); y column = y_dir minus its z component,
    normalized; x column = y x z. The z direction comes from the fitted
    plane and is kept exact; y comes from noisy cloud differences and is
    Gram-Schmidt corrected against z. Raises DegenerateGeometryError when
    the inputs are within 1 degree of parallel.
    """
    z = normalize(z_dir)
    y_raw = np.asarray(y_dir, dtype=float)
    y_norm = np.linalg.norm(y_raw)
    if y_norm < UNIT_TOL:
        raise DegenerateGeometryError("y direction is near zero")
    cos_angle = abs(float(np.dot(y_raw / y_norm, z)))
    if cos_angle > np.cos(np.radians(1.0)):
        raise DegenerateGeometryError(
            "y and z directions are within 1 degree of parallel"
        )
    y = y_raw - np.dot(y_raw, z) * z
    y = y / np.linalg.norm(y)
    x = np.cross(y, z)
    return np.column_stack([x, y, z])


# rule -> (accepted numbers ABC, stored type, range test, what the error asks for)
NUMBER_RULES = {
    "int > 0": (numbers.Integral, int, lambda v: v > 0, "an integer > 0"),
    "int >= 0": (numbers.Integral, int, lambda v: v >= 0, "an integer >= 0"),
    "int >= 2": (numbers.Integral, int, lambda v: v >= 2, "an integer >= 2"),
    "float > 0": (numbers.Real, float, lambda v: v > 0, "a finite number > 0"),
    "float >= 0": (numbers.Real, float, lambda v: v >= 0, "a finite number >= 0"),
    "float": (numbers.Real, float, lambda v: True, "a finite number"),
}


def finite_number(value, kind) -> bool:
    """True for a finite number of the `numbers` ABC `kind`, never for a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    # NaN, the infinities and Python ints beyond the float range all fail
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


def finite_triple(value) -> bool:
    """True for a list, tuple or array of 3 finite numbers (no bools)."""
    shaped = isinstance(value, (list, tuple, np.ndarray)) and len(value) == 3
    return shaped and all(finite_number(v, numbers.Real) for v in value)


def checked_number(value, rule: str, name: str):
    """`value` cast by a rule of NUMBER_RULES; a ValueError naming `name` if it breaks it."""
    kind, cast, in_range, what = NUMBER_RULES[rule]
    if not (finite_number(value, kind) and in_range(value)):
        raise ValueError(f"{name} must be {what}, not {reprlib.repr(value)}")
    return cast(value)


@dataclass
class ReconParams:
    """Every tunable value of the reconstruction pipeline, with its default.

    The first seven follow the published defaults for cable reconstruction;
    the rest are implementation parameters of this artifact. Distances are
    meters, angles degrees, pressures in simulated taxel units. Every scalar
    must be finite and > 0, an integer where the field is one (a bool is
    not); voxel_origin must be 3 finite numbers.
    """

    d_min: float = 0.0150       # stop distance to an endpoint
    d_m: float = 0.0200         # voxel edge for downsampling
    t_p: float = 0.0080         # midpoint-merge distance threshold
    t_h: float = 0.0011         # contact-curvature indicator threshold
    delta_y: float = 0.0100     # advance step along the cable
    delta_z: float = 0.0015     # descent step toward the surface
    theta_deg: float = 15.0     # retry rotation about the plane normal
    r_search: float = 0.0350    # sorter neighbor radius (1.75 * d_m)
    alpha_max_deg: float = 75.0  # sorter angular deviation cap
    max_rotation_attempts: int = 24  # 360 / theta_deg
    eps_contact: float = 0.05   # touch detection pressure threshold
    probe_budget: int = 10000   # hard cap on probe calls per run
    hover_height: float = 0.0200  # descent start height above the plane
    min_cluster_size: int = 30  # smaller pixel clusters are noise
    spatial_weight: float = 0.5  # pixel coordinates weighted against CIELAB units
    cut_threshold: float = 60.0  # MST edge length above which clusters separate
    voxel_origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        origin = self.voxel_origin
        if not finite_triple(origin):
            raise ValueError(f"voxel_origin must be 3 finite numbers, not {origin!r}")
        self.voxel_origin = tuple(map(float, origin))
        for f in fields(self):
            if f.type in ("int", "float"):
                value = checked_number(getattr(self, f.name), f"{f.type} > 0", f.name)
                setattr(self, f.name, value)
        ratio = 360.0 / self.theta_deg
        if self.max_rotation_attempts == round(ratio) and abs(
            ratio - round(ratio)
        ) > 1e-9:
            raise ValueError("theta_deg must divide 360 evenly")
