"""Shared geometric primitives, frame conventions, and the rules of every value read.

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
_COS_1_DEG = np.cos(np.radians(1.0))  # frame_from_y_z's least angle between y and z
_EYE = np.eye(3)
_EYE_RTOL = 1e-5 * _EYE  # np.allclose's default rtol times |eye|


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float array, bit for bit, without its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = vector_norm(v)
    if n < UNIT_TOL:
        raise DegenerateGeometryError("cannot normalize a near-zero vector")
    return v / n


def is_rotation(mat: np.ndarray, tol: float = UNIT_TOL) -> bool:
    """True if `mat` is orthonormal with determinant +1 within `tol`."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        return False
    # np.allclose(mat.T @ mat, eye, atol=tol) with its default rtol, less its overhead
    if not (np.abs(mat.T @ mat - _EYE) <= tol + _EYE_RTOL).all():
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
    y_norm = vector_norm(y_raw)
    if y_norm < UNIT_TOL:
        raise DegenerateGeometryError("y direction is near zero")
    cos_angle = abs(float((y_raw / y_norm).dot(z)))
    if cos_angle > _COS_1_DEG:
        raise DegenerateGeometryError(
            "y and z directions are within 1 degree of parallel"
        )
    y = y_raw - y_raw.dot(z) * z
    (y0, y1, y2), (z0, z1, z2) = (y / vector_norm(y)).tolist(), z.tolist()
    # x = y cross z, each component rounded as np.cross rounds it
    x0, x1, x2 = y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0
    return np.array([[x0, y0, z0], [x1, y1, z1], [x2, y2, z2]])


def _finite(value, kind=numbers.Real) -> bool:
    """True for a finite number of the `numbers` ABC `kind`, never for a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    # NaN, the infinities and Python ints beyond the float range all fail
    return abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)


def _list_of(test, n=None, least=0):
    """The test for a list, tuple or array of items that pass `test`: `n` or at least `least`."""
    return lambda v: (isinstance(v, (list, tuple, np.ndarray)) and len(v) >= least
                      and (n is None or len(v) == n) and all(map(test, v)))


def _relative(path) -> bool:
    """True for a string of '/'-joined path components, none empty, '.', '..' or with a NUL."""
    return isinstance(path, str) and all(
        part not in ("", ".", "..") and "\0" not in part for part in path.split("/"))


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


_triple = _list_of(_finite, 3)
_SHALLOW = reprlib.Repr()
_SHALLOW.maxlevel = 1  # an error shows a value's items, not theirs: never a whole document

# every value read from a file, a flag or the environment passes one of these rules:
# the text an error prints -> (the test, the cast of a value that passes it)
RULES = {
    "an integer > 0": (lambda v: _finite(v, numbers.Integral) and v > 0, int),
    "an integer >= 0": (lambda v: _finite(v, numbers.Integral) and v >= 0, int),
    "an integer >= 2": (lambda v: _finite(v, numbers.Integral) and v >= 2, int),
    "a finite number > 0": (lambda v: _finite(v) and v > 0, float),
    "a finite number >= 0": (lambda v: _finite(v) and v >= 0, float),
    "a finite number": (_finite, float),
    "3 finite numbers": (_triple, _floats),
    # an RGB color: the camera holds only [0, 255] per channel
    "3 numbers in [0, 255]": (_list_of(lambda x: _finite(x) and 0 <= x <= 255, 3), _floats),
    # a normal, which normalize() takes if its norm reaches UNIT_TOL
    "3 finite numbers, not all 0": (lambda v: _triple(v) and math.hypot(*v) >= UNIT_TOL, _floats),
    "4 finite numbers": (_list_of(_finite, 4), _floats),
    "a list of finite numbers": (_list_of(_finite), _floats),
    "a list of points of 3 finite numbers": (_list_of(_triple), _floats),
    # a clamped cubic needs at least 4 control points
    "a list of at least 4 points of 3 finite numbers": (_list_of(_triple, least=4), _floats),
    "a mapping": (lambda v: isinstance(v, dict), dict),
    "a list of mappings": (_list_of(lambda x: isinstance(x, dict)), list),
    "one path component": (lambda v: _relative(v) and "/" not in v, str),
    "a relative path": (_relative, str),
}


def checked(value, rule: str, name: str):
    """`value` cast by RULES[rule]; a ValueError naming `name` if it breaks the rule."""
    test, cast = RULES[rule]
    if not test(value):
        raise ValueError(f"{name} must be {rule}, not {_SHALLOW.repr(value)}")
    return cast(value)


def read(mapping: dict, key, where, rule: str, default=None):
    """mapping[key], or `default` if it is absent (None: the key is required), checked
    and cast by `rule`; a ValueError begins with `where` and names the key."""
    if key not in mapping and default is None:
        raise ValueError(f"{where} is missing key {key!r}")
    return checked(mapping.get(key, default), rule, f"{where} {key}")


@dataclass
class ReconParams:
    """Every settable value of the reconstruction pipeline: the published
    defaults for cable reconstruction.

    Distances are meters, angles degrees. Each field is a finite number > 0
    (never a bool), and theta_deg divides 360.
    """

    d_min: float = 0.0150       # stop distance to an endpoint
    d_m: float = 0.0200         # voxel edge for downsampling
    t_p: float = 0.0080         # midpoint-merge distance threshold
    t_h: float = 0.0011         # contact-curvature indicator threshold
    delta_y: float = 0.0100     # advance step along the cable
    delta_z: float = 0.0015     # descent step toward the surface
    theta_deg: float = 15.0     # retry rotation about the plane normal

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, checked(getattr(self, f.name), "a finite number > 0", f.name))
        turns = 360.0 / self.theta_deg  # inf for a subnormal theta_deg
        if not math.isfinite(turns) or abs(turns - round(turns)) > 1e-9:
            raise ValueError(f"theta_deg must divide 360 evenly, not {self.theta_deg!r}")

    @property
    def r_search(self) -> float:
        """The sorter's neighbour radius."""
        return 1.75 * self.d_m

    @property
    def max_rotation_attempts(self) -> int:
        """The theta_deg turns in a full turn; that many in a row without progress end a walk."""
        return round(360.0 / self.theta_deg)
