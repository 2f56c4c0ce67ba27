"""Point-cloud conditioning: plane fit, downsampling, merging, projection.

Clouds are plain (N, 3) float arrays in the base frame. All operations are
pure and deterministic; RANSAC takes an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateGeometryError

RANSAC_INLIER_TOL = 0.003
RANSAC_MAX_ITERS = 500


def as_cloud(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.size and not np.isfinite(pts).all():
        raise ValueError("point cloud contains non-finite values")
    return pts


@dataclass
class PlaneModel:
    """Plane ax + by + cz + d = 0 with unit (a, b, c).

    The normal is oriented toward the viewpoint used at fit time, so it
    points away from the support surface, up into the workspace.
    `fit_error` is the largest distance of a fitted point from the plane,
    0.0 for a plane that was not fitted.
    """

    coefficients: np.ndarray  # (4,), (a, b, c) unit-norm
    inlier_count: int = 0
    fit_error: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        norm = np.linalg.norm(coeffs[:3])
        if norm < 1e-12:
            raise DegenerateGeometryError("plane normal is zero")
        self.coefficients = coeffs / norm
        n = self.normal
        ref = np.array([1.0, 0.0, 0.0])
        if abs(n[0]) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        u = ref - np.dot(ref, n) * n
        u = u / np.linalg.norm(u)
        self._basis = (u, np.cross(n, u))

    @property
    def normal(self) -> np.ndarray:
        return self.coefficients[:3]

    @property
    def offset(self) -> float:
        return float(self.coefficients[3])

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.normal + self.offset

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic in-plane orthonormal basis (u, v) with u x v = n,
        computed once at construction."""
        return self._basis

    def to_plane_coords(self, points: np.ndarray) -> np.ndarray:
        """2D (u, v) coordinates of points relative to the plane origin."""
        u, v = self.basis()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        origin = -self.offset * self.normal
        rel = pts - origin
        return np.column_stack([rel @ u, rel @ v])

    def from_plane_coords(self, uv: np.ndarray) -> np.ndarray:
        u, v = self.basis()
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        origin = -self.offset * self.normal
        return origin + uv[:, :1] * u + uv[:, 1:2] * v


def _plane_through(p0, p1, p2) -> np.ndarray | None:
    normal = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(normal)
    if norm < 1e-12:
        return None
    normal = normal / norm
    return np.append(normal, -np.dot(normal, p0))


def ransac_plane(cloud: np.ndarray, orient_toward: np.ndarray, seed: int) -> PlaneModel:
    """Best plane by inlier count over RANSAC_MAX_ITERS seeded 3-point hypotheses,
    stopping at the first one every point supports (only a larger count could
    replace it).

    The winning consensus set is refit by least squares (centroid plus the
    smallest covariance eigenvector), and the normal is flipped to point at
    `orient_toward` (the camera). The plane's `fit_error` is the largest
    distance of a consensus point from the refit.
    """
    pts = as_cloud(cloud)
    if len(pts) < 3:
        raise DegenerateGeometryError("plane fit needs at least 3 points")
    rng = np.random.default_rng(seed)
    best = None  # (inlier_count, hypothesis_index, coeffs)
    for it in range(RANSAC_MAX_ITERS):
        idx = rng.choice(len(pts), size=3, replace=False)
        coeffs = _plane_through(*pts[idx])
        if coeffs is None:
            continue
        dist = np.abs(pts @ coeffs[:3] + coeffs[3])
        count = int(np.count_nonzero(dist <= RANSAC_INLIER_TOL))
        if best is None or count > best[0]:
            best = (count, it, coeffs)
            if count == len(pts):
                break  # full consensus: no later hypothesis can beat it
    if best is None:
        raise DegenerateGeometryError("all RANSAC samples were collinear")
    if best[0] < 3:  # rounding can leave a hypothesis fewer points than it was drawn through
        raise DegenerateGeometryError(f"the best plane has a consensus of {best[0]} point(s)")

    inliers = pts[np.abs(pts @ best[2][:3] + best[2][3]) <= RANSAC_INLIER_TOL]
    centroid = inliers.mean(axis=0)
    cov = np.cov((inliers - centroid).T)
    eigvals, eigvecs = np.linalg.eigh(np.atleast_2d(cov))
    normal = eigvecs[:, 0]
    coeffs = np.append(normal, -np.dot(normal, centroid))

    if np.dot(coeffs[:3], np.asarray(orient_toward, dtype=float)) + coeffs[3] < 0:
        coeffs = -coeffs
    plane = PlaneModel(coeffs, inlier_count=int(best[0]))
    plane.fit_error = float(np.abs(plane.signed_distance(inliers)).max())
    return plane


def voxel_downsample(cloud: np.ndarray, d_m: float) -> np.ndarray:
    """One centroid per occupied voxel of edge `d_m`, the grid anchored at the origin.

    Output order is lexicographic in the voxel index, so the result is
    independent of input ordering.
    """
    if d_m <= 0:
        raise ValueError("voxel size must be positive")
    pts = as_cloud(cloud)
    with np.errstate(over="ignore"):
        bins = np.floor(pts / d_m)
    if not ((bins >= -(2.0**63)) & (bins < 2.0**63)).all():  # the range of int64
        raise ValueError(f"voxel size {d_m:g} is too small: its bin indices overflow int64")
    bins = bins.astype(np.int64)
    uniq, inverse = np.unique(bins, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(float)
    return sums / counts[:, None]


def merge_close_points(cloud: np.ndarray, t_p: float) -> np.ndarray:
    """Collapse the closest pair under `t_p` to its midpoint, repeatedly.

    Iterates until every pairwise distance is at least `t_p`; the guarantee
    is what keeps the direction-following sorter stable on the result. Ties
    on distance break by lexicographic point order.
    """
    if t_p <= 0:
        raise ValueError("merge threshold must be positive")
    pts = as_cloud(cloud).copy()
    while len(pts) > 1:
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        dmin = dist.min()
        if dmin >= t_p:
            break
        pairs = np.argwhere(np.triu(np.isclose(dist, dmin, rtol=0, atol=1e-12), 1))
        a, b = min(pairs.tolist(), key=lambda ab: (tuple(pts[ab[0]]), tuple(pts[ab[1]]), *ab))
        pts[a] = 0.5 * (pts[a] + pts[b])
        pts = np.delete(pts, b, axis=0)
    return pts


def project_to_plane(cloud: np.ndarray, plane: PlaneModel) -> np.ndarray:
    """Orthogonal projection of every point onto the plane."""
    pts = as_cloud(cloud)
    dist = plane.signed_distance(pts)
    return pts - dist[:, None] * plane.normal


def save_ply(path, cloud: np.ndarray) -> None:
    pts = as_cloud(cloud)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    body = "%.9g %.9g %.9g\n" * len(pts) % tuple(pts.ravel().tolist())
    Path(path).write_text("\n".join(lines) + "\n" + body)


def load_ply(path) -> np.ndarray:
    """The cloud of an ASCII x y z PLY file: its body must be exactly `element vertex`
    rows of 3 finite values, or it is a ValueError naming the file."""
    try:
        text = Path(path).read_text().splitlines()
        if "end_header" not in text:
            raise ValueError("missing PLY header terminator")
        end = text.index("end_header")
        declared = [line.split()[-1] for line in text[:end] if line.startswith("element vertex")]
        rows = [line.split() for line in text[end + 1 :] if line.strip()]
        count = int(declared[-1]) if declared else 0
        if len(rows) != count or any(len(row) != 3 for row in rows):
            raise ValueError(f"body is not the {count} rows of 3 values its header declares")
        return as_cloud([tuple(map(float, row)) for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
