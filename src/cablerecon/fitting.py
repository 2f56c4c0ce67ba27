"""Post-fusion reconstruction: second conditioning pass and B-spline fit.

The fit interpolates (it does not smooth): the pipeline has already
regularized the cloud through downsampling and midpoint merging, and the
tactile points carry real contacts that the curve must honor.

The fit and its evaluation are numpy, bit-equal to `scipy.interpolate`; the
one scipy call is LAPACK's banded solve `gbsv`, as in `make_interp_spline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import get_lapack_funcs

from .cloudproc import merge_close_points, voxel_downsample
from .geom import ReconParams, checked, read
from .yamlio import load_yaml

DEGREE = 3  # cubic: the ground-truth centerlines and the fitted models
_GBSV = get_lapack_funcs("gbsv", dtype=np.float64)


def _basis(t: np.ndarray, k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The span `ell` of nonzero width that holds each x of the domain (the last at its
    end), and row a = B_{ell-k+a}(x) of the k+1 B-splines nonzero there, by de Boor's
    recursion in the operation order of scipy's `_deBoor_D`; no denominator is 0."""
    n = len(t) - k - 1
    last = np.searchsorted(t, t[n]) - 1
    span = np.searchsorted(t, x, "right") - 1
    ell = np.minimum(span, last)
    near = t[ell + np.arange(1 - k, k + 1)[:, None]]  # near[r] = t[ell + r + 1 - k]
    left, right = x - near[:k], near[k:] - x
    h = np.zeros((k + 1, len(x)))
    h[0] = 1.0
    if last < n - 1:  # scipy takes the zero-width span n-1 at x = t[n]: every B-spline is 0
        h[0, span > last] = 0.0
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for i in range(1, j + 1):
            w = hh[i - 1] / (near[k + i - 1] - near[k + i - 1 - j])
            h[i - 1] += w * right[i - 1]
            h[i] = w * left[k + i - 1 - j]
    return ell, h


@dataclass
class BSplineCurve:
    """Clamped B-spline with a fixed sampling convention for export."""

    degree: int
    knots: np.ndarray
    control_points: np.ndarray
    sampling_count: int = 200

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.control_points = np.asarray(self.control_points, dtype=float)
        k, n = self.degree, len(self.control_points)
        if n < k + 1:
            raise ValueError("need at least degree+1 control points")
        if len(self.knots) != n + k + 1:
            raise ValueError("knot count must equal control points + degree + 1")
        if np.any(np.diff(self.knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if not (
            np.allclose(self.knots[: k + 1], self.knots[0])
            and np.allclose(self.knots[-k - 1 :], self.knots[-1])
        ):
            raise ValueError("end knots must be clamped to multiplicity degree+1")
        if not self.knots[k] < self.knots[n]:
            raise ValueError("parameter domain must not be empty")

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[-self.degree - 1])

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        """Points at parameters `ts`, NaN outside the domain: `BSpline(extrapolate=False)`."""
        x = np.asarray(ts, dtype=float).ravel()
        lo, hi = self.domain
        inside = (x >= lo) & (x <= hi)
        k = self.degree
        ell, h = _basis(self.knots, k, np.where(inside, x, lo))
        ctrl = np.take(self.control_points.T, ell + np.arange(-k, 1)[:, None], axis=1)
        out = np.zeros((3, len(x)))
        for a in range(k + 1):  # scipy's sum: from 0.0, in order of a
            out += ctrl[:, a] * h[a]
        out[:, ~inside] = np.nan
        return np.ascontiguousarray(out.T)

    def translated(self, offset: np.ndarray) -> "BSplineCurve":
        """Rigidly shifted copy (affine invariance of the control polygon)."""
        return BSplineCurve(
            degree=self.degree,
            knots=self.knots.copy(),
            control_points=self.control_points + np.asarray(offset, dtype=float),
            sampling_count=self.sampling_count,
        )


def refine_merged(cloud: np.ndarray, params: ReconParams) -> np.ndarray:
    """Voxel downsampling then midpoint merging: the conditioning of the
    skeleton cloud, run again on the fused cloud.

    After tactile exploration the merged cloud can be locally dense enough
    to confuse the direction-following sorter; the second pass restores the
    spacing guarantees of the first. Already-sparse clouds pass through
    with the same point set.
    """
    out = voxel_downsample(cloud, params.d_m)
    return merge_close_points(out, params.t_p)


def chord_length_params(points: np.ndarray) -> np.ndarray:
    """Cumulative chord lengths normalized to [0, 1]."""
    pts = np.asarray(points, dtype=float)
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = chords.sum()
    if total <= 0:
        raise ValueError("points have zero total chord length")
    params = np.concatenate([[0.0], np.cumsum(chords) / total])
    params[-1] = 1.0  # cumsum can overshoot the sum by one ulp
    return params


def _averaged_knots(params: np.ndarray, degree: int) -> np.ndarray:
    # interior knot j is the mean of params[j : j + degree], j = 1 .. n - degree - 1
    interior = sliding_window_view(params[1:], degree)[:-1].mean(axis=1)
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def _polyline_curve(points: np.ndarray, params: np.ndarray) -> BSplineCurve:
    # degree-1 clamped spline through the data is exactly the polyline
    knots = np.concatenate([[params[0]], params, [params[-1]]])
    return BSplineCurve(degree=1, knots=knots, control_points=points)


def fit_bspline(points: np.ndarray) -> BSplineCurve:
    """Interpolating spline through ordered points, chord-parameterized.

    Clamped knots come from knot averaging, so the curve starts and ends
    exactly at the first and last data points. Fewer points than DEGREE+1
    drop the degree; a degenerate collocation system falls back to the
    polyline through the data.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-12
    pts = pts[keep]
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct points to fit a curve")
    k = min(DEGREE, len(pts) - 1)
    params = chord_length_params(pts)
    knots = _averaged_knots(params, k)
    # the collocation matrix in LAPACK band storage: ab[2k + row - col, col]
    ell, h = _basis(knots, k, params)
    ab = np.zeros((3 * k + 1, len(pts)), order="F")
    for a in range(k + 1):
        ab[2 * k + np.arange(len(pts)) - (ell - k + a), ell - k + a] = h[a]
    _, _, ctrl, info = _GBSV(k, k, ab, pts, overwrite_ab=True)
    if info > 0:  # singular collocation
        return _polyline_curve(pts, params)
    return BSplineCurve(degree=k, knots=knots, control_points=ctrl)


def sample_curve(curve: BSplineCurve, n: int) -> np.ndarray:
    """n points at uniform parameter steps, both ends included."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    lo, hi = curve.domain
    ts = np.linspace(lo, hi, n)
    return curve.evaluate(ts)


def bspline_from_control_points(control_points: np.ndarray) -> BSplineCurve:
    """Clamped spline of DEGREE shaped by a control polygon (no interpolation)."""
    ctrl = np.asarray(control_points, dtype=float).reshape(-1, 3)
    interior = len(ctrl) - DEGREE - 1
    knots = np.concatenate(
        [
            np.zeros(DEGREE + 1),
            (np.arange(1, interior + 1)) / (interior + 1),
            np.ones(DEGREE + 1),
        ]
    )
    return BSplineCurve(degree=DEGREE, knots=knots, control_points=ctrl)


def save_spline(path, curve: BSplineCurve) -> None:
    lines = [f"degree: {curve.degree}", "knots:"]
    for t in curve.knots:
        lines.append(f"- {t:.9g}")
    lines.append("control_points:")
    for p in curve.control_points:
        lines.append(f"- [{p[0]:.9g}, {p[1]:.9g}, {p[2]:.9g}]")
    lines.append(f"sampling_count: {curve.sampling_count}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_spline(path) -> BSplineCurve:
    """The spline file at `path`, each value checked by its rule; an error names the file."""
    doc = checked(load_yaml(path), "a mapping", path)
    degree = read(doc, "degree", path, "an integer > 0")
    knots = read(doc, "knots", path, "a list of finite numbers")
    control_points = read(doc, "control_points", path, "a list of points of 3 finite numbers")
    count = read(doc, "sampling_count", path, "an integer >= 2", 200)
    try:
        return BSplineCurve(degree, knots, control_points, count)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
