"""Reconstruction accuracy metrics: ICP alignment RMSE and, in simulation,
direct distance between the fitted curve and the generating centerline,
from the model's side and from the truth's."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateGeometryError
from .fitting import BSplineCurve, sample_curve
from .worldsim import GroundTruthCable

ICP_MAX_ITERS = 60
ICP_TOL = 1e-10
CURVE_SAMPLES = 200
COVERAGE_TOL = 0.003  # meters from the model within which a truth sample is covered


@dataclass
class RegistrationResult:
    rotation: np.ndarray
    translation: np.ndarray
    rmse: float
    iterations: int
    converged: bool
    rmse_history: list[float] = field(default_factory=list)


def _best_rigid(source: np.ndarray, target: np.ndarray):
    """Least-squares rigid transform mapping source onto target pairs."""
    cs = source.mean(axis=0)
    ct = target.mean(axis=0)
    h = (source - cs).T @ (target - ct)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = ct - r @ cs
    return r, t


def icp(source: np.ndarray, target: np.ndarray) -> RegistrationResult:
    """Point-to-point ICP aligning `source` onto `target`.

    Alternates nearest-neighbor correspondence with the SVD-optimal rigid
    update (reflection-corrected) until the RMSE improvement drops below
    ICP_TOL or ICP_MAX_ITERS passes. The per-iteration RMSE sequence is
    non-increasing and returned for inspection.
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    tgt = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(src) < 3 or len(tgt) < 3:
        raise DegenerateGeometryError("ICP needs at least 3 points per cloud")
    if np.ptp(src, axis=0).max() < 1e-12:
        raise DegenerateGeometryError("all source points coincide")

    tree = cKDTree(tgt)
    rot = np.eye(3)
    trans = np.zeros(3)
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, ICP_MAX_ITERS + 1):
        moved = src @ rot.T + trans
        dist, idx = tree.query(moved)
        rmse = float(np.sqrt(np.mean(dist**2)))
        history.append(rmse)
        if rmse < ICP_TOL or (len(history) >= 2 and abs(history[-2] - rmse) < ICP_TOL):
            converged = True
            break
        r_step, t_step = _best_rigid(moved, tgt[idx])
        rot = r_step @ rot
        trans = r_step @ trans + t_step

    return RegistrationResult(
        rotation=rot,
        translation=trans,
        rmse=history[-1],
        iterations=iterations,
        converged=converged,
        rmse_history=history,
    )


def curve_error(curve: BSplineCurve, truth: GroundTruthCable) -> tuple[float, float]:
    """Mean and max distance from CURVE_SAMPLES curve samples to the truth centerline."""
    samples = sample_curve(curve, CURVE_SAMPLES)
    d = truth.distance_to_centerline(samples)
    return float(d.mean()), float(d.max())


def truth_side_error(
    truth: GroundTruthCable, model: np.ndarray, model_ends: np.ndarray
) -> tuple[float, float, list[float] | None]:
    """The model seen from the truth: the share of the centerline's dense samples
    within COVERAGE_TOL of a `model` point, the largest such distance, and each
    true end's distance to the nearest of `model_ends` (None if there is none)."""
    gaps = cKDTree(model).query(truth.dense_samples)[0]
    true_ends = truth.dense_samples[[0, -1]]
    ends = cKDTree(model_ends).query(true_ends)[0].tolist() if len(model_ends) else None
    return float(np.mean(gaps <= COVERAGE_TOL)), float(gaps.max()), ends
