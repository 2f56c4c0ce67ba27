"""Gradient-based tactile exploration of cable gaps.

From every unvisited endpoint the end effector advances one step along the
cable direction, descends until the pad touches, and classifies the contact
with a curvature indicator built from per-taxel Hessian norms. The probe
only reports pressures (`probe_fn(pose) -> pressures`): the walk decides
the touch (a taxel above EPS_CONTACT) and the contact point. A descent
keeps its delta_z height lattice from HOVER_HEIGHT but probes only at or
below `top`, the tallest surface the pad can meet (2r of the thickest
cable) plus the fitted plane's fit error: higher up a probe reads no
pressure, so it is not made. Where `top` is above HOVER_HEIGHT, the
lattice starts as many whole steps higher as reach `top`. Cable contacts
extend the walk and re-aim the frame; flat contacts rotate the frame about
the plane normal to try another direction. A walk closes when it comes
within d_min of another endpoint or exhausts a full turn of 360 / theta_deg
rotations (a true cable end). The pad's geometry (PAD_SHAPE, PAD_PITCH, TAXELS) lives here,
with the walk that reads it; the simulated probe imports it.

Every probe logs exactly one trace row, so the trace is the probe count:
a result's `probes_used` is its row count, and a descent stops with
ProbeBudgetError once the rows reach PROBE_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloudproc import PlaneModel, project_to_plane
from .errors import DescentOverrunError, ProbeBudgetError
from .geom import Pose, ReconParams, frame_from_y_z, rotation_about_axis, vector_norm
from .topology import SortedPolyline

PAD_SHAPE = (6, 2)  # taxel rows along end-effector x, columns along y
PAD_PITCH = 0.005  # meters between neighbouring taxel centers
DESCENT_LIMIT = 0.010  # meters below the plane before declaring overrun
HOVER_HEIGHT = 0.0200  # meters above the plane where a descent's steps start
PROBE_BUDGET = 10000  # hard cap on probe calls per cable
EPS_CONTACT = 0.05  # a taxel pressure above this is a touch
POSE_COLUMNS = tuple("r00 r01 r02 r10 r11 r12 r20 r21 r22 tx ty tz".split())
TRACE_COLUMNS = (
    "step", "endpoint_id", *POSE_COLUMNS, "touched", "indicator", "accepted", "px", "py", "pz"
)
_POSE_FORMAT = ",".join(["%.9g"] * len(POSE_COLUMNS))


def _taxel_centers() -> np.ndarray:
    rows, cols = PAD_SHAPE
    xs = (np.arange(rows) - (rows - 1) / 2.0) * PAD_PITCH
    ys = (np.arange(cols) - (cols - 1) / 2.0) * PAD_PITCH
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    centers.flags.writeable = False
    return centers


# (12, 3) read-only taxel centers in the pad frame, row-major over PAD_SHAPE, face at z = 0;
# the long side lies along end-effector x
TAXELS = _taxel_centers()
# the rows and columns of the 6x2 map that its 8x4 edge-replicated padding reads
_PAD_ROWS = np.clip(np.arange(-1, PAD_SHAPE[0] + 1), 0, PAD_SHAPE[0] - 1)[:, None]
_PAD_COLS = np.clip(np.arange(-1, PAD_SHAPE[1] + 1), 0, PAD_SHAPE[1] - 1)


def indicator(pressures: np.ndarray) -> float:
    """Frobenius norm of the 6x2 matrix of per-taxel Hessian norms.

    The map is padded to 8x4 by edge replication (the 2-wide axis has no
    interior for a central difference), then every original cell gets a 2x2
    finite-difference Hessian with grid step PAD_PITCH. Flat uniform contact
    gives exactly 0; a cable ridge concentrates pressure and scores high.
    """
    p = np.asarray(pressures, dtype=float)
    if p.shape != PAD_SHAPE:
        raise ValueError("indicator expects a 6x2 map")
    padded = p[_PAD_ROWS, _PAD_COLS]
    h2 = PAD_PITCH * PAD_PITCH
    center = padded[1:-1, 1:-1]
    hxx = (padded[2:, 1:-1] - 2.0 * center + padded[:-2, 1:-1]) / h2
    hyy = (padded[1:-1, 2:] - 2.0 * center + padded[1:-1, :-2]) / h2
    hxy = (
        padded[2:, 2:] - padded[2:, :-2] - padded[:-2, 2:] + padded[:-2, :-2]
    ) / (4.0 * h2)
    norms = np.sqrt(hxx**2 + 2.0 * hxy**2 + hyy**2)
    return float(np.linalg.norm(norms))


def _centroid(pressures: np.ndarray, pose: Pose, plane: PlaneModel) -> np.ndarray:
    """Pressure-weighted mean of the taxel positions, on the plane; taken
    only after a touch, when some weight is above EPS_CONTACT > 0."""
    weights = pressures.ravel()
    centers = pose.transform(TAXELS)
    centroid = (centers * weights[:, None]).sum(axis=0) / weights.sum()
    return project_to_plane(centroid, plane)[0]


@dataclass
class ExplorationResult:
    tactile_cloud: np.ndarray
    trace: list[dict] = field(default_factory=list)
    dead_ends: int = 0

    @property
    def probes_used(self) -> int:
        """Every probe logs one trace row."""
        return len(self.trace)

    def save_trace_csv(self, path) -> None:
        lines = [",".join(TRACE_COLUMNS)]
        lines.extend(",".join(map(str, row.values())) for row in self.trace)
        Path(path).write_text("\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _log(trace: list[dict], endpoint_id: int, pose: Pose, ind=None, p_new=None) -> None:
    """Append a probe's row: in the air without `ind`, a rejected touch
    without `p_new`, an accepted touch with both."""
    # "%.9g" % x is the text of _fmt(x); one format call covers the pose
    values = pose.rotation.ravel().tolist() + pose.translation.tolist()
    pose_text = (_POSE_FORMAT % tuple(values)).split(",")
    ind_text = "" if ind is None else _fmt(ind)
    point = ["", "", ""] if p_new is None else [_fmt(x) for x in p_new.tolist()]
    touch = [int(ind is not None), ind_text, int(p_new is not None), *point]
    row = [len(trace), endpoint_id, *pose_text, *touch]
    trace.append(dict(zip(TRACE_COLUMNS, row, strict=True)))


def _descend(
    probe_fn,
    rotation: np.ndarray,
    target_on_plane: np.ndarray,
    plane: PlaneModel,
    params: ReconParams,
    trace: list[dict],
    endpoint_id: int,
    top: float,
) -> tuple[Pose, np.ndarray]:
    """Lower the pad along -normal in delta_z steps until a taxel reads
    above EPS_CONTACT; return that pose and its pressures.

    The steps start HOVER_HEIGHT above the target, or as many whole
    steps above it as reach `top`, but the pad face is only probed
    (logging a trace row) once it is at most `top` above the fitted
    plane. `top` already holds the fitted plane's own error, so no
    surface is higher and a higher probe reads exactly 0 pressure without
    noise (with noise it could only be a false touch). The touching probe
    is logged by the caller. The unprobed steps cost no budget; a step so
    fine that they outnumber PROBE_BUDGET, up or down, is ProbeBudgetError
    before any step, since nothing else bounds them.
    """
    if abs(HOVER_HEIGHT - top) / params.delta_z > PROBE_BUDGET:
        raise ProbeBudgetError(
            f"delta_z {params.delta_z:g} m takes more than {PROBE_BUDGET} unprobed steps "
            f"from {HOVER_HEIGHT:g} m to {top:.6g} m"
        )
    normal = plane.normal
    pos = target_on_plane + HOVER_HEIGHT * normal
    height = float(plane.signed_distance(pos)[0])
    # the unprobed steps on Python floats: per coordinate, the roundings of pos -/+ delta_z * normal
    (x, y, z), (dx, dy, dz) = pos.tolist(), (params.delta_z * normal).tolist()
    while height < top:  # a cable taller than HOVER_HEIGHT: the lattice starts above it
        x, y, z, height = x + dx, y + dy, z + dz, height + params.delta_z
    while height > top:
        x, y, z, height = x - dx, y - dy, z - dz, height - params.delta_z
    pos = np.array([x, y, z])
    while True:
        pose = Pose(rotation, pos)
        if len(trace) >= PROBE_BUDGET:
            raise ProbeBudgetError(f"all {PROBE_BUDGET} probes used")
        pressures = probe_fn(pose)
        if (pressures > EPS_CONTACT).any():
            return pose, pressures
        _log(trace, endpoint_id, pose)
        if plane.signed_distance(pos)[0] < -DESCENT_LIMIT:
            raise DescentOverrunError(
                "probe descended past the plane without any contact"
            )
        pos = pos - params.delta_z * normal


def explore_from_endpoints(
    poly: SortedPolyline,
    plane: PlaneModel,
    probe_fn,
    params: ReconParams,
    *,
    top: float,
) -> ExplorationResult:
    """Run the per-endpoint exploration walks and collect tactile points.

    `probe_fn(pose) -> pressures` is the only way the loop sees
    the world; `top` is the height above the fitted plane of the tallest
    surface the pad can meet, the plane's fit error included, and no
    descent probes higher.
    A walk's own starting endpoint is excluded from the d_min stop check:
    the first advance lands delta_y < d_min away from it, so including it
    would stop every walk immediately. Every other endpoint, visited or
    not, ends the walk, and those it reaches are marked visited. A contact
    that is flat, or whose centroid does not advance, turns the frame;
    max_rotation_attempts turns in a row close the walk as a dead end.
    """
    r_step = rotation_about_axis(np.array([0.0, 0.0, 1.0]), params.theta_deg)
    ends = poly.endpoints
    visited: set[int] = set()
    tactile: list[np.ndarray] = []
    trace: list[dict] = []
    dead_ends = 0

    for eid, (last, heading) in enumerate(zip(ends, ends - poly.neighbors)):
        if eid in visited:
            continue
        if vector_norm(heading) < 1e-12:  # a singleton segment has no direction
            continue
        rotation = frame_from_y_z(heading, plane.normal)
        attempts = 0
        while attempts < params.max_rotation_attempts:
            target = last + params.delta_y * rotation[:, 1]
            pose, pressures = _descend(probe_fn, rotation, target, plane, params, trace, eid, top)
            ind = indicator(pressures)
            p_new = _centroid(pressures, pose, plane) if ind > params.t_h else None
            advance = None if p_new is None else p_new - last
            if advance is not None and vector_norm(advance) < 1e-12:
                p_new = None  # no advance
            _log(trace, eid, pose, ind, p_new)
            if p_new is None:  # flat, or no advance: turn and retry from the same point
                attempts += 1
                rotation = rotation @ r_step
                continue
            tactile.append(p_new)
            off = p_new - ends
            reached = [
                oid
                for oid in (np.sqrt(np.vecdot(off, off)) < params.d_min).nonzero()[0].tolist()
                if oid != eid
            ]
            if reached:
                visited.update(reached)
                break
            rotation = frame_from_y_z(advance, plane.normal)
            last = p_new
            attempts = 0
        else:  # a full turn without progress: a true cable end
            dead_ends += 1

    cloud = np.array(tactile).reshape(-1, 3)
    return ExplorationResult(tactile_cloud=cloud, trace=trace, dead_ends=dead_ends)


def merge_clouds(visual: np.ndarray, tactile: np.ndarray) -> np.ndarray:
    """The fused cloud: the visual points in walk order, then the tactile ones.

    This is the named fusion stage; close points are merged by the
    conditioning that follows it (`fitting.refine_merged`).
    """
    return np.vstack([visual, tactile])
