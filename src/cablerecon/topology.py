"""Direction-following sort of a planar cable cloud into ordered segments.

The sorter walks the cloud the way the cable runs: seed at the point
farthest from the centroid of what is left, then repeatedly step to the
neighbor that deviates least from the current travel direction. Where no
acceptable neighbor exists the walk turns around once and extends from the
seed end, then the segment closes. Endpoints are the segment extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloudproc import PlaneModel, as_cloud
from .errors import EmptyInputError

TIE_TOL = 1e-9
# candidates farther than this multiple of the nearest admissible candidate
# are dropped; keeps the straightest-first rule from skipping over points
# across inflections while leaving real gap-jumps (no nearer option) intact
NEAREST_WINDOW = 1.6
# the walk rejects any step that turns more than this from its running direction
ALPHA_MAX_DEG = 75.0


@dataclass
class SortedPolyline:
    """Partition of a cloud into ordered index runs plus their extremes."""

    points: np.ndarray            # (N, 3) source cloud
    segments: list[np.ndarray]    # ordered index arrays, disjoint cover

    @property
    def endpoints(self) -> np.ndarray:
        """(2S, 3): each segment's first point, then its last."""
        return self.points[[i for seg in self.segments for i in (seg[0], seg[-1])]]

    @property
    def neighbors(self) -> np.ndarray:
        """(2S, 3): the point next to each endpoint inside its segment; a
        singleton's endpoint is its own neighbor."""
        return self.points[
            [i for seg in self.segments for i in (seg[min(1, len(seg) - 1)], seg[-min(2, len(seg))])]
        ]

    def ordered_points(self) -> np.ndarray:
        """All points in walk order, segments concatenated."""
        if not self.segments:
            return np.zeros((0, 3))
        return np.vstack([self.points[seg] for seg in self.segments])


def _grow(
    order: list[int],
    uv: np.ndarray,
    free: np.ndarray,
    r_search: float,
    cos_min: float,
) -> None:
    """Extend `order` forward in place until no candidate survives.

    Each step measures the tail's distance to every point at once, then
    scores the free points within r_search against the running direction,
    the last step over its length. `np.vecdot` runs the BLAS dot of a
    one-point `np.linalg.norm`/`np.dot` per row, so the values match bit for
    bit. The pick is made in Python on those same floats: among the
    candidates within NEAREST_WINDOW of the nearest, least deviation, then
    least distance (both to 1e-9), then the first index.
    """
    step, norm = None, 0.0
    if len(order) >= 2:
        step = uv[order[-1]] - uv[order[-2]]
        norm = np.sqrt(step.dot(step))
    while True:
        direction = step / norm if norm > 1e-15 else None
        off = uv - uv[order[-1]]
        dist = np.sqrt(np.vecdot(off, off))
        near = (free & (dist <= r_search) & (dist >= 1e-15)).nonzero()[0]
        if near.size == 0:
            return
        # (distance, deviation, index) per candidate; -cos grows with angular deviation
        near_dist = dist[near]
        cands = zip(near_dist.tolist(), [0.0] * near.size, near.tolist())
        if direction is not None:
            cos_dev = np.vecdot(off[near] / near_dist[:, None], direction).tolist()
            cands = [(d, -c, i) for (d, _, i), c in zip(cands, cos_dev) if not c < cos_min]
        cands = list(cands)
        if not cands:
            return
        window = NEAREST_WINDOW * min(c[0] for c in cands)
        cands = [c for c in cands if c[0] <= window]
        least_dev = min(c[1] for c in cands) + TIE_TOL
        cands = [c for c in cands if c[1] <= least_dev]
        least_dist = min(c[0] for c in cands) + TIE_TOL
        chosen = next(i for d, _, i in cands if d <= least_dist)
        order.append(chosen)
        free[chosen] = False
        step, norm = off[chosen], dist[chosen]  # the next step's direction, from this one


def _stitch_crossings(
    uv: np.ndarray, segments: list[list[int]], r_stitch: float
) -> list[list[int]]:
    """Re-thread self-intersections that left a loop-shaped orphan segment.

    At an X crossing the greedy walk can pass straight through the blended
    junction and strand off the loop as its own segment whose both ends
    land next to two adjacent points of the host walk. Splicing the orphan
    back between those two points restores the single traversal. The same
    rule re-inserts isolated points the walk skipped over. Only this
    both-ends-adjacent pattern is touched; gap-separated segments (real
    occlusions, separate cables) never qualify.
    """
    while True:
        best = None  # (total_dist, host_idx, k, orphan_idx, reversed)
        for oi, orphan in enumerate(segments):
            o_first, o_last = uv[orphan[0]], uv[orphan[-1]]
            for hi, host in enumerate(segments):
                if hi == oi or len(host) < 2:
                    continue
                a = uv[host[:-1]]
                b = uv[host[1:]]
                for rev, (p, q) in enumerate(
                    [(o_first, o_last), (o_last, o_first)]
                ):
                    da = np.linalg.norm(a - p, axis=1)
                    db = np.linalg.norm(b - q, axis=1)
                    ok = (da <= r_stitch) & (db <= r_stitch)
                    if not ok.any():
                        continue
                    total = np.where(ok, da + db, np.inf)
                    k = int(np.argmin(total))
                    cand = (float(total[k]), hi, k, oi, bool(rev))
                    if best is None or cand[0] < best[0] - 1e-12:
                        best = cand
        if best is None:
            return segments
        _, hi, k, oi, rev = best
        orphan = segments[oi][::-1] if rev else segments[oi]
        host = segments[hi]
        merged = host[: k + 1] + list(orphan) + host[k + 1 :]
        segments = [
            seg for i, seg in enumerate(segments) if i not in (hi, oi)
        ]
        segments.append(merged)


def sort_and_find_endpoints(
    cloud: np.ndarray,
    plane: PlaneModel,
    r_search: float,
) -> SortedPolyline:
    """Greedy direction-following walk over a plane-projected cloud.

    Seeds at the unvisited point farthest from the unvisited centroid,
    takes the nearest neighbor within `r_search` first, then always the
    candidate with the least angular deviation from the running direction
    (rejecting anything past ALPHA_MAX_DEG). When the walk stalls, the
    segment is extended once from its seed end in the reverse direction,
    then closed. Loop orphans left at self-intersections are spliced back
    into their host walk.

    The walk runs over the cloud in canonical order, the stable lexicographic
    order of its coordinates rounded to 1e-12, and every tie goes to the first
    index there, so any permutation of the input produces the same segments.
    They index the input cloud.
    """
    pts = as_cloud(cloud)
    if len(pts) == 0:
        raise EmptyInputError("cannot sort an empty cloud")
    canon = np.lexsort(np.round(pts, 12).T[::-1])
    uv = plane.to_plane_coords(pts)[canon]
    cos_min = float(np.cos(np.radians(ALPHA_MAX_DEG)))

    free = np.ones(len(pts), dtype=bool)
    raw: list[list[int]] = []
    while free.any():
        rem = np.flatnonzero(free)
        centroid = uv[rem].mean(axis=0)
        dists = np.linalg.norm(uv[rem] - centroid, axis=1)
        seed = int(rem[dists >= dists.max() - TIE_TOL][0])
        free[seed] = False

        order = [seed]
        _grow(order, uv, free, r_search, cos_min)
        # the farthest-from-centroid seed is not guaranteed to be a true
        # extreme; try the other direction from the seed end once
        order.reverse()
        _grow(order, uv, free, r_search, cos_min)
        order.reverse()
        raw.append(order)

    raw = _stitch_crossings(uv, raw, r_search)
    return SortedPolyline(points=pts, segments=[canon[s] for s in raw])


def save_sorted_csv(path, poly: SortedPolyline) -> None:
    lines = ["segment_id,order_index,x,y,z"]
    for sid, seg in enumerate(poly.segments):
        for oi, idx in enumerate(seg):
            p = poly.points[idx]
            lines.append(f"{sid},{oi},{p[0]:.9g},{p[1]:.9g},{p[2]:.9g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_sorted_csv(path) -> SortedPolyline:
    """The sorted cloud of a `save_sorted_csv` file: one or more rows of 5
    fields under the header, with finite coordinates, or it is a ValueError
    naming the file."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()[1:] if line]
    if not rows or any(len(row) != 5 for row in rows):
        raise ValueError(f"{path}: not one or more rows of segment_id,order_index,x,y,z")
    try:
        seg_ids = np.array([int(row[0]) for row in rows])
        pts = as_cloud([[float(v) for v in row[2:]] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    segments = [np.nonzero(seg_ids == sid)[0] for sid in np.unique(seg_ids)]
    return SortedPolyline(points=pts, segments=segments)
