import numpy as np
import pytest

from cablerecon import topology
from cablerecon.cloudproc import PlaneModel, as_cloud
from cablerecon.errors import EmptyInputError
from cablerecon.topology import (
    SortedPolyline,
    load_sorted_csv,
    save_sorted_csv,
    sort_and_find_endpoints,
)

PLANE = PlaneModel(np.array([0.0, 0.0, 1.0, 0.0]))  # z = 0


def on_plane(uv):
    uv = np.asarray(uv, dtype=float)
    return np.column_stack([uv[:, 0], uv[:, 1], np.zeros(len(uv))])


def plain_walk(monkeypatch):
    """Turn crossing stitching off: the sort returns the greedy walk's segments."""
    monkeypatch.setattr(topology, "_stitch_crossings", lambda uv, segments, r_stitch: segments)


def recovered_order(poly, original):
    """Map each sorted point back to its row in `original`."""
    order = []
    for p in poly.ordered_points():
        idx = int(np.argmin(np.linalg.norm(original - p, axis=1)))
        order.append(idx)
    return order


def is_arc_order(order):
    return order == sorted(order) or order == sorted(order, reverse=True)


class TestSortBasics:
    def test_collinear_points_any_input_order(self, rng):
        uv = np.column_stack([np.linspace(0, 0.08, 5), np.zeros(5)])
        pts = on_plane(uv)
        for _ in range(5):
            shuffled = pts[rng.permutation(5)]
            poly = sort_and_find_endpoints(shuffled, PLANE, 0.035)
            assert len(poly.segments) == 1
            order = recovered_order(poly, pts)
            assert is_arc_order(order)
            ends = {tuple(np.round(e, 9)) for e in poly.endpoints}
            assert tuple(np.round(pts[0], 9)) in ends
            assert tuple(np.round(pts[4], 9)) in ends

    def test_two_distant_parallel_runs_stay_separate(self):
        r_search = 0.035
        xs = np.arange(0, 0.1, 0.015)
        run1 = on_plane(np.column_stack([xs, np.zeros(len(xs))]))
        run2 = on_plane(np.column_stack([xs, np.full(len(xs), 10 * r_search)]))
        poly = sort_and_find_endpoints(np.vstack([run1, run2]), PLANE, r_search)
        assert len(poly.segments) == 2
        assert len(poly.endpoints) == 4

    def test_circle_with_arc_gap(self):
        # spacing ~9mm, one missing arc of ~3x the search radius
        angles = np.arange(0.0, 2 * np.pi, 0.09)
        keep = angles > 1.1
        uv = 0.1 * np.column_stack([np.cos(angles[keep]), np.sin(angles[keep])])
        pts = on_plane(uv)
        rng = np.random.default_rng(3)
        poly = sort_and_find_endpoints(pts[rng.permutation(len(pts))], PLANE, 0.035)
        assert len(poly.segments) == 1
        order = recovered_order(poly, pts)
        assert is_arc_order(order)
        gap_ends = {0, len(pts) - 1}
        got_ends = {order[0], order[-1]}
        assert got_ends == gap_ends

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyInputError):
            sort_and_find_endpoints(np.zeros((0, 3)), PLANE, 0.035)

    def test_endpoint_count_twice_segments(self, rng):
        pts = on_plane(rng.uniform(-0.3, 0.3, (25, 2)))
        poly = sort_and_find_endpoints(pts, PLANE, 0.035)
        assert len(poly.endpoints) == 2 * len(poly.segments)
        covered = np.concatenate(poly.segments)
        assert sorted(covered.tolist()) == list(range(len(pts)))

    def test_permutation_invariance(self, rng):
        angles = np.linspace(0.2, 2.8, 20)
        uv = 0.12 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = on_plane(uv)
        reference = sort_and_find_endpoints(pts, PLANE, 0.035)
        ref_pts = reference.ordered_points()
        for _ in range(5):
            shuffled = pts[rng.permutation(len(pts))]
            poly = sort_and_find_endpoints(shuffled, PLANE, 0.035)
            got = poly.ordered_points()
            assert len(poly.segments) == len(reference.segments)
            assert np.allclose(got, ref_pts) or np.allclose(got, ref_pts[::-1])


def smooth_random_open_curve(seed, n=40, step=0.016, alpha_cap_deg=20.0):
    """Heading-random-walk curve; None unless it is sorter-friendly."""
    rng = np.random.default_rng(seed)
    headings = np.cumsum(rng.uniform(-1, 1, n - 1) * np.radians(alpha_cap_deg))
    deltas = step * np.column_stack([np.cos(headings), np.sin(headings)])
    uv = np.vstack([[0.0, 0.0], np.cumsum(deltas, axis=0)])
    # reject curves whose distant sections approach within the search radius
    d = np.linalg.norm(uv[:, None, :] - uv[None, :, :], axis=2)
    i, j = np.triu_indices(n, k=3)
    if d[i, j].min() <= 0.036:
        return None
    return on_plane(uv)


class TestSortAgainstArcLengthOracle:
    def test_smooth_open_curves_sorted_in_arc_order(self):
        count = 0
        seed = 0
        while count < 10:
            pts = smooth_random_open_curve(seed)
            seed += 1
            if pts is None:
                continue
            count += 1
            rng = np.random.default_rng(seed)
            shuffled = pts[rng.permutation(len(pts))]
            poly = sort_and_find_endpoints(shuffled, PLANE, 0.035)
            assert len(poly.segments) == 1
            assert is_arc_order(recovered_order(poly, pts))


class TestCrossingRecovery:
    def _limacon_cloud(self, crossing_deg=55.0, spacing=0.015):
        a = 0.11
        b = a * np.sin(np.radians(crossing_deg / 2))
        phi = np.linspace(0.04, 2 * np.pi - 0.04, 200)
        r = b + a * np.cos(phi)
        uv = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        keep = [0]
        for i in range(1, len(uv)):
            if np.linalg.norm(uv[i] - uv[keep[-1]]) >= spacing:
                keep.append(i)
        return on_plane(uv[keep])

    def test_self_crossing_heals_into_one_segment(self):
        pts = self._limacon_cloud()
        poly = sort_and_find_endpoints(pts, PLANE, 0.035)
        assert len(poly.segments) == 1

    def test_raw_walk_keeps_the_known_failure_mode(self, monkeypatch):
        # the paper-style plain walk fragments on self-crossings
        pts = self._limacon_cloud()
        healed = sort_and_find_endpoints(pts, PLANE, 0.035)
        plain_walk(monkeypatch)
        raw = sort_and_find_endpoints(pts, PLANE, 0.035)
        assert len(raw.segments) >= len(healed.segments)


class TestPreviousPoint:
    """The point before each endpoint, read from the `neighbors` rows."""

    poly = SortedPolyline(
        points=on_plane([[0.0, 0], [0.01, 0], [0.02, 0], [0.5, 0.5]]),
        segments=[np.array([0, 1, 2]), np.array([3])],
    )

    def test_last_end(self):
        assert np.allclose(self.poly.endpoints[1], [0.02, 0, 0])
        assert np.allclose(self.poly.neighbors[1], [0.01, 0, 0])

    def test_first_end(self):
        assert np.allclose(self.poly.endpoints[0], [0.0, 0, 0])
        assert np.allclose(self.poly.neighbors[0], [0.01, 0, 0])

    def test_singleton_has_no_direction(self):
        heading = self.poly.endpoints[2:] - self.poly.neighbors[2:]
        assert np.allclose(self.poly.endpoints[2:], [0.5, 0.5, 0])
        assert not heading.any()


class TestEndpointRows:
    def test_endpoints_and_neighbors_on_1_2_3_point_segments(self):
        poly = SortedPolyline(
            points=on_plane([[0.0, 0], [0.01, 0], [0.02, 0], [0.5, 0.5], [0.3, 0], [0.3, 0.01]]),
            segments=[np.array([0, 1, 2]), np.array([3]), np.array([5, 4])],
        )
        # each segment's first point, then its last
        assert poly.endpoints.tolist() == on_plane(
            [[0.0, 0], [0.02, 0], [0.5, 0.5], [0.5, 0.5], [0.3, 0.01], [0.3, 0]]
        ).tolist()
        # a singleton's endpoint is its own neighbor, so its heading is zero
        assert poly.neighbors.tolist() == on_plane(
            [[0.01, 0], [0.01, 0], [0.5, 0.5], [0.5, 0.5], [0.3, 0], [0.3, 0.01]]
        ).tolist()
        empty = SortedPolyline(points=np.zeros((0, 3)), segments=[])
        assert empty.endpoints.shape == empty.neighbors.shape == (0, 3)


class TestSortedCsv:
    def test_roundtrip(self, tmp_path, rng):
        pts = on_plane(rng.uniform(-0.2, 0.2, (12, 2)))
        poly = sort_and_find_endpoints(pts, PLANE, 0.035)
        save_sorted_csv(tmp_path / "sorted.csv", poly)
        back = load_sorted_csv(tmp_path / "sorted.csv")
        assert len(back.segments) == len(poly.segments)
        assert np.allclose(back.ordered_points(), poly.ordered_points(), atol=1e-8)


# One-point-at-a-time reference for the batched sort: the candidate loop,
# pick and key as they were before scoring went through np.vecdot.
def _lex_key_ref(p):
    return tuple(np.round(np.asarray(p, dtype=float), 12))


def _pick_ref(candidates):
    best_dev = min(c[0] for c in candidates)
    pool = [c for c in candidates if c[0] <= best_dev + topology.TIE_TOL]
    best_dist = min(c[1] for c in pool)
    pool = [c for c in pool if c[1] <= best_dist + topology.TIE_TOL]
    return min(pool, key=lambda c: c[2])[3]


def _grow_ref(order, uv, pts3, unvisited, r_search, cos_min):
    while unvisited:
        tail = uv[order[-1]]
        direction = None
        if len(order) >= 2:
            step = tail - uv[order[-2]]
            norm = np.linalg.norm(step)
            if norm > 1e-15:
                direction = step / norm
        candidates = []
        for idx in unvisited:
            offset = uv[idx] - tail
            dist = float(np.linalg.norm(offset))
            if dist > r_search or dist < 1e-15:
                continue
            if direction is None:
                candidates.append((0.0, dist, _lex_key_ref(pts3[idx]), idx))
            else:
                cos_dev = float(np.dot(offset / dist, direction))
                if cos_dev < cos_min:
                    continue
                candidates.append((-cos_dev, dist, _lex_key_ref(pts3[idx]), idx))
        if not candidates:
            return
        d_near = min(c[1] for c in candidates)
        candidates = [
            c for c in candidates if c[1] <= topology.NEAREST_WINDOW * d_near
        ]
        chosen = _pick_ref(candidates)
        order.append(chosen)
        unvisited.discard(chosen)


def sort_ref(cloud, plane, r_search=0.035, alpha_max_deg=75.0):
    pts = as_cloud(cloud)
    uv = plane.to_plane_coords(pts)
    cos_min = float(np.cos(np.radians(alpha_max_deg)))
    unvisited = set(range(len(pts)))
    raw = []
    while unvisited:
        rem = sorted(unvisited, key=lambda i: _lex_key_ref(pts[i]))
        centroid = uv[rem].mean(axis=0)
        dists = np.linalg.norm(uv[rem] - centroid, axis=1)
        dmax = float(dists.max())
        pool = [i for i, d in zip(rem, dists) if d >= dmax - topology.TIE_TOL]
        seed = min(pool, key=lambda i: _lex_key_ref(pts[i]))
        unvisited.discard(seed)
        order = [seed]
        _grow_ref(order, uv, pts, unvisited, r_search, cos_min)
        order.reverse()
        _grow_ref(order, uv, pts, unvisited, r_search, cos_min)
        order.reverse()
        raw.append(order)
    if len(raw) > 1:
        raw = topology._stitch_crossings(uv, raw, r_search)
    return [list(s) for s in raw]


TILTED = PlaneModel(np.array([0.1, -0.2, 1.0, -0.3]))


def _fuzz_cloud(kind, rng):
    n = int(rng.integers(2, 45))
    if kind == "random":
        uv = rng.uniform(0.0, 0.12, (n, 2))
    elif kind == "lattice":
        # dyadic pitch: equal distances and angles tie exactly
        pitch = 2.0 ** -7
        grid = rng.integers(0, 8, (n, 2))
        uv = np.unique(grid, axis=0) * pitch
    elif kind == "near_duplicate":
        base = rng.uniform(0.0, 0.12, (n, 2))
        dup = base[rng.integers(0, n, n // 2)] + rng.choice([-1e-13, 1e-13], (n // 2, 2))
        uv = np.vstack([base, dup])
    else:  # "permuted": an arc, shuffled
        t = np.sort(rng.uniform(0.0, 2.5, n))
        uv = 0.1 * np.column_stack([np.cos(t), np.sin(t)])
        uv = uv[rng.permutation(n)]
    plane = PLANE if kind == "lattice" else TILTED
    return plane.from_plane_coords(uv), plane


class TestBatchedSortMatchesPointLoop:
    @pytest.mark.parametrize("stitch", [True, False])
    @pytest.mark.parametrize(
        "kind, seed", [("random", 1), ("lattice", 2), ("near_duplicate", 3), ("permuted", 4)]
    )
    def test_segments_equal_reference(self, kind, seed, stitch, monkeypatch):
        rng = np.random.default_rng([seed, int(stitch)])
        if not stitch:
            plain_walk(monkeypatch)
        for _ in range(25):
            cloud, plane = _fuzz_cloud(kind, rng)
            got = sort_and_find_endpoints(cloud, plane, 0.035)
            want = sort_ref(cloud, plane, 0.035, topology.ALPHA_MAX_DEG)
            assert [seg.tolist() for seg in got.segments] == want

    def test_vecdot_is_bit_equal_to_per_row_norm_and_dot(self):
        # the batched sort relies on this; a numpy or BLAS change that
        # breaks it would silently move tie-breaks
        rng = np.random.default_rng(5)
        off = rng.normal(size=(10_000, 2)) * rng.uniform(1e-3, 1.0, (10_000, 1))
        direction = np.array([0.6, -0.8])
        dist = np.sqrt(np.vecdot(off, off))
        assert np.array_equal(dist, [np.linalg.norm(o) for o in off])
        cos = np.vecdot(off / dist[:, None], direction)
        assert np.array_equal(cos, [np.dot(o / d, direction) for o, d in zip(off, dist)])

    def test_radius_boundary_follows_the_per_point_norm(self):
        # a neighbour exactly r_search away is taken and one a single ulp
        # beyond is not, so the batched distance must round like the norm
        # of one offset; the offset is one where a sum-of-squares norm
        # rounds differently, which makes that rounding observable; a BLAS
        # kernel whose two norms agree on every draw tests the last one
        rng = np.random.default_rng(11)
        pts = np.zeros((2, 3))
        for _ in range(1000):
            pts[1, :2] = rng.uniform(0.005, 0.03, 2)
            off = np.diff(PLANE.to_plane_coords(pts), axis=0)
            d = np.linalg.norm(off[0])
            if d != np.linalg.norm(off, axis=1)[0]:
                break
        assert len(sort_and_find_endpoints(pts, PLANE, d).segments) == 1
        below = np.nextafter(d, 0.0)
        assert len(sort_and_find_endpoints(pts, PLANE, below).segments) == 2
