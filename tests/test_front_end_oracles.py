"""The windowed vision front end against copies of its full-frame form.

`blur_and_clean` and `skeletonize` work on the foreground's bounding box,
`render` keeps its per-cable depth buffers on the window of the stamped
pixels and colors the frame with one palette gather, and
`_reach_components` builds its kNN graph as CSR and decides most pairs by
their kd-tree distance. Each must equal, bit for bit, the full-frame code
it replaced, copied here as the oracle.
"""

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from cablerecon import imgproc, worldsim
from cablerecon.cloudproc import PlaneModel
from cablerecon.fitting import bspline_from_control_points
from cablerecon.geom import Pose, frame_from_y_z
from cablerecon.imgproc import CameraIntrinsics, ImageGrid

# ---------------------------------------------------------------- oracles


def full_frame_blur_and_clean(data):
    mask = (np.asarray(data, dtype=float) > 0.5).astype(float)
    padded = np.pad(mask, 1, mode="constant")
    acc = np.zeros_like(mask)
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            acc += padded[dr : dr + mask.shape[0], dc : dc + mask.shape[1]]
    blurred = acc / 9.0 >= 0.5
    padded = np.pad(blurred, 1, mode="constant")
    return (
        blurred & padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )


def full_frame_skeletonize(data):
    img = (np.asarray(data, dtype=float) > 0.5).astype(np.uint8)
    while True:
        changed = False
        for step in (0, 1):
            remove = imgproc._thinning_pass(img, step)
            if remove.any():
                img[remove] = 0
                changed = True
        if not changed:
            return img.astype(bool)


def full_frame_render(scene):
    intr = scene.camera
    h, w = scene.height, scene.width
    cols, rows = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    dirs_cam = np.stack(
        [(cols - intr.cx) / intr.fx, (rows - intr.cy) / intr.fy, np.ones_like(cols)], axis=-1
    )
    dirs = dirs_cam @ intr.pose.rotation.T
    origin = intr.pose.translation
    plane = scene.support_plane

    denom = dirs @ plane.normal
    num = -(float(plane.signed_distance(origin)[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_plane = num / denom
    plane_hit = (denom < 0) & (t_plane > 0)
    plane_z = np.where(plane_hit, t_plane, np.inf)
    box_z = np.full((h, w), np.inf)
    for lo, hi in scene.occluders:
        box_z = np.minimum(box_z, worldsim._box_entry_depth(origin, dirs, lo, hi))

    cable_z = np.full((len(scene.cables), h, w), np.inf)
    for ci, cable in enumerate(scene.cables):
        cam = (cable.dense_samples - intr.pose.translation) @ intr.pose.rotation
        z = cam[:, 2]
        front = z > 1e-6
        zf = z[front]
        col = intr.fx * cam[front, 0] / zf + intr.cx
        row = intr.fy * cam[front, 1] / zf + intr.cy
        radii = np.round(0.5 * (intr.fx + intr.fy) * cable.radius / zf).astype(int)
        buf = cable_z[ci].reshape(-1)
        for ri in np.unique(radii):
            dd = np.arange(-ri, ri + 1)
            gr, gc = np.meshgrid(dd, dd, indexing="ij")
            keep = gr * gr + gc * gc <= (ri + 0.5) ** 2
            sel = radii == ri
            rr = np.round(row[sel, None] + gr[keep]).astype(int)
            cc = np.round(col[sel, None] + gc[keep]).astype(int)
            ok = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            z0 = np.broadcast_to(zf[sel, None], ok.shape)
            np.minimum.at(buf, rr[ok] * w + cc[ok], z0[ok])

    if scene.cables:
        nearest_cable = cable_z.min(axis=0)
        winner = cable_z.argmin(axis=0)
    else:
        nearest_cable = np.full((h, w), np.inf)
        winner = np.zeros((h, w), dtype=int)
    masks = [
        np.isfinite(cable_z[ci]) & (winner == ci) & (cable_z[ci] < box_z)
        for ci in range(len(scene.cables))
    ]
    covered = np.zeros((h, w), dtype=bool)
    for m in masks:
        covered |= m
    shelf = plane_hit & (plane_z < box_z) & ~covered
    depth = np.full((h, w), np.inf)
    depth = np.minimum(depth, plane_z)
    depth = np.minimum(depth, box_z)
    depth = np.where(covered, nearest_cable, depth)
    depth = np.where(np.isfinite(depth), depth, 0.0)
    color = np.zeros((h, w, 3))
    color[plane_hit] = worldsim.SHELF_COLOR
    color[np.isfinite(box_z) & (box_z < plane_z)] = worldsim.OCCLUDER_COLOR
    for ci, m in enumerate(masks):
        color[m] = scene.cables[ci].color
    return masks, color, depth, shelf


def coo_reach_components(features, k, threshold):
    def components(src, dst, n):
        graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
        return connected_components(graph, directed=False)[1]

    n = len(features)
    k_eff = min(k, n - 1)
    if k_eff <= 0:
        return np.arange(n)
    dist, nbr = cKDTree(features).query(features, k=min(max(k_eff, 8), n - 1) + 1)
    core_ok = dist[:, k_eff] <= threshold
    src = np.repeat(np.arange(n), nbr.shape[1])
    dst = nbr.ravel()
    keep = core_ok[src] & core_ok[dst]
    src, dst = src[keep], dst[keep]
    keep = np.linalg.norm(features[src] - features[dst], axis=1) <= threshold
    labels = components(src[keep], dst[keep], n)
    ids = np.unique(labels[core_ok])
    frags = [features[labels == f] for f in ids]
    bound = threshold * (1 + 1e-9)
    joins = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            small, large = sorted((frags[a], frags[b]), key=len)
            d, j = cKDTree(large).query(small, k=1, distance_upper_bound=bound)
            hit = np.isfinite(d)
            if (np.linalg.norm(small[hit] - large[j[hit]], axis=1) <= threshold).any():
                joins.append((ids[a], ids[b]))
    ja, jb = np.array(joins, dtype=int).reshape(-1, 2).T
    return components(ja, jb, labels.max() + 1)[labels]


# ---------------------------------------------------------------- masks


def _blob(rng, shape, rows, cols, density=0.6):
    """Random foreground confined to rows x cols of an empty frame."""
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = rng.random(mask[rows, cols].shape) < density
    return mask


def _masks():
    """(id, mask) pairs: random fill, foreground on each edge and corner,
    empty and one-pixel masks."""
    rng = np.random.default_rng(11)
    shape = (19, 23)
    out = [("empty", np.zeros(shape, dtype=bool))]
    for r, c in [(0, 0), (0, 22), (18, 0), (18, 22), (0, 9), (9, 0), (18, 9), (9, 22), (9, 11)]:
        one = np.zeros(shape, dtype=bool)
        one[r, c] = True
        out.append((f"pixel_{r}_{c}", one))
    for density in (0.3, 0.55, 0.8, 1.0):
        out.append((f"full_{density}", _blob(rng, shape, slice(None), slice(None), density)))
    edges = {
        "top": (slice(0, 8), slice(5, 17)),
        "bottom": (slice(11, 19), slice(5, 17)),
        "left": (slice(5, 14), slice(0, 9)),
        "right": (slice(5, 14), slice(14, 23)),
        "top_left": (slice(0, 9), slice(0, 10)),
        "top_right": (slice(0, 9), slice(13, 23)),
        "bottom_left": (slice(10, 19), slice(0, 10)),
        "bottom_right": (slice(10, 19), slice(13, 23)),
        "inside": (slice(4, 15), slice(5, 18)),
    }
    for name, (rows, cols) in edges.items():
        for density in (0.6, 0.9):
            out.append((f"{name}_{density}", _blob(rng, shape, rows, cols, density)))
    return out


MASKS = _masks()


def _inputs(mask, rng):
    """The mask as bool, as float 0/1, and as float 0-255 that thresholds to it."""
    levels = np.where(mask, rng.uniform(0.51, 255.0, mask.shape), rng.uniform(0.0, 0.5, mask.shape))
    return [mask, mask.astype(float), levels]


@pytest.mark.parametrize("name, mask", MASKS, ids=[name for name, _ in MASKS])
def test_blur_and_clean_equals_the_full_frame_pass(name, mask):
    rng = np.random.default_rng(len(name))
    color = ImageGrid(np.zeros((*mask.shape, 3)))
    for data in _inputs(mask, rng):
        got = imgproc.blur_and_clean(ImageGrid(data), color).data
        assert got.dtype == bool
        assert got.tobytes() == full_frame_blur_and_clean(data).tobytes()


@pytest.mark.parametrize("name, mask", MASKS, ids=[name for name, _ in MASKS])
def test_skeletonize_equals_the_full_frame_pass(name, mask):
    rng = np.random.default_rng(len(name))
    for data in _inputs(mask, rng):
        got = imgproc.skeletonize(ImageGrid(data)).data
        assert got.dtype == bool
        assert got.tobytes() == full_frame_skeletonize(data).tobytes()


def test_masks_touch_the_edges_their_names_say():
    for name, mask in MASKS:
        touched = {
            "top": mask[0].any(), "bottom": mask[-1].any(),
            "left": mask[:, 0].any(), "right": mask[:, -1].any(),
        }
        if name.startswith(("top", "bottom", "left", "right")):
            for side in name.split("_")[:-1]:
                assert touched[side], (name, side)
        if name.startswith("inside"):
            assert not any(touched.values()), name


def test_blur_vote_at_five_of_nine_is_exercised():
    # the fill masks hold pixels whose 3x3 window has exactly 4 and exactly 5
    # foreground pixels, so a vote at > 5 or >= 4 changes some output
    counts = set()
    for _, mask in MASKS:
        padded = np.pad(mask, 1).astype(int)
        h, w = mask.shape
        acc = sum(padded[dr : dr + h, dc : dc + w] for dr in range(3) for dc in range(3))
        counts |= set(np.unique(acc).tolist())
    assert {4, 5} <= counts


def test_binary_returns_bool_data_as_it_is():
    data = np.zeros((4, 5), dtype=bool)
    assert imgproc._binary(ImageGrid(data)) is data
    levels = np.array([[0.0, 0.5, 0.51, 255.0]])
    assert imgproc._binary(ImageGrid(levels)).tolist() == [[False, False, True, True]]


# ---------------------------------------------------------------- render

PLANE = PlaneModel(np.array([0.0, 0.0, 1.0, 0.0]))


def _camera(position=(0.0, 0.0, 0.6), look=(0.0, 0.0, -1.0), up=(0.0, -1.0, 0.0), f=200.0):
    rotation = frame_from_y_z(np.array(up), np.array(look))
    return CameraIntrinsics(fx=f, fy=f, cx=80.0, cy=60.0, pose=Pose(rotation, np.array(position)))


def _cable(start, end, radius=0.003, color=(30, 30, 30)):
    xy = np.linspace(start, end, 6)
    ctrl = np.column_stack([xy, np.full(6, radius)])
    return worldsim.GroundTruthCable(
        centerline=bspline_from_control_points(ctrl), radius=radius,
        color=np.array(color, dtype=float),
    )


def _scene(cables, occluders=(), camera=None):
    return worldsim.WorldScene(
        support_plane=PLANE, cables=list(cables), occluders=list(occluders),
        camera=camera or _camera(), width=160, height=120,
    )


BOX = (np.array([-0.04, -0.03, 0.0]), np.array([0.03, 0.04, 0.05]))
SCENES = {
    "no_cables": _scene([]),
    "no_cables_occluded": _scene([], [BOX]),
    "partly_off_frame": _scene([_cable((0.1, -0.1), (0.9, 0.3))]),
    "wholly_off_frame": _scene([_cable((2.0, 2.0), (2.5, 2.2))]),
    "crossing_equal_radii": _scene([
        _cable((-0.2, -0.1), (0.2, 0.1)),
        _cable((-0.2, 0.1), (0.2, -0.1), color=(40, 80, 200)),
    ]),
    "crossing_occluded": _scene(
        [
            _cable((-0.2, 0.0), (0.2, 0.0), radius=0.006),
            _cable((0.0, -0.15), (0.0, 0.15), color=(40, 80, 200)),
            _cable((-0.15, -0.12), (0.1, 0.14), color=(200, 30, 30)),
        ],
        [BOX],
    ),
    "low_camera_off_frame": _scene(
        [_cable((-0.2, 0.0), (0.2, 0.0)), _cable((-0.2, 0.08), (0.2, 0.08), radius=0.006)],
        camera=_camera((-0.3, 0.0, 0.1), (0.35, 0.0, -0.12), (0.0, 0.0, -1.0), f=150.0),
    ),
}


@pytest.mark.parametrize("name", list(SCENES))
def test_render_equals_the_full_frame_render(name):
    scene = SCENES[name]
    out = worldsim.render(scene)
    masks, color, depth, shelf = full_frame_render(scene)
    assert len(out.cable_masks) == len(masks)
    for got, expected in zip(out.cable_masks, masks):
        assert got.data.dtype == bool and got.data.tobytes() == expected.tobytes()
    assert out.color.data.dtype == color.dtype and out.color.data.tobytes() == color.tobytes()
    assert out.depth.data.dtype == depth.dtype and out.depth.data.tobytes() == depth.tobytes()
    assert out.shelf_mask.data.tobytes() == shelf.tobytes()


def test_render_scenes_cover_the_window_edges():
    # the oracle cases matter only if cables reach the frame's edges, cross
    # (so the winner tie-break runs) and an occluder hides part of a cable
    partly = worldsim.render(SCENES["partly_off_frame"]).cable_masks[0].data
    assert partly[:, -1].any() and not partly[:, 0].any()
    assert not worldsim.render(SCENES["wholly_off_frame"]).cable_masks[0].data.any()
    low = worldsim.render(SCENES["low_camera_off_frame"]).cable_masks
    assert any(m.data[-1].any() for m in low)
    crossing = worldsim.render(SCENES["crossing_equal_radii"]).cable_masks
    assert all(m.data.any() for m in crossing)
    masks, _, _, _ = full_frame_render(SCENES["crossing_occluded"])
    plain = SCENES["crossing_occluded"]
    bare, _, _, _ = full_frame_render(_scene(plain.cables))
    assert sum(m.sum() for m in masks) < sum(m.sum() for m in bare)


# ---------------------------------------------------------------- clustering


def _features(mask, color, weight=0.5):
    rows, cols = np.nonzero(mask)
    lab = imgproc.rgb_to_lab(color[rows, cols])
    return np.column_stack([weight * rows, weight * cols, lab]).astype(float)


def _cluster_cases():
    rng = np.random.default_rng(2)
    cases = []
    # gapped bar: fragments that only the join step links
    mask = np.zeros((60, 60), dtype=bool)
    mask[2:5, 0:16] = mask[2:5, 19:35] = mask[2:5, 39:55] = True
    mask[58, 2] = mask[58, 50] = True
    for cut in (12.0, 2.0, 1.9):
        cases.append((f"gapped_{cut}", _features(mask, np.full((60, 60, 3), 120.0)), 10, cut))
    # same-colour bars exactly 6.0 apart in feature space: a pair at the cut
    bars = np.zeros((3, 51), dtype=bool)
    bars[1, 0:20] = bars[1, 31:51] = True
    for cut in (6.0, 5.999):
        cases.append((f"at_cut_{cut}", _features(bars, np.full((3, 51, 3), 120.0)), 5, cut))
    # two colours meeting on a row
    color = np.zeros((6, 20, 3))
    color[:3] = (120, 120, 120)
    color[3:] = (120, 120, 145)
    feats = _features(np.ones((6, 20), dtype=bool), color)
    cross = float(np.linalg.norm(feats[2 * 20] - feats[3 * 20]))  # rows 2 and 3, column 0
    for cut in (2.0, 15.0, 60.0, cross):
        cases.append((f"colours_{cut:.3f}", feats, 5, cut))
    # random strokes of random colours, and sparse specks
    for i in range(4):
        mask = rng.random((40, 48)) < 0.04
        mask[10:14, 3:40] = mask[20:34, 30:33] = True
        color = rng.choice([20.0, 120.0, 200.0], size=(40, 48, 3))
        for k, cut in [(5, 3.0), (30, 60.0), (8, 25.0)]:
            cases.append((f"strokes{i}_{k}_{cut}", _features(mask, color), k, cut))
    cases.append(("one_point", np.zeros((1, 5)), 30, 60.0))
    cases.append(("two_points", np.array([[0.0] * 5, [3.0, 4.0, 0, 0, 0]]), 1, 5.0))
    return cases


CLUSTER_CASES = _cluster_cases()


@pytest.mark.parametrize(
    "name, features, k, cut", CLUSTER_CASES, ids=[c[0] for c in CLUSTER_CASES]
)
def test_reach_components_equal_the_coo_graph(name, features, k, cut):
    got = imgproc._reach_components(features, k, cut)
    expected = coo_reach_components(features, k, cut)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_links_hand_pairs_at_the_threshold_to_the_row_norm():
    # From 8 dimensions on, numpy sums the squares pairwise and the kd-tree
    # in order, so the two distances of many pairs differ in the last ulp
    # (the 5-dimensional clustering features are summed in order by both).
    # With the cut at one of the two, the kd-tree distance alone would
    # decide that pair the other way.
    rng = np.random.default_rng(4)
    features = rng.normal(size=(300, 9)) * rng.uniform(0.5, 200.0, 9)
    dist, nbr = cKDTree(features).query(features, k=9)
    src = np.repeat(np.arange(300), 9)
    norm = np.linalg.norm(features[src] - features[nbr.ravel()], axis=1).reshape(dist.shape)
    for r, c, cut in [
        *((r, c, norm[r, c]) for r, c in zip(*np.nonzero(dist > norm))),
        *((r, c, dist[r, c]) for r, c in zip(*np.nonzero(dist < norm))),
    ][::25]:
        links = imgproc._links(features, dist, nbr, float(cut))
        assert links[r, c] == (norm[r, c] <= cut) != (dist[r, c] <= cut)
        assert np.array_equal(links, norm <= cut)
    assert (dist > norm).sum() > 100 and (dist < norm).sum() > 100
