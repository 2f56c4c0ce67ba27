"""The windowed vision front end against copies of its full-frame form.

`blur_and_clean` and `skeletonize` work on the foreground's bounding box,
`render` works in bands of whole rows, sums a row term and a column term
for the plane's depth, keeps its per-cable depth buffers on a window that
holds every stamped disk, stamps each distinct disk centre once, cut to
that window, casts rays for each occluder only on the part of its
footprint in the band and colors each band with one palette gather, and
`_reach_components` proves most core points from one kd-tree query per
4x4 pixel block. Each must equal, bit for bit, the full-frame code it
replaced, copied here as the oracle. The render's oracle, the suite's
only one, stamps every sample's whole disk, centred on the sample's
nearest pixel, into a buffer the size of the frame. Its plane depth takes
the same rational form as the render's, and is itself checked against
the intersection of each pixel's world-frame ray with the plane.
"""

import itertools

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


def full_frame_rays(scene):
    """Camera origin and the world-frame ray (x, y, 1) of every pixel, and
    the camera-frame x and y of each pixel."""
    intr = scene.camera
    cols, rows = np.meshgrid(np.arange(scene.width, dtype=float),
                             np.arange(scene.height, dtype=float))
    x, y = (cols - intr.cx) / intr.fx, (rows - intr.cy) / intr.fy
    dirs = np.stack([x, y, np.ones_like(cols)], axis=-1) @ intr.pose.rotation.T
    return intr.pose.translation, dirs, x, y


def plane_depths(scene):
    """(rational, ray-based) camera z where each pixel's ray meets the plane,
    inf where it does not. The rational form takes the plane's normal into
    camera coordinates once, (a, b, c), so the denominator of a ray (x, y, 1)
    is (b * y + c) + a * x; the ray-based form dots the world-frame ray with
    the normal."""
    origin, dirs, x, y = full_frame_rays(scene)
    plane = scene.support_plane
    a, b, c = scene.camera.pose.rotation.T @ plane.normal
    num = -(float(plane.signed_distance(origin)[0]))
    depths = []
    for denom in ((b * y + c) + a * x, dirs @ plane.normal):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_plane = num / denom
        depths.append(np.where((denom < 0) & (t_plane > 0), t_plane, np.inf))
    return depths


def full_frame_cable_z(scene):
    """Each cable's depth over the whole frame: every sample's disk, centred
    on the sample's nearest pixel, keeping the least depth."""
    intr = scene.camera
    h, w = scene.height, scene.width
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
            rr = (np.round(row[sel, None]) + gr[keep]).astype(int)
            cc = (np.round(col[sel, None]) + gc[keep]).astype(int)
            ok = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
            z0 = np.broadcast_to(zf[sel, None], ok.shape)
            np.minimum.at(buf, rr[ok] * w + cc[ok], z0[ok])
    return cable_z


def full_frame_render(scene):
    h, w = scene.height, scene.width
    origin, dirs, _, _ = full_frame_rays(scene)
    plane_z, _ = plane_depths(scene)
    plane_hit = np.isfinite(plane_z)
    box_z = np.full((h, w), np.inf)
    for lo, hi in scene.occluders:
        box_z = np.minimum(box_z, worldsim._box_entry_depth(origin, dirs, lo, hi))

    cable_z = full_frame_cable_z(scene)
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
    # the 8-bit image a camera writes: each channel clipped to [0, 255] and truncated
    return masks, np.clip(color, 0, 255).astype(np.uint8), depth, shelf


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
    for data in _inputs(mask, rng):
        got = imgproc.blur_and_clean(ImageGrid(data)).data
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


def _cable(start, end, radius=0.003, color=(30, 30, 30), plane=None):
    """A straight cable from `start` to `end`, (x, y) on PLANE or, given
    `plane`, (u, v) in its coordinates; one radius above the plane."""
    xy = np.linspace(start, end, 6)
    if plane is None:
        ctrl = np.column_stack([xy, np.full(6, radius)])
    else:
        ctrl = plane.from_plane_coords(xy) + radius * plane.normal
    return worldsim.GroundTruthCable(
        centerline=bspline_from_control_points(ctrl), radius=radius,
        color=np.array(color, dtype=float),
    )


def _scene(cables, occluders=(), camera=None, plane=PLANE):
    return worldsim.WorldScene(
        support_plane=plane, cables=list(cables), occluders=list(occluders),
        camera=camera or _camera(), width=160, height=120,
    )


def _box(lo, hi):
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


BOX = _box((-0.04, -0.03, 0.0), (0.03, 0.04, 0.05))
# cs1's plane, inclined by 15 degrees, seen by a camera that looks down at it
# obliquely: the plane's normal has three nonzero camera coordinates
TILT = np.radians(15.0)
TILTED = PlaneModel(np.array([np.sin(TILT), 0.0, np.cos(TILT), 0.0]))
LOW_CAMERA = _camera((-0.3, 0.0, 0.1), (0.35, 0.0, -0.12), (0.0, 0.0, -1.0), f=150.0)
# straight down with its principal point on a half pixel, (80.5, 60.5)
HALF_PIXEL_CAMERA = CameraIntrinsics(fx=150.0, fy=150.0, cx=80.5, cy=60.5, pose=_camera().pose)
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
    # disks of radius 7, within 15 x 15 pixels: more than a 1-row band's
    # BAND_PIXELS, so the stamp cuts the thick cable's centres into chunks of
    # 1, 4 and 85
    "thick_cable": _scene([
        _cable((-0.2, -0.05), (0.2, 0.05), radius=0.02),
        _cable((-0.2, 0.05), (0.2, -0.05), color=(40, 80, 200)),
    ]),
    "low_camera_off_frame": _scene(
        [_cable((-0.2, 0.0), (0.2, 0.0)), _cable((-0.2, 0.08), (0.2, 0.08), radius=0.006)],
        camera=LOW_CAMERA,
    ),
    # every centre of the first cable sits on row 60.5 and of the second on
    # column 80.5, where round(row + dr) is not round(row) + dr for every dr;
    # the third cable starts in the frame and runs 5 km off it, past column 2**20
    "half_pixel_and_far_off_centres": _scene(
        [
            _cable((-0.2, 0.0), (0.2, 0.0)),
            _cable((0.0, -0.2), (0.0, 0.2), radius=0.006),
            _cable((0.1, 0.05), (5000.0, 0.05)),
        ],
        camera=HALF_PIXEL_CAMERA,
    ),
    # occluders against the frame and the camera plane (z = 0.6 here)
    "occluder_partly_off_frame": _scene(
        [_cable((-0.2, 0.0), (0.3, 0.02))], [_box((0.18, -0.06, 0.0), (0.4, 0.06, 0.04))]
    ),
    "occluder_wholly_off_frame": _scene(
        [_cable((-0.2, 0.0), (0.2, 0.0))], [_box((0.5, -0.05, 0.0), (0.6, 0.05, 0.04))]
    ),
    "occluder_straddling_camera_plane": _scene(
        [_cable((-0.2, 0.07), (0.2, 0.07))], [BOX, _box((0.05, 0.05, 0.0), (0.1, 0.1, 0.8))]
    ),
    "occluder_touching_camera_plane": _scene(
        [_cable((-0.2, 0.07), (0.2, 0.07))], [_box((-0.1, 0.05, 0.0), (-0.05, 0.1, 0.6))]
    ),
    "occluder_behind_camera": _scene(
        [_cable((-0.2, 0.0), (0.2, 0.0))], [BOX, _box((-0.05, -0.05, 0.7), (0.05, 0.05, 0.9))]
    ),
    "tilted_plane_occluded": _scene(
        [
            _cable((-0.2, -0.02), (0.2, 0.03), plane=TILTED),
            _cable((0.02, -0.15), (-0.03, 0.15), radius=0.006, color=(40, 80, 200), plane=TILTED),
        ],
        [_box((-0.03, -0.04, -0.03), (0.04, 0.03, 0.05))],
        camera=_camera((0.05, 0.02, 0.6), (-0.1, -0.05, -1.0)),
        plane=TILTED,
    ),
    "tilted_camera_occluded": _scene(
        [_cable((-0.2, 0.0), (0.2, 0.0)), _cable((-0.2, 0.08), (0.2, 0.08), radius=0.006)],
        [_box((0.0, -0.03, 0.0), (0.05, 0.1, 0.04)), _box((0.3, -0.2, 0.0), (0.5, 0.2, 0.1))],
        camera=LOW_CAMERA,
    ),
}


@pytest.mark.parametrize("name", list(SCENES))
def test_render_equals_the_full_frame_render(name, monkeypatch):
    # bands of 1 and 7 rows put seams through the occluder footprints, the
    # stamp window and the frame's edges; a whole-frame band has none. The
    # same BAND_PIXELS sets the stamp's chunks of samples of one disk radius
    scene = SCENES[name]
    masks, color, depth, shelf = full_frame_render(scene)
    for rows in (1, 7, scene.height):
        monkeypatch.setattr(worldsim, "BAND_PIXELS", rows * scene.width)
        out = worldsim.render(scene)
        assert len(out.cable_masks) == len(masks)
        for got, expected in zip(out.cable_masks, masks):
            assert got.data.dtype == bool and got.data.tobytes() == expected.tobytes(), rows
        assert out.color.data.dtype == color.dtype, rows
        assert out.color.data.tobytes() == color.tobytes(), rows
        assert out.depth.data.dtype == depth.dtype, rows
        assert out.depth.data.tobytes() == depth.tobytes(), rows
        assert out.shelf_mask.data.tobytes() == shelf.tobytes(), rows


def test_render_scenes_cover_the_window_edges():
    # the oracle cases matter only if cables reach the frame's edges, cross
    # (so the winner tie-break runs) and an occluder hides part of a cable
    partly = worldsim.render(SCENES["partly_off_frame"]).cable_masks[0].data
    assert partly[:, -1].any() and not partly[:, 0].any()
    assert not worldsim.render(SCENES["wholly_off_frame"]).cable_masks[0].data.any()
    # the low camera looks along the cables: each one's disk radius varies
    low = SCENES["low_camera_off_frame"]
    assert all(len(np.unique(worldsim._project(c, low.camera)[3])) > 1 for c in low.cables)
    assert all(m.data[-1].any() for m in worldsim.render(low).cable_masks)
    half = SCENES["half_pixel_and_far_off_centres"]
    centres = [worldsim._project(c, half.camera)[:2] for c in half.cables]
    assert (centres[0][0] == 60.5).all() and (centres[1][1] == 80.5).all()
    assert (centres[2][1] < 160).sum() == 1 and centres[2][1].max() > 2**20
    # a cable along a half-pixel row or column covers whole rows and columns
    along_row, along_col, _ = worldsim.render(half).cable_masks
    assert np.array_equal(np.flatnonzero(along_row.data.any(axis=1)), [59, 60, 61])
    assert np.array_equal(np.flatnonzero(along_col.data.any(axis=0)), [78, 79, 80, 81, 82])
    thick = SCENES["thick_cable"]
    assert (worldsim._project(thick.cables[0], thick.camera)[3] == 7).all()
    crossing = worldsim.render(SCENES["crossing_equal_radii"]).cable_masks
    assert all(m.data.any() for m in crossing)
    masks, _, _, _ = full_frame_render(SCENES["crossing_occluded"])
    plain = SCENES["crossing_occluded"]
    bare, _, _, _ = full_frame_render(_scene(plain.cables))
    assert sum(m.sum() for m in masks) < sum(m.sum() for m in bare)
    tilted = SCENES["tilted_plane_occluded"]
    masks, _, _, _ = full_frame_render(tilted)
    bare, _, _, _ = full_frame_render(_scene(tilted.cables, camera=tilted.camera, plane=TILTED))
    assert all(m.any() for m in masks)
    assert sum(m.sum() for m in masks) < sum(m.sum() for m in bare)


def test_stamp_of_each_cable_equals_the_full_frame_stamp():
    # each cable alone in a buffer the size of the frame, its corner at pixel
    # (0, 0), with centres on half pixels and far off the frame
    scene = SCENES["half_pixel_and_far_off_centres"]
    for cable, expected in zip(scene.cables, full_frame_cable_z(scene)):
        buf = np.full((scene.height, scene.width), np.inf)
        worldsim._stamp(buf, 0, 0, *worldsim._project(cable, scene.camera))
        assert buf.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", list(SCENES))
def test_plane_depth_is_the_ray_plane_intersection(name):
    # the rational depth rounds apart from the ray's intersection with the
    # plane by at most 2 ulp; on the tilted plane it does round apart
    rational, ray = plane_depths(SCENES[name])
    hit = np.isfinite(ray)
    assert np.array_equal(np.isfinite(rational), hit)
    assert (np.abs(rational[hit] - ray[hit]) <= 2 * np.spacing(ray[hit])).all()
    if SCENES[name].support_plane is TILTED:
        assert (rational != ray).any()


def _hits_and_footprints(name):
    """(full-frame hit mask, footprint) of each occluder of scene `name`, from
    the rays of one band that spans the frame."""
    scene = SCENES[name]
    origin, dirs = worldsim._ray_grid(scene, slice(0, scene.height))
    return [
        (
            np.isfinite(worldsim._box_entry_depth(origin, dirs, lo, hi)),
            worldsim._footprint(lo, hi, scene.camera, scene.height, scene.width),
        )
        for lo, hi in scene.occluders
    ]


def test_occluder_scenes_cover_the_footprint_cases():
    # the oracle cases matter only if footprints meet the frame's edge, fall
    # wholly outside it, and fall back to the whole frame for boxes reaching
    # the camera plane, with and without pixels that the box hides
    frame = (slice(0, 120), slice(0, 160))
    (hit, foot), = _hits_and_footprints("occluder_partly_off_frame")
    assert hit.any() and hit[:, -1].any() and foot[1].stop == 160 and foot != frame
    (hit, foot), = _hits_and_footprints("occluder_wholly_off_frame")
    assert not hit.any() and hit[foot].size == 0
    _, (hit, foot) = _hits_and_footprints("occluder_straddling_camera_plane")
    assert hit.any() and foot == frame
    (hit, foot), = _hits_and_footprints("occluder_touching_camera_plane")
    assert hit.any() and foot == frame
    _, (hit, foot) = _hits_and_footprints("occluder_behind_camera")
    assert not hit.any() and foot == frame
    for hit, foot in _hits_and_footprints("tilted_camera_occluded"):
        assert hit.any() and foot != frame


@pytest.mark.parametrize("name", [name for name in SCENES if SCENES[name].occluders])
def test_footprint_holds_every_hit_and_a_pixel_around_the_corners(name):
    scene = SCENES[name]
    intr, h, w = scene.camera, scene.height, scene.width
    for (hit, foot), (lo, hi) in zip(_hits_and_footprints(name), scene.occluders):
        outside = hit.copy()
        outside[foot] = False
        assert not outside.any()
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        cam = (corners - intr.pose.translation) @ intr.pose.rotation
        if (cam[:, 2] <= 0).any():
            continue
        row = intr.fy * cam[:, 1] / cam[:, 2] + intr.cy
        col = intr.fx * cam[:, 0] / cam[:, 2] + intr.cx
        # one pixel beyond the corners, so rounding cannot cut off a hit
        assert foot[0].start <= max(np.floor(row.min()) - 1, 0)
        assert foot[0].stop >= min(np.ceil(row.max()) + 2, h)
        assert foot[1].start <= max(np.floor(col.min()) - 1, 0)
        assert foot[1].stop >= min(np.ceil(col.max()) + 2, w)


# ---------------------------------------------------------------- clustering


def _points(mask, color, weight=0.5):
    """(features, rows, cols) of the mask's pixels, as `cluster_pixels` builds them."""
    rows, cols = np.nonzero(mask)
    lab = imgproc.rgb_to_lab(color[rows, cols])
    return np.column_stack([weight * rows, weight * cols, lab]).astype(float), rows, cols


def _strokes(rng, colours):
    """Bars and specks on a 40x48 frame, each bar of one of `colours`."""
    mask = rng.random((40, 48)) < 0.04
    color = np.full((40, 48, 3), colours[0], dtype=float)
    for n, (rows, cols) in enumerate([
        (slice(10, 14), slice(3, 40)), (slice(20, 34), slice(30, 33)),
        (slice(2, 7), slice(5, 21)), (slice(25, 38), slice(2, 18)),
    ]):
        mask[rows, cols] = True
        color[rows, cols] = colours[n % len(colours)]
    return mask, color


def _cluster_cases():
    rng = np.random.default_rng(2)
    cases = []
    # gapped bar: fragments that only the join step links
    mask = np.zeros((60, 60), dtype=bool)
    mask[2:5, 0:16] = mask[2:5, 19:35] = mask[2:5, 39:55] = True
    mask[58, 2] = mask[58, 50] = True
    for cut in (12.0, 2.0, 1.9):
        cases.append((f"gapped_{cut}", _points(mask, np.full((60, 60, 3), 120.0)), 10, cut))
    # same-colour bars exactly 6.0 apart in feature space: a pair at the cut
    bars = np.zeros((3, 51), dtype=bool)
    bars[1, 0:20] = bars[1, 31:51] = True
    for cut in (6.0, 5.999):
        cases.append((f"at_cut_{cut}", _points(bars, np.full((3, 51, 3), 120.0)), 5, cut))
    # two colours meeting on a row
    color = np.zeros((6, 20, 3))
    color[:3] = (120, 120, 120)
    color[3:] = (120, 120, 145)
    points = _points(np.ones((6, 20), dtype=bool), color)
    cross = float(np.linalg.norm(points[0][2 * 20] - points[0][3 * 20]))  # rows 2 and 3, column 0
    for cut in (2.0, 15.0, 60.0, cross):
        cases.append((f"colours_{cut:.3f}", points, 5, cut))
    # two colours meeting inside a column of 4x4 blocks: the pixels right of
    # the boundary differ from their block's seed by more than the cut
    color = np.zeros((12, 24, 3))
    color[:, :6] = (120, 120, 120)
    color[:, 6:] = (60, 160, 90)
    points = _points(np.ones((12, 24), dtype=bool), color)
    for k, cut in [(5, 15.0), (30, 15.0), (30, 60.0), (1, 1.0)]:
        cases.append((f"boundary_{k}_{cut}", points, k, cut))
    # random strokes of random colours, and sparse specks
    for i in range(4):
        mask = rng.random((40, 48)) < 0.04
        mask[10:14, 3:40] = mask[20:34, 30:33] = True
        color = rng.choice([20.0, 120.0, 200.0], size=(40, 48, 3))
        for k, cut in [(5, 3.0), (30, 60.0), (8, 25.0)]:
            cases.append((f"strokes{i}_{k}_{cut}", _points(mask, color), k, cut))
    # strokes of flat and of noisy colours, at both ends of the spatial weight
    mask, flat = _strokes(rng, [(30, 30, 30), (40, 80, 200), (200, 30, 30)])
    noisy = np.clip(flat + rng.normal(0.0, 6.0, flat.shape), 0, 255)
    for colours, color in [("flat", flat), ("noisy", noisy)]:
        for weight in (0.5, 10.0):
            for k, cut in [(0, 60.0), (1, 12.0), (30, 60.0), (30, 12.0)]:
                name = f"{colours}_strokes_{weight}_{k}_{cut}"
                cases.append((name, _points(mask, color, weight), k, cut))
    # a certificate tight to the last ulp: on one row the seed (column 4)
    # reaches column 1, and column 6 lies on the far side of the seed, so
    # reach + gap equals its own 4th-neighbour distance in exact arithmetic,
    # but in floating point rounds one ulp below it, onto the cut
    line = np.zeros((1, 7), dtype=bool)
    line[0, [0, 1, 2, 3, 4, 6]] = True
    points = _points(line, np.full((1, 7, 3), 120.0), weight=0.8154261287457801)
    f = points[0][:, 1]
    tight = float(abs(f[4] - f[1]) + abs(f[5] - f[4]))
    assert tight < abs(f[5] - f[1])
    cases.append(("tight_certificate", points, 4, tight))
    specks = np.zeros((10, 10), dtype=bool)
    specks[[0, 0, 1, 3, 3, 4, 6, 7, 8, 9, 9, 9], [0, 1, 1, 5, 6, 6, 2, 8, 8, 0, 4, 9]] = True
    for cut in (8.0, 3.0):
        points = _points(specks, np.full((10, 10, 3), 120.0))
        cases.append((f"fewer_points_than_k_{cut}", points, 30, cut))
    cases.append(("one_point", (np.zeros((1, 5)), np.zeros(1, int), np.zeros(1, int)), 30, 60.0))
    two = np.array([[0.0] * 5, [3.0, 4.0, 0, 0, 0]])
    cases.append(("two_points", (two, np.array([0, 6]), np.array([0, 8])), 1, 5.0))
    return cases


CLUSTER_CASES = _cluster_cases()


@pytest.mark.parametrize(
    "name, points, k, cut", CLUSTER_CASES, ids=[c[0] for c in CLUSTER_CASES]
)
def test_reach_components_equal_the_coo_graph(name, points, k, cut):
    features, rows, cols = points
    got = imgproc._reach_components(features, rows, cols, k, cut)
    expected = coo_reach_components(features, k, cut)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class _QueryLog(cKDTree):
    """A kd-tree that logs (tree size, query size) of every query."""

    log = []

    def query(self, x, *args, **kwargs):
        _QueryLog.log.append((self.n, len(x)))
        return super().query(x, *args, **kwargs)


def test_cluster_cases_prove_some_core_points_and_query_others(monkeypatch):
    # the oracle cases matter only if the seeds prove some points and leave
    # others to their own query, in one case and across the cases
    monkeypatch.setattr(imgproc, "cKDTree", _QueryLog)
    proven = {}
    for name, (features, rows, cols), k, cut in CLUSTER_CASES:
        _QueryLog.log.clear()
        imgproc._reach_components(features, rows, cols, k, cut)
        n = len(features)
        if min(k, n - 1) > 0:
            (_, seeds), (_, rest) = [q for q in _QueryLog.log if q[0] == n][:2]
            proven[name] = (n - seeds - rest, rest)
    assert all(p > 0 and rest > 0 for p, rest in [proven["boundary_5_15.0"],
                                                  proven["noisy_strokes_0.5_30_60.0"]])
    assert any(p == 0 for p, _ in proven.values())
    assert any(rest == 0 for _, rest in proven.values())


def test_fragment_join_queries_one_tree_per_fragment_but_the_last(monkeypatch):
    # F fragments join with at most F - 1 kd-trees of fragments, each asked
    # once by the later fragments, not with one tree per pair (F(F - 1)/2)
    first_labels = []
    components = imgproc._components

    def logged_components(arg, n):
        first_labels.append(components(arg, n))
        return first_labels[-1]

    monkeypatch.setattr(imgproc, "_components", logged_components)
    monkeypatch.setattr(imgproc, "cKDTree", _QueryLog)
    fragments = {}
    for name, (features, rows, cols), k, cut in CLUSTER_CASES:
        n, k_eff = len(features), min(k, len(features) - 1)
        if k_eff <= 0:
            continue
        first_labels.clear()
        _QueryLog.log.clear()
        imgproc._reach_components(features, rows, cols, k, cut)
        core = cKDTree(features).query(features, k=k_eff + 1)[0][:, k_eff] <= cut
        fragments[name] = len(np.unique(first_labels[0][core]))
        joins = [q for q in _QueryLog.log if q[0] < n]
        assert len(joins) <= max(fragments[name] - 1, 0), name
    assert fragments["noisy_strokes_10.0_1_12.0"] > 2  # where F - 1 < F(F - 1)/2


def test_reach_components_decide_a_pair_at_the_threshold_by_its_row_norm():
    # From 8 dimensions on, numpy sums the squares pairwise and the kd-tree
    # in order, so the two distances of many pairs differ in the last ulp
    # (the 5-dimensional clustering features are summed in order by both).
    # With the cut at the lesser of the two, the kd-tree distance alone
    # would decide that pair the other way; at some of these cuts that
    # pair alone joins two components.
    rng = np.random.default_rng(4)
    features = rng.normal(size=(300, 9)) * rng.uniform(0.5, 200.0, 9)
    rows, cols = np.divmod(np.arange(300), 20)
    dist, nbr = cKDTree(features).query(features, k=9)
    src = np.repeat(np.arange(300), 9)
    norm = np.linalg.norm(features[src] - features[nbr.ravel()], axis=1).reshape(dist.shape)
    assert (dist > norm).sum() > 100 and (dist < norm).sum() > 100
    decisive = 0
    for r, c in list(zip(*np.nonzero(dist != norm)))[::25]:
        cut = float(min(dist[r, c], norm[r, c]))
        got = imgproc._reach_components(features, rows, cols, 2, cut)
        expected = coo_reach_components(features, 2, cut)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        # the cut at which the row norm decides the pair as its kd-tree distance does
        flipped = np.nextafter(cut, 0.0) if norm[r, c] < dist[r, c] else float(norm[r, c])
        decisive += not np.array_equal(coo_reach_components(features, 2, flipped), expected)
    assert decisive > 0
