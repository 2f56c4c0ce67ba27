"""Simulation oracle: ground-truth cables, synthetic camera, tactile pad.

Stands in for the physical bench: a support plane carrying spline-shaped
cables, axis-aligned occluder boxes that block the camera but not the
probe, a pinhole RGB-D render, and a rigid quasi-static contact model for
the 6x2 taxel pad. Everything is deterministic given the scene seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .cloudproc import PlaneModel
from .errors import InvalidViewError
from .explore import PAD_SHAPE, TAXELS
from .fitting import BSplineCurve, sample_curve
from .geom import Pose
from .imgproc import CameraIntrinsics, ImageGrid

PRESSURE_GAIN = 1000.0   # pressure units per meter of penetration
DENSE_SAMPLES = 4096     # centerline discretization for distance queries
BAND_PIXELS = 1 << 16    # render works on bands of whole rows holding about this many pixels

SHELF_COLOR = np.array([185.0, 170.0, 150.0])
OCCLUDER_COLOR = np.array([90.0, 90.0, 95.0])
_SEGMENT_OFFSETS = np.array([[-1], [0]])  # a nearest sample's two segments start here


def _point_to_polyline(queries: np.ndarray, samples: np.ndarray, tree: cKDTree, bound=np.inf):
    """Distance from each query to the polyline through `samples`, in 2D or 3D;
    inf for a query whose nearest sample is `bound` or more away.

    The two segments next to each query's nearest sample (starting at its
    index - 1 and at its index, bounded to the polyline) are measured in one
    (2, n) pass: the foot on each has its parameter t held to [0, 1], and 0
    on a zero-length segment. A finite `bound` only cuts the kd-tree's
    search short: a nearest sample found within it is the unbounded one.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    _, idx = tree.query(q, distance_upper_bound=bound)
    i0 = np.minimum(np.maximum(idx + _SEGMENT_OFFSETS, 0), len(samples) - 2)
    a = samples[i0]
    ab = samples[i0 + 1] - a
    denom = (ab * ab).sum(axis=2)
    t = ((q - a) * ab).sum(axis=2) / np.maximum(denom, 1e-300)
    t = np.minimum(np.maximum(np.where(denom > 0, t, 0.0), 0.0), 1.0)
    off = q - (a + t[..., None] * ab)
    dist = np.sqrt((off * off).sum(axis=2))
    return np.where(idx < len(samples), np.minimum(dist[0], dist[1]), np.inf)


@dataclass
class GroundTruthCable:
    """Parametric cable: a C2 centerline one radius above the plane."""

    centerline: BSplineCurve
    radius: float
    color: np.ndarray  # RGB in [0, 255]

    def __post_init__(self):
        self.color = np.asarray(self.color, dtype=float)
        if self.radius <= 0:
            raise ValueError("cable radius must be positive")
        self.dense_samples = sample_curve(self.centerline, DENSE_SAMPLES)

    @cached_property
    def _tree(self) -> cKDTree:
        """The samples' 3D kd-tree, built by the first distance query."""
        return cKDTree(self.dense_samples)

    def distance_to_centerline(self, points: np.ndarray) -> np.ndarray:
        return _point_to_polyline(points, self.dense_samples, self._tree)


@dataclass
class WorldScene:
    """Immutable world used both to render images and to answer probes; each
    cable's plan on the support plane, its kd-tree and the probe's search
    bound are built once, here."""

    support_plane: PlaneModel
    cables: list[GroundTruthCable]
    occluders: list[tuple[np.ndarray, np.ndarray]]
    camera: CameraIntrinsics
    width: int
    height: int
    seed: int = 0
    pressure_noise_sigma: float = 0.0

    def __post_init__(self):
        self.occluders = [
            (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
            for lo, hi in self.occluders
        ]
        cam_height = float(
            self.support_plane.signed_distance(self.camera.pose.translation)[0]
        )
        if cam_height <= 0:
            raise InvalidViewError("camera is on or behind the support plane")
        # (plan, its kd-tree, the probe's search bound) per cable: a taxel within r
        # of the plan has a sample within r + half the plan's longest segment
        self._plans = []
        for i, cable in enumerate(self.cables):
            heights = self.support_plane.signed_distance(cable.dense_samples)
            if np.max(np.abs(heights - cable.radius)) > 1e-6:
                raise ValueError(
                    f"cable {i} centerline is not one radius above the plane"
                )
            plan = self.support_plane.to_plane_coords(cable.dense_samples)
            longest = float(np.linalg.norm(np.diff(plan, axis=0), axis=1).max())
            self._plans.append((plan, cKDTree(plan), cable.radius + longest))


@dataclass
class RenderResult:
    cable_masks: list[ImageGrid]
    color: ImageGrid
    depth: ImageGrid
    shelf_mask: ImageGrid

    def union_cable_mask(self) -> ImageGrid:
        grid = np.zeros((self.color.height, self.color.width), dtype=bool)
        for mask in self.cable_masks:
            grid |= mask.data
        return ImageGrid(grid)


def _ray_grid(scene: WorldScene, rows: slice, cols: slice = slice(None)):
    """Camera origin and the world-frame ray direction of each pixel in `rows`
    and `cols` (by default every column)."""
    intr, cols = scene.camera, slice(*cols.indices(scene.width))
    return intr.pose.translation, intr.ray(*np.ogrid[rows, cols]) @ intr.pose.rotation.T


def _box_entry_depth(origin, dirs, lo, hi):
    """Camera-z of each ray's entry into the box; inf where it misses.

    Slabs are folded one axis at a time with fmax/fmin, which is what
    nanmax/nanmin over the last axis compute, in the same order.
    """
    t_near = t_far = np.full(dirs.shape[:-1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(3):
            t1 = (lo[k] - origin[k]) / dirs[..., k]
            t2 = (hi[k] - origin[k]) / dirs[..., k]
            t_near = np.fmax(t_near, np.minimum(t1, t2))
            t_far = np.fmin(t_far, np.maximum(t1, t2))
    hit = (t_near <= t_far) & (t_far > 0)
    return np.where(hit, np.maximum(t_near, 0.0), np.inf)


def _footprint(lo, hi, intr: CameraIntrinsics, h: int, w: int) -> tuple[slice, slice]:
    """Row and column slices holding every pixel whose ray can enter the box.

    A box in front of the camera projects inside its 8 projected corners'
    bounding box, taken here with a 1-pixel margin against rounding; with
    a corner at or behind the camera plane, the whole frame.
    """
    corners = np.where((np.arange(8)[:, None] >> np.arange(3)) & 1, hi, lo)
    row, col, z = intr.project(corners)
    if (z <= 0).any():
        return slice(0, h), slice(0, w)
    r0, c0 = np.clip(np.floor([row.min(), col.min()]) - 1, 0, [h, w]).astype(int)
    r1, c1 = np.clip(np.ceil([row.max(), col.max()]) + 2, 0, [h, w]).astype(int)
    return slice(r0, r1), slice(c0, c1)


def _project(cable: GroundTruthCable, intr: CameraIntrinsics):
    """Row, column, camera z and projected disk radius of each centerline
    sample in front of the camera."""
    row, col, z = intr.project(cable.dense_samples)
    front = z > 1e-6
    radii = np.round(0.5 * (intr.fx + intr.fy) * cable.radius / z[front]).astype(int)
    return row[front], col[front], z[front], radii


def _stamp(buf: np.ndarray, r0: int, c0: int, row, col, z, radii) -> None:
    """Stamp each sample's disk into `buf`, the depth buffer whose corner is
    pixel (r0, c0), keeping the nearest z.

    The disk of radius ri is centred on the sample's nearest pixel: it holds
    the pixels (round(row) + dr, round(col) + dc) with dr^2 + dc^2 <= ri^2 + ri.
    It is stamped once per distinct centre, with that centre's least z. Each
    disk is expanded only on the rows and columns that lie in the buffer, so
    none costs more than the buffer's size, and chunks of disks stamp about
    BAND_PIXELS pixels at a time.
    """
    h, w = buf.shape
    flat = buf.reshape(-1)
    if not buf.size:
        return  # every disk lies off the frame
    for ri in np.unique(radii):
        # a disk's bounding box, cut to the buffer's rows and columns
        nr, nc = min(2 * ri + 1, h), min(2 * ri + 1, w)
        step = max(1, BAND_PIXELS // (nr * nc))
        # one entry per distinct centre, row + 1j * column, with its least z
        sel = radii == ri
        centres, inv = np.unique(np.round(row[sel]) + 1j * np.round(col[sel]), return_inverse=True)
        cz = np.full(centres.size, np.inf)
        np.minimum.at(cz, inv, z[sel])
        cr, cc = centres.real.astype(int) - r0, centres.imag.astype(int) - c0
        for i in range(0, cr.size, step):
            r, c, zz = cr[i : i + step, None], cc[i : i + step, None], cz[i : i + step]
            dr = np.clip(-r, -ri, ri + 1 - nr) + np.arange(nr)
            dc = np.clip(-c, -ri, ri + 1 - nc) + np.arange(nc)
            rows, cols = r + dr, c + dc
            keep = dr[:, :, None] ** 2 + dc[:, None] ** 2 <= ri * ri + ri
            keep &= ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None]
            pixels = rows[:, :, None] * w + cols[:, None]
            np.minimum.at(flat, pixels[keep], np.broadcast_to(zz[:, None, None], keep.shape)[keep])


def _clip(lo: int, hi: int, b0: int, b1: int) -> slice:
    """Rows [lo, hi) that lie in rows [b0, b1), counted from b0."""
    return slice(min(max(lo, b0), b1) - b0, min(max(hi, b0), b1) - b0)


def render(scene: WorldScene) -> RenderResult:
    """Rasterize the scene into per-cable masks, color, depth, shelf mask.

    Cable centerlines are stamped as disks of their projected width, each
    centred on its sample's nearest pixel and carrying the least depth of
    the samples there (see `_stamp`). The per-cable depth buffers span one
    window: every sample centre plus or minus its disk radius, clipped to
    the frame. The plane's depth at pixel (row, col) is
    num / (den_r[row] + den_c[col]): the plane's normal, turned into camera
    coordinates once, dotted with the ray (x, y, 1). Occluder boxes remove
    cable pixels whose ray they block and cover the shelf where they
    project; rays are cast only on each box's footprint (see `_footprint`),
    and every ray outside it misses the box. The outputs are filled in bands
    of whole rows of about BAND_PIXELS pixels: from the plane, then patched
    on the footprints and the cable window; each band holds one array of
    occluder depths. Color is the 8-bit image a camera writes: each palette
    color clipped to [0, 255] and truncated, once.
    Depth is camera-frame z in meters, 0 where no surface is hit.
    """
    h, w = scene.height, scene.width
    intr, plane = scene.camera, scene.support_plane
    samples = [_project(cable, intr) for cable in scene.cables]
    row, col, rad = (np.concatenate([np.zeros(0), *(s[k] for s in samples)]) for k in (0, 1, 3))
    r0 = r1 = c0 = c1 = 0
    if row.size:
        first = np.floor([(row - rad).min(), (col - rad).min()])
        last = np.ceil([(row + rad).max(), (col + rad).max()])
        (r0, c0), (r1, c1) = np.clip([first, last + 1], 0, [h, w]).astype(int)
    cable_z = np.full((len(samples), r1 - r0, c1 - c0), np.inf)
    for buf, s in zip(cable_z, samples):
        _stamp(buf, r0, c0, *s)

    # background 0, shelf 1, occluder 2, cable ci 3 + ci: one 8-bit palette gather colors it
    palette = np.vstack([[0, 0, 0], SHELF_COLOR, OCCLUDER_COLOR, *(c.color for c in scene.cables)])
    palette = np.clip(palette, 0, 255).astype(np.uint8)
    num = -(float(plane.signed_distance(intr.pose.translation)[0]))
    # the ray (x, y, 1) meets the plane at camera z num / (n . (x, y, 1)), n the
    # plane's normal in camera coordinates: a row term plus a column term
    a, b, c = intr.pose.rotation.T @ plane.normal
    den_r = b * ((np.arange(h) - intr.cy) / intr.fy) + c
    den_c = a * ((np.arange(w) - intr.cx) / intr.fx)
    feet = [_footprint(lo, hi, intr, h, w) for lo, hi in scene.occluders]
    masks = [np.zeros((h, w), dtype=bool) for _ in samples]
    color, depth, shelf = np.empty((h, w, 3), np.uint8), np.empty((h, w)), np.empty((h, w), bool)
    step = max(1, BAND_PIXELS // w)
    for b0 in range(0, h, step):
        b1 = min(b0 + step, h)
        denom = den_r[b0:b1, None] + den_c
        with np.errstate(divide="ignore"):
            plane_z = num / denom  # num < 0: the camera is above the plane
        plane_z[denom >= 0] = np.inf
        surface = (plane_z < np.inf).astype(np.uint8)

        # occluder rays only on each footprint's pixels in the band
        box_z = np.full((b1 - b0, w), np.inf)
        for (lo, hi), (rows, cols) in zip(scene.occluders, feet):
            rows = slice(max(rows.start, b0), min(rows.stop, b1))
            if rows.start < rows.stop and cols.start < cols.stop:
                entry = _box_entry_depth(*_ray_grid(scene, rows, cols), lo, hi)
                foot = box_z[rows.start - b0 : rows.stop - b0, cols]
                np.minimum(foot, entry, out=foot)
        # a box standing on the shelf (plane_z == box_z) is colored shelf, but is no shelf pixel
        shelf[b0:b1] = plane_z < box_z
        band_depth = np.minimum(plane_z, box_z, out=depth[b0:b1])
        surface[box_z < plane_z] = 2

        # the window's rows in the band, and the band's rows in the window
        win = (_clip(r0, r1, b0, b1), slice(c0, c1))
        z = cable_z[:, _clip(b0, b1, r0, r1)]
        if z.size:
            # the first cable at the least depth shows where it lies in front of the occluders
            near = z.min(axis=0)
            front = near < box_z[win]
            np.copyto(band_depth[win], near, where=front)
            del near  # freed before the winner index is built: the two never coexist
            np.copyto(surface[win], z.argmin(axis=0) + 3, where=front, casting="unsafe")
            shelf[b0:b1][win] &= ~front
            for ci, mask in enumerate(masks):
                mask[b0:b1][win] = surface[win] == 3 + ci
            del front
        band_depth[band_depth == np.inf] = 0.0
        color[b0:b1] = palette.take(surface, axis=0)
        # free this band's arrays before the next band's are built beside them
        del denom, plane_z, box_z, surface, band_depth

    return RenderResult(
        cable_masks=[ImageGrid(mask) for mask in masks],
        color=ImageGrid(color),
        depth=ImageGrid(depth),
        shelf_mask=ImageGrid(shelf),
    )


def probe(scene: WorldScene, pad_pose: Pose) -> np.ndarray:
    """(6, 2) taxel pressures of the pad at `pad_pose`: rigid quasi-static contact.

    Per taxel, penetration is the height of the tallest surface under the
    taxel (support plane at 0, cable tube tops at r + sqrt(r^2 - rho^2))
    minus the pad face height; pressure is PRESSURE_GAIN times positive
    penetration. Identical poses give bit-identical maps: optional noise is
    seeded from the scene seed and the pose bytes. Whether the pad touches
    is the caller's reading of the pressures.
    """
    plane = scene.support_plane
    centers = pad_pose.transform(TAXELS)
    face_height = plane.signed_distance(centers)
    penetration = -face_height
    uv = plane.to_plane_coords(centers)
    for cable, (plan, tree, bound) in zip(scene.cables, scene._plans):
        rho = _point_to_polyline(uv, plan, tree, bound)
        surf = cable.radius + np.sqrt(np.maximum(cable.radius**2 - rho**2, 0.0))
        under = rho <= cable.radius
        np.copyto(penetration, np.maximum(penetration, surf - face_height), where=under)

    pressures = PRESSURE_GAIN * np.maximum(penetration, 0.0)
    if scene.pressure_noise_sigma > 0:
        tag = zlib.crc32(
            np.ascontiguousarray(pad_pose.rotation).tobytes()
            + np.ascontiguousarray(pad_pose.translation).tobytes()
        )
        rng = np.random.default_rng(np.random.SeedSequence([scene.seed, tag]))
        noise = rng.normal(0.0, scene.pressure_noise_sigma, len(TAXELS))
        pressures = np.maximum(pressures + noise, 0.0)
    return pressures.reshape(PAD_SHAPE)
