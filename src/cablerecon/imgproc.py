"""Mask-to-skeleton-cloud front end.

Turns binary segmentation masks into per-cable skeleton point clouds:
blur and contour removal, density clustering in a joint space/color
feature space, topology-preserving thinning, and pinhole back-projection
of the surviving pixels through the depth image.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import EmptyInputError, InsufficientDepthError
from .geom import Pose

DEPTH_MAGIC = b"DPTHF32\x00"
SPATIAL_WEIGHT = 0.5  # pixel coordinates weighted against CIELAB units in clustering
MIN_CLUSTER_SIZE = 30  # smaller pixel clusters are noise
CUT_THRESHOLD = 60.0  # MST edge length in that feature space above which clusters separate


@dataclass
class ImageGrid:
    """Row-major raster; (h, w) for masks/depth, (h, w, 3) for color.

    Mask data is {0, 1} float or bool, color is uint8 RGB (the 8-bit image
    the camera writes), depth is meters with 0 marking invalid pixels.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim not in (2, 3):
            raise ValueError("image data must be 2D or 2D x 3 channels")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass
class CameraIntrinsics:
    """Pinhole parameters plus the camera-to-base pose. Rows run along camera
    y through `fy` and `cy`, columns along camera x through `fx` and `cx`, and
    depth is camera z; `project` and `ray` are the two halves of this model."""

    fx: float
    fy: float
    cx: float
    cy: float
    pose: Pose

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    def project(self, points: np.ndarray):
        """Row, column and camera z of each base-frame point (n, 3); where z <= 0
        row and column mean nothing, and no warning is raised."""
        x, y, z = ((points - self.pose.translation) @ self.pose.rotation).T
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.fy * y / z + self.cy, self.fx * x / z + self.cx, z

    def ray(self, rows, cols) -> np.ndarray:
        """Camera-frame direction (x, y, 1) of each pixel; x is computed once per
        column and y once per row, then broadcast: (h, 1) rows by (w,) cols is (h, w, 3)."""
        dirs = np.ones(np.broadcast_shapes(np.shape(rows), np.shape(cols)) + (3,))
        dirs[..., 0] = (cols - self.cx) / self.fx
        dirs[..., 1] = (rows - self.cy) / self.fy
        return dirs


@dataclass
class PixelCluster:
    pixels: np.ndarray       # (n, 2) int (row, col)
    mean_color: np.ndarray   # (3,) RGB in [0, 255]

    def as_mask(self, height: int, width: int) -> ImageGrid:
        grid = np.zeros((height, width), dtype=bool)
        grid[self.pixels[:, 0], self.pixels[:, 1]] = True
        return ImageGrid(grid)


@dataclass
class PixelClusterSet:
    clusters: list[PixelCluster]


def _binary(mask_img: ImageGrid) -> np.ndarray:
    """The mask as bool: bool data as it is (not a copy), other data > 0.5."""
    data = mask_img.data
    return data if data.dtype == bool else np.asarray(data, dtype=float) > 0.5


def _foreground_box(mask: np.ndarray) -> tuple[slice, slice]:
    """Row and column slices of the bounding box of `mask`; empty if `mask` is."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def blur_and_clean(mask_img: ImageGrid) -> ImageGrid:
    """3x3 box blur re-binarized at 0.5, then one erosion with a cross.

    The blur suppresses isolated specks, the erosion strips the 1-pixel
    contour where mask colors bleed into the background. Both run on the
    foreground's bounding box: a pixel outside it has at most 3 foreground
    neighbours, so it fails the vote of 5 out of 9 whatever the frame holds.
    """
    mask = _binary(mask_img)
    out = np.zeros(mask.shape, dtype=bool)
    box = _foreground_box(mask)
    h, w = mask[box].shape
    padded = np.pad(mask[box], 1).view(np.uint8)
    acc = sum(padded[dr : dr + h, dc : dc + w] for dr in range(3) for dc in range(3))
    blurred = acc >= 5  # for counts 0-9, the same as acc / 9.0 >= 0.5

    padded = np.pad(blurred, 1)
    out[box] = (
        blurred
        & padded[:-2, 1:-1]
        & padded[2:, 1:-1]
        & padded[1:-1, :-2]
        & padded[1:-1, 2:]
    )
    return ImageGrid(out)


def rgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """sRGB in [0, 255] to CIELAB under D65, vectorized over leading axes."""
    c = np.asarray(rgb, dtype=float) / 255.0
    c = np.where(c > 0.04045, ((c + 0.055) / 1.055) ** 2.4, c / 12.92)
    m = np.array(
        [
            [0.4124564, 0.3575761, 0.1804375],
            [0.2126729, 0.7151522, 0.0721750],
            [0.0193339, 0.1191920, 0.9503041],
        ]
    )
    xyz = c @ m.T
    white = np.array([0.95047, 1.0, 1.08883])
    t = xyz / white
    f = np.where(t > (6.0 / 29.0) ** 3, np.cbrt(t), t / (3 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    lab = np.empty_like(f)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def _components(arg: tuple, n: int) -> np.ndarray:
    """Component labels of the undirected graph `csr_matrix(arg)` on n nodes."""
    return connected_components(csr_matrix(arg, shape=(n, n)), directed=False)[1]


def _reach_components(features, rows, cols, k: int, threshold: float) -> np.ndarray:
    """Component labels of the mutual-reachability graph at `threshold`.

    Points i, j are linked when max(core_i, core_j, |f_i - f_j|) <= threshold,
    core being the distance to the k-th nearest neighbour; the components
    equal those of the mutual-reachability MST cut at `threshold`. Point i
    lies on pixel (rows[i], cols[i]); the pixels choose the queries, never a label.

    Only the seeds, the first point of each 4x4 pixel block, are queried
    first. Point i is core if reach(seed) + |f_i - f_seed| <= threshold
    (1 - 1e-9), reach being the seed's k-th neighbour distance: the seed's
    k + 1 points then lie within the threshold of i (triangle inequality,
    with room for rounding). Only the points this cannot prove are queried.
    Fragments come from the queried points' kNN links and each core point's
    link to a core seed within the threshold; two fragments join when any
    pair across them is within it. The kd-tree only nominates pairs; the
    row-wise norm of each pair's feature difference decides it, so a pair
    exactly at the threshold links.
    """
    n = len(features)
    k_eff = min(k, n - 1)
    if k_eff <= 0:
        return np.arange(n)
    tree = cKDTree(features)
    n_query = min(max(k_eff, 8), n - 1) + 1
    _, seeds, block = np.unique(
        (rows // 4) * (cols.max() // 4 + 1) + cols // 4, return_index=True, return_inverse=True
    )
    seed = seeds[block]
    dist, nbr = tree.query(features[seeds], k=n_query)
    reach = dist[:, k_eff]
    gap = np.linalg.norm(features - features[seed], axis=1)
    core = reach[block] + gap <= threshold * (1 - 1e-9)
    core[seeds] = reach <= threshold
    rest = np.flatnonzero(~core & (seed != np.arange(n)))
    rest_dist, rest_nbr = tree.query(features[rest], k=n_query)
    core[rest] = rest_dist[:, k_eff] <= threshold
    asked = np.concatenate([seeds, rest])
    nbr = np.vstack([nbr, rest_nbr])
    qi, qj = np.nonzero(core[asked, None] & core[nbr])
    near = np.linalg.norm(features[asked[qi]] - features[nbr[qi, qj]], axis=1) <= threshold
    qi, qj = qi[near], qj[near]
    to_seed = np.flatnonzero(core & core[seed] & (gap <= threshold))
    src = np.concatenate([asked[qi], to_seed])
    dst = np.concatenate([nbr[qi, qj], seed[to_seed]])
    labels = _components((np.ones(len(src)), (src, dst)), n)

    ids = np.unique(labels[core])
    bound = threshold * (1 + 1e-9)  # the kd-tree's bound excludes a pair exactly at it
    joins = []
    for f in ids[:-1]:  # one tree per fragment, asked by the core points of later ones
        frag, later = np.flatnonzero(labels == f), np.flatnonzero(core & (labels > f))
        d, j = cKDTree(features[frag]).query(features[later], k=1, distance_upper_bound=bound)
        hit = np.isfinite(d)
        link = np.linalg.norm(features[later[hit]] - features[frag[j[hit]]], axis=1) <= threshold
        joins += [(f, g) for g in np.unique(labels[later[hit][link]])]
    ja, jb = np.array(joins, dtype=int).reshape(-1, 2).T
    return _components((np.ones(len(ja)), (ja, jb)), labels.max() + 1)[labels]


def cluster_pixels(mask_img: ImageGrid, color_img: ImageGrid) -> PixelClusterSet:
    """Separate cables by color and position with a density MST cut.

    Each foreground pixel becomes a feature (s*row, s*col, L, a, b), s
    being SPATIAL_WEIGHT. The partition equals a minimum spanning tree
    over mutual-reachability distances (core size = MIN_CLUSTER_SIZE) cut
    at edges longer than CUT_THRESHOLD, computed as the components of the
    threshold graph of those distances in near-linear time, without the
    tree, most core pixels proven from one kd-tree query per 4x4 pixel block.
    Components smaller than MIN_CLUSTER_SIZE are dropped as noise. With
    these weights, color dominates, so one cable split spatially by an
    occluder stays a single cluster while differently colored cables separate.
    """
    mask = _binary(mask_img)
    rows, cols = np.nonzero(mask)
    if len(rows) == 0:
        raise EmptyInputError("mask has no foreground pixels")
    # cast after the gather: a float copy of a 640x480 frame would be 7.4 MB
    colors = np.asarray(color_img.data)[rows, cols].astype(float)
    lab = rgb_to_lab(colors)
    features = np.column_stack([SPATIAL_WEIGHT * rows, SPATIAL_WEIGHT * cols, lab])

    labels = _reach_components(features, rows, cols, MIN_CLUSTER_SIZE, CUT_THRESHOLD)
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    clusters = []
    for index in np.flatnonzero(counts >= MIN_CLUSTER_SIZE):
        members = np.flatnonzero(inverse == index)
        pix = np.column_stack([rows[members], cols[members]]).astype(int)
        clusters.append(PixelCluster(pixels=pix, mean_color=colors[members].mean(axis=0)))

    clusters.sort(
        key=lambda c: (tuple(np.round(c.mean_color, 6)), tuple(c.pixels.mean(axis=0)))
    )
    return PixelClusterSet(clusters=clusters)


def _thinning_pass(img: np.ndarray, step: int) -> np.ndarray:
    """One Zhang-Suen subiteration; returns the deletion mask."""
    padded = np.pad(img, 1, mode="constant").astype(np.uint8)
    p2 = padded[:-2, 1:-1]
    p3 = padded[:-2, 2:]
    p4 = padded[1:-1, 2:]
    p5 = padded[2:, 2:]
    p6 = padded[2:, 1:-1]
    p7 = padded[2:, :-2]
    p8 = padded[1:-1, :-2]
    p9 = padded[:-2, :-2]
    ring = [p2, p3, p4, p5, p6, p7, p8, p9]
    b = sum(ring)
    a = sum(
        ((ring[i] == 0) & (ring[(i + 1) % 8] == 1)).astype(np.uint8)
        for i in range(8)
    )
    if step == 0:
        cond = (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        cond = (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return (img == 1) & (b >= 2) & (b <= 6) & (a == 1) & cond


def skeletonize(cluster_img: ImageGrid) -> ImageGrid:
    """Zhang-Suen thinning to convergence; 1-pixel-wide, topology kept.

    Thins the foreground's bounding box alone: a pass reads 3x3
    neighbourhoods and deletes only foreground pixels, and every pixel
    outside the box is 0 before and after, as the box's zero padding is.
    """
    mask = _binary(cluster_img)
    out = np.zeros(mask.shape, dtype=bool)
    box = _foreground_box(mask)
    img = mask[box].astype(np.uint8)
    while True:
        changed = False
        for step in (0, 1):
            remove = _thinning_pass(img, step)
            if remove.any():
                img[remove] = 0
                changed = True
        if not changed:
            out[box] = img
            return ImageGrid(out)


def pixels_to_cloud(
    pixels: np.ndarray, depth_img: ImageGrid, intr: CameraIntrinsics
) -> np.ndarray:
    """Back-project (row, col) pixels through depth into the base frame.

    Pixels with zero depth are skipped; if fewer than half carry depth the
    cloud is too unreliable to use and InsufficientDepthError is raised.
    """
    pix = np.asarray(pixels, dtype=int).reshape(-1, 2)
    depth = np.asarray(depth_img.data, dtype=float)[pix[:, 0], pix[:, 1]]
    valid = depth > 0
    if np.count_nonzero(valid) < 0.5 * len(pix):
        raise InsufficientDepthError(
            f"only {int(np.count_nonzero(valid))} of {len(pix)} pixels have depth"
        )
    return intr.pose.transform(intr.ray(pix[valid, 0], pix[valid, 1]) * depth[valid, None])


def save_pgm(path, mask_img: ImageGrid) -> None:
    """Binary PGM (P5); foreground 255, background 0."""
    mask = _binary(mask_img)
    header = f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + (mask * np.uint8(255)).astype(np.uint8).tobytes())


def save_ppm(path, color_img: ImageGrid) -> None:
    """Binary PPM (P6) of the 8-bit color image, its bytes as they are."""
    data = np.asarray(color_img.data, dtype=np.uint8)
    Path(path).write_bytes(f"P6\n{data.shape[1]} {data.shape[0]}\n255\n".encode() + data.tobytes())


def save_depth(path, depth_img: ImageGrid) -> None:
    """Raw float32 depth with a 16-byte header (magic, width, height)."""
    data = np.asarray(depth_img.data, dtype=np.float32)
    header = DEPTH_MAGIC + struct.pack("<II", data.shape[1], data.shape[0])
    Path(path).write_bytes(header + data.tobytes())
