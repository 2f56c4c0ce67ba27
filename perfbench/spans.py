"""Benchmark-side tracing: spans and counts around each layer's public calls.

`Tracer.installed()` replaces every wrapped function wherever the
cablerecon package binds it (so `pipeline.icp`, imported from
`evaluation`, and `fitting.voxel_downsample`, imported from `cloudproc`,
are traced too) and restores the originals on exit. A span is
(name, start, end, parent); spans stay in memory until the run ends.
Counts are read from the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict


def _cluster_counts(counts, args, kwargs, out):
    mask = args[0] if args else kwargs["mask_img"]
    counts["imgproc.cluster_pixels.pixels"] += int((mask.data > 0.5).sum())
    counts["imgproc.cluster_pixels.clusters"] += len(out.clusters)


def _skeleton_counts(counts, args, kwargs, out):
    counts["imgproc.skeletonize.pixels_out"] += int(out.data.sum())


def _cloud_counts(counts, args, kwargs, out):
    counts["imgproc.pixels_to_cloud.points"] += len(out)


def _ransac_counts(counts, args, kwargs, out):
    counts["cloudproc.ransac_plane.points"] += len(args[0])


def _merge_counts(counts, args, kwargs, out):
    counts["cloudproc.merge_close_points.points_in"] += len(args[0])
    counts["cloudproc.merge_close_points.points_out"] += len(out)


def _ply_counts(counts, args, kwargs, out):
    counts["cloudproc.save_ply.bytes"] += os.path.getsize(args[0])


def _sort_counts(counts, args, kwargs, out):
    counts["topology.sort_and_find_endpoints.points"] += len(args[0])
    counts["topology.sort_and_find_endpoints.segments"] += len(out.segments)


def _explore_counts(counts, args, kwargs, out):
    counts["explore.probes"] += out.probes_used
    counts["explore.contacts"] += sum(row["touched"] for row in out.trace)
    counts["explore.tactile_points"] += len(out.tactile_cloud)
    counts["explore.dead_ends"] += out.dead_ends


def _icp_counts(counts, args, kwargs, out):
    counts["evaluation.icp.iterations"] += out.iterations


# (module, public function, counter) for every layer the trace wraps
LAYERS = (
    ("pipeline", "run_pipeline", None),
    ("pipeline", "evaluate_run", None),
    ("worldsim", "render", None),
    ("worldsim", "probe", None),
    ("imgproc", "blur_and_clean", None),
    ("imgproc", "cluster_pixels", _cluster_counts),
    ("imgproc", "skeletonize", _skeleton_counts),
    ("imgproc", "pixels_to_cloud", _cloud_counts),
    ("cloudproc", "ransac_plane", _ransac_counts),
    ("cloudproc", "voxel_downsample", None),
    ("cloudproc", "merge_close_points", _merge_counts),
    ("cloudproc", "project_to_plane", None),
    ("cloudproc", "save_ply", _ply_counts),
    ("topology", "sort_and_find_endpoints", _sort_counts),
    ("explore", "explore_from_endpoints", _explore_counts),
    ("explore", "indicator", None),
    ("explore", "merge_clouds", None),
    ("fitting", "refine_merged", None),
    ("fitting", "fit_bspline", None),
    ("evaluation", "icp", _icp_counts),
    ("evaluation", "curve_error", None),
)

# (metric, unit, better) reported by a traced run; each value is the median
# over traced rounds of that round's total (see `Tracer.round_stats`)
PER_LAYER = (
    ("imgproc.cluster_pixels.s", "s", "lower"),
    ("imgproc.cluster_pixels.pixels", "count", "lower"),
    ("imgproc.cluster_pixels.clusters", "count", "higher"),
    ("imgproc.blur_and_clean.s", "s", "lower"),
    ("imgproc.skeletonize.s", "s", "lower"),
    ("imgproc.skeletonize.pixels_out", "count", "lower"),
    ("imgproc.pixels_to_cloud.s", "s", "lower"),
    ("imgproc.pixels_to_cloud.points", "count", "lower"),
    ("worldsim.render.s", "s", "lower"),
    ("worldsim.render.calls", "count", "lower"),
    ("worldsim.probe.s", "s", "lower"),
    ("worldsim.probe.calls", "count", "lower"),
    ("worldsim.probe.us_per_call", "us", "lower"),
    ("explore.explore_from_endpoints.s", "s", "lower"),
    ("explore.explore_from_endpoints.self_s", "s", "lower"),
    ("explore.probes", "count", "lower"),
    ("explore.contacts", "count", "lower"),
    ("explore.tactile_points", "count", "higher"),
    ("explore.dead_ends", "count", "lower"),
    ("explore.accept_ratio", "ratio", "higher"),
    ("explore.indicator.calls", "count", "lower"),
    ("explore.merge_clouds.s", "s", "lower"),
    ("cloudproc.ransac_plane.s", "s", "lower"),
    ("cloudproc.ransac_plane.points", "count", "lower"),
    ("cloudproc.voxel_downsample.s", "s", "lower"),
    ("cloudproc.merge_close_points.s", "s", "lower"),
    ("cloudproc.merge_close_points.points_in", "count", "lower"),
    ("cloudproc.merge_close_points.points_out", "count", "lower"),
    ("cloudproc.project_to_plane.s", "s", "lower"),
    ("cloudproc.save_ply.s", "s", "lower"),
    ("cloudproc.save_ply.bytes", "bytes", "lower"),
    ("topology.sort_and_find_endpoints.s", "s", "lower"),
    ("topology.sort_and_find_endpoints.calls", "count", "lower"),
    ("topology.sort_and_find_endpoints.points", "count", "lower"),
    ("topology.sort_and_find_endpoints.segments", "count", "lower"),
    ("fitting.refine_merged.s", "s", "lower"),
    ("fitting.fit_bspline.s", "s", "lower"),
    ("evaluation.icp.s", "s", "lower"),
    ("evaluation.icp.iterations", "count", "lower"),
    ("evaluation.curve_error.s", "s", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("pipeline.evaluate_run.s", "s", "lower"),
    ("pipeline.evaluate_run.self_s", "s", "lower"),
    ("trace.recon_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name id, start, end, parent
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("cablerecon.")]
        saved = []
        try:
            for module_name, func_name, counter in LAYERS:
                home = sys.modules[f"cablerecon.{module_name}"]
                original = getattr(home, func_name)
                traced = self._wrap(f"{module_name}.{func_name}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def round_stats(self, first_span: int) -> dict[str, float]:
        """Per-round totals of every span recorded since `first_span`, with
        the round's counts; resets the counts for the next round."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        stats: defaultdict[str, float] = defaultdict(float, self.counts)
        self.counts.clear()
        for name_id, start, end, parent in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        recon_root = self._name_ids["pipeline.run_pipeline"]
        root_of: list[int] = []
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = self.names[name_id]
            root_of.append(root_of[parent - first_span] if parent >= first_span else name_id)
            self_time = end - start - child_time[i]
            stats[f"{name}.s"] += end - start
            stats[f"{name}.self_s"] += self_time
            stats[f"{name}.calls"] += 1
            if root_of[i] == recon_root:
                stats["trace.self_sum_s"] += self_time
        stats["trace.recon_s"] = stats["pipeline.run_pipeline.s"]
        probe_calls = stats["worldsim.probe.calls"]
        stats["worldsim.probe.us_per_call"] = (
            1e6 * stats["worldsim.probe.s"] / probe_calls if probe_calls else 0.0
        )
        probes = stats["explore.probes"]
        stats["explore.accept_ratio"] = (
            stats["explore.tactile_points"] / probes if probes else 0.0
        )
        return dict(stats)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }
