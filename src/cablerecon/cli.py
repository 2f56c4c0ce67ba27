"""Command-line surface: gen-scene, run, eval, plot.

Exit codes for `run`: 0 every cable reconstructed to one segment, 2 some
cable stayed fragmented (partial), 3 probe budget exhausted, 1 any other
error. The seed precedence is --seed, then DLO_SEED, then the scenario.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import pipeline, scenarios
from .errors import ProbeBudgetError
from .geom import checked


def _seed_from(args) -> int | None:
    """The --seed or DLO_SEED override, checked before any file is written; None if unset."""
    if args.seed is not None:
        return checked(args.seed, "an integer >= 0", "--seed")
    env = os.environ.get("DLO_SEED")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        value = env
    return checked(value, "an integer >= 0", "DLO_SEED")


def cmd_gen_scene(args) -> int:
    seed = 0 if args.seed is None else checked(args.seed, "an integer >= 0", "--seed")
    doc = scenarios.make_template(args.template, seed=seed)
    out = Path(args.out or f"{args.template}.yaml")
    scenarios.save_scenario(out, doc)
    print(out)
    return 0


def cmd_run(args) -> int:
    try:
        result = pipeline.run_pipeline(
            args.scenario,
            args.out,
            params_file=args.params,
            seed=_seed_from(args),
            tactile=not args.no_tactile,
        )
    except ProbeBudgetError as exc:
        print(f"error: probe budget exhausted: {exc}", file=sys.stderr)
        return pipeline.EXIT_BUDGET
    for cable in result.manifest["cables"]:
        state = "complete" if cable["complete"] else "partial"
        print(
            f"{cable['directory']}: {state}, {cable['final_segments']} segment(s), "
            f"{cable['tactile_points']} tactile points, {cable['probes_used']} probes"
        )
    print(result.out_dir)
    return result.exit_status


def cmd_eval(args) -> int:
    report = pipeline.evaluate_run(args.run_dir, args.reference, args.out)
    for row in report["cables"]:
        print(
            f"{row['cable']}: icp_rmse={row['icp_rmse']:.6f} m, "
            f"curve_mean={row['curve_mean_error']}, segments={row['segment_count']}"
        )
    return 0


def cmd_plot(args) -> int:
    written = pipeline.plot_run(args.run_dir)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cablerecon",
        description="Reconstruct cable shapes from occluded synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-scene", help="write a scenario from a template")
    p_gen.add_argument("template", help=f"one of: {', '.join(scenarios.TEMPLATES)}")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None, help="output scenario path")
    p_gen.set_defaults(func=cmd_gen_scene)

    p_run = sub.add_parser("run", help="run the reconstruction pipeline")
    p_run.add_argument("scenario", help="scenario file")
    p_run.add_argument("--out", required=True, help="run output directory")
    p_run.add_argument("--params", default=None, help="parameter override file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--no-tactile", action="store_true", help="skip tactile exploration"
    )
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a run against a reference")
    p_eval.add_argument("run_dir")
    p_eval.add_argument("reference", help="reference run directory or scenario file")
    p_eval.add_argument("--out", default=None, help="report path")
    p_eval.set_defaults(func=cmd_eval)

    p_plot = sub.add_parser("plot", help="emit SVG plots for a run")
    p_plot.add_argument("run_dir")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pipeline.EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
