"""Outside-in benchmark of cablerecon: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload plain_vga --seed 1 --seconds 35 --trace 0

One op runs `pipeline.run_pipeline` on one scenario into a fresh run
directory, checks the run, then runs `pipeline.evaluate_run` against the
scenario's plain twin and deletes the directory. One round runs every
scene of the workload once; times are taken per round. A single caller
runs rounds back to back (closed loop) for `--seconds` after one untimed
warm-up op. Garbage is collected between ops, outside the timed calls.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced rounds and prints the per-layer metrics of `spans.PER_LAYER`;
the spans are written to `perfbench/out/`. The last line of standard
output is the result object; the line before it holds diagnostics (the
artifact digest, median and tail timings, failures), also written to
`perfbench/out/`.

The bounded timing is the fastest round (`recon_s.min`). On a shared
virtual machine the CPU runs in slow and fast phases that often last a
whole run; they move a run's median round by up to 40%, its fastest round
far less. Medians and eval times are diagnostics.

An op fails on an exception, a non-zero exit status, a manifest that does
not certify exactly the files on disk, artifact checksums that differ from
the first run of the same scene, or accuracy outside the acceptance limits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenes
import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
MAX_ICP_RMSE = 0.005  # m, acceptance criterion 1
MAX_CURVE_MEAN = 0.003  # m, acceptance criterion 1
UNCHECKSUMMED = {"manifest.json", "timing.txt", "eval_report.yaml"}

END_TO_END = (
    ("recon_s.min", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("probes_per_scene", "count"),
    ("curve_mean_mm", "mm"),
    ("icp_rmse_mm", "mm"),
    ("complete_ratio", "ratio"),
    ("ok_ratio", "ratio"),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SetUp:
    """Cold set-ups: a fresh interpreter imports cablerecon.pipeline and
    writes the workload's scenarios, as every CLI call would."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.command = [sys.executable, str(HERE / "scenes.py"), workload, str(seed)]
        self.work = work
        self.times: list[float] = []
        self.files: dict[str, bytes] | None = None
        self.identical = True  # every set-up wrote the same bytes

    def sample(self) -> Path:
        out = self.work / f"setup{len(self.times)}"
        start = time.perf_counter()
        subprocess.run(self.command + [str(out)], check=True, timeout=120)
        self.times.append(time.perf_counter() - start)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        self.files = self.files or files
        self.identical &= files == self.files
        return out


def check_run(result, run_dir: Path, reference: dict) -> list[str]:
    """Problems with a finished run directory; empty when it is sound."""
    problems = []
    if result.exit_status != 0:
        problems.append(f"exit status {result.exit_status}")
    on_disk = {
        str(p.relative_to(run_dir)): _sha256(p)
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name not in UNCHECKSUMMED
    }
    artifacts = result.manifest["artifacts"]
    if on_disk != artifacts:
        wrong = sorted(set(on_disk.items()) ^ set(artifacts.items()))
        problems.append(f"manifest does not certify the files on disk: {wrong[0][0]}")
    if artifacts != reference:
        wrong = sorted(set(artifacts.items()) ^ set(reference.items()))
        problems.append(f"artifact differs from the scene's first run: {wrong[0][0]}")
    return problems


def check_report(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if row["segment_count"] != 1:
            problems.append(f"{row['cable']}: {row['segment_count']} segments")
        if row["icp_rmse"] > MAX_ICP_RMSE:
            problems.append(f"{row['cable']}: ICP RMSE {row['icp_rmse']:.6f} m")
        if row["curve_mean_error"] is None or row["curve_mean_error"] > MAX_CURVE_MEAN:
            problems.append(f"{row['cable']}: curve mean error {row['curve_mean_error']}")
    return problems


class Bench:
    """Runs ops and rounds of one workload and keeps the correctness state."""

    def __init__(self, workload: str, scene_dir: Path, work: Path):
        from cablerecon import pipeline

        self.pipeline = pipeline
        self.scenes = scenes.scene_files(workload, scene_dir)
        self.work = work
        self.reference: dict[str, dict] = {}  # scene -> artifacts of its first run
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, scenario: Path, twin: Path) -> dict:
        run_dir = self.work / f"op{self.attempted}"
        self.attempted += 1
        rec: dict = {"scene": name}
        problems: list[str] = []
        gc.collect()
        try:
            start = time.perf_counter()
            result = self.pipeline.run_pipeline(scenario, run_dir)
            rec["recon_s"] = time.perf_counter() - start
            cables = result.manifest["cables"]
            rec["cables"] = len(cables)
            rec["complete"] = sum(bool(c["complete"]) for c in cables)
            rec["probes"] = sum(c["probes_used"] for c in cables)
            reference = self.reference.setdefault(name, result.manifest["artifacts"])
            problems += check_run(result, run_dir, reference)
            start = time.perf_counter()
            report = self.pipeline.evaluate_run(run_dir, twin)
            rec["eval_s"] = time.perf_counter() - start
            rec["curve_mean"] = [r["curve_mean_error"] for r in report["cables"]]
            rec["icp_rmse"] = [r["icp_rmse"] for r in report["cables"]]
            problems += check_report(report["cables"])
        except Exception as exc:  # a failing op is counted, not fatal
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        rec["ok"] = not problems
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")
        return rec

    def round(self, tracer: spans.Tracer | None = None) -> dict:
        first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            ops = [self.op(*scene) for scene in self.scenes]
        out = {"ops": ops, "ok": all(op["ok"] for op in ops)}
        if out["ok"]:
            out["wall_s"] = time.perf_counter() - start
            out["recon_s"] = sum(op["recon_s"] for op in ops)
            out["eval_s"] = sum(op["eval_s"] for op in ops)
        if tracer:
            out["layers"] = tracer.round_stats(first_span)
        return out


def timed_rounds(bench: Bench, seconds: float, tracer: spans.Tracer | None, setup: SetUp):
    """Rounds until `seconds` have passed (at least one). With a tracer the
    rounds come in untraced/traced pairs, alternating which runs first.
    Further set-ups run between rounds, spread over the run, so that
    `setup_s` samples the machine's speed as the rounds do."""
    plain, traced = [], []
    start = time.perf_counter()
    pair = 0
    while True:
        if tracer is None:
            plain.append(bench.round())
        else:
            for use in ((None, tracer) if pair % 2 == 0 else (tracer, None)):
                (traced if use else plain).append(bench.round(use))
        pair += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return plain, traced
        if len(setup.times) < SETUP_SAMPLES and elapsed >= len(setup.times) * seconds / SETUP_SAMPLES:
            setup.sample()


def _median(values):
    return statistics.median(values) if values else None


def _min(values):
    return min(values) if values else None


def _tail(values: list[float]) -> dict:
    """Highest percentile with at least ten rounds beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "percentile": None, "rounds": n}
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n, "rounds": n}


def end_to_end(rounds, setup_s, bench) -> dict:
    good = [r for r in rounds if r["ok"]]
    ran = [op for r in rounds for op in r["ops"] if "cables" in op]

    def per_round(fn):
        return _median([fn(r["ops"]) for r in good])

    def mean_mm(key):
        return lambda ops: 1000.0 * statistics.fmean(v for op in ops for v in op[key])

    cables = sum(op["cables"] for op in ran)
    values = {
        "recon_s.min": _min([r["recon_s"] for r in good]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes_per_scene": per_round(lambda ops: sum(op["probes"] for op in ops) / len(ops)),
        "curve_mean_mm": per_round(mean_mm("curve_mean")),
        "icp_rmse_mm": per_round(mean_mm("icp_rmse")),
        "complete_ratio": sum(op["complete"] for op in ran) / cables if cables else None,
        "ok_ratio": (bench.attempted - len(bench.failures)) / bench.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(plain, traced) -> tuple[dict, list[str]]:
    good = [r["layers"] for r in traced if r["ok"]]
    values = {
        name: _median([layers.get(name, 0.0) for layers in good])
        for name, _, _ in spans.PER_LAYER
    }
    traced_recon = _median([r["recon_s"] for r in traced if r["ok"]])
    plain_recon = _median([r["recon_s"] for r in plain if r["ok"]])
    values["trace.overhead_s"] = (
        traced_recon - plain_recon if traced_recon is not None and plain_recon is not None else None
    )
    # the self times under run_pipeline must add up to its span, and the
    # span must lie inside the benchmark's own timing of the same call
    problems = [
        f"round {i}: self times {r['layers']['trace.self_sum_s']:.6f} s "
        f"vs span {r['layers']['trace.recon_s']:.6f} s vs call {r['recon_s']:.6f} s"
        for i, r in enumerate(traced)
        if r["ok"]
        and not (
            abs(r["layers"]["trace.self_sum_s"] - r["layers"]["trace.recon_s"]) < 1e-6
            and r["layers"]["trace.recon_s"] <= r["recon_s"]
        )
    ]
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _ in spans.PER_LAYER
    }
    return metrics, problems


def _import_package() -> None:
    sys.path.insert(0, str(scenes.SRC))
    import cablerecon

    where = Path(cablerecon.__file__).resolve()
    if scenes.SRC not in where.parents:
        raise ImportError(f"cablerecon imported from {where}, not from {scenes.SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (scenes.SRC / "cablerecon" / "pipeline.py").is_file():
        print(f"error: no cablerecon sources under {scenes.SRC}", file=sys.stderr)
        return 2

    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = SetUp(args.workload, args.seed, work)
        scene_dir = setup.sample()
        _import_package()
        bench = Bench(args.workload, scene_dir, work)
        warmup = bench.op(*bench.scenes[0])
        tracer = spans.Tracer() if args.trace else None
        plain, traced = timed_rounds(bench, args.seconds, tracer, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(bench.failures)
    if not setup.identical:
        problems.append("set-ups wrote different scenario files")
    if args.trace:
        metrics, trace_problems = per_layer(plain, traced)
        problems += trace_problems
    else:
        metrics = end_to_end(plain, statistics.median(setup.times), bench)
    if any(m["value"] is None for m in metrics.values()):
        problems.append("no round completed without a failed op")

    digest = hashlib.sha256(json.dumps(bench.reference, sort_keys=True).encode()).hexdigest()
    good = [r for r in plain if r["ok"]]
    recon = [r["recon_s"] for r in good]
    evals = [r["eval_s"] for r in good]
    round_wall = sum(r["wall_s"] for r in good)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "artifact_digest": digest,
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "timings": {
            "recon_s.p50": {"value": _median(recon), "unit": "s"},
            "recon_s.tail": {**_tail(recon), "unit": "s"},
            "eval_s.p50": {"value": _median(evals), "unit": "s"},
            "eval_s.min": {"value": _min(evals), "unit": "s"},
            "scenes_per_s": {
                "value": len(bench.scenes) * len(good) / round_wall if good else None,
                "unit": "1/s",
            },
            "setup_s.samples": {"value": setup.times, "unit": "s"},
            "warmup_recon_s": {"value": warmup.get("recon_s"), "unit": "s"},
        },
        "recon_s.rounds": recon,
        "eval_s.rounds": evals,
        "problems": problems[:20],
    }
    result = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"diagnostics": diagnostics, "result": result}, indent=1)
    )
    if tracer is not None:
        (OUT / f"{stem}_spans.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
