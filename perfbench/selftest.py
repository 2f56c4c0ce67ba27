"""Quick self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

- One round per workload, untraced and traced: every metric that
  BENCHMARK.json names is emitted with its unit, and nothing else.
- The correctness gate fails an op whose artifact checksum was altered,
  either in the manifest's reference or in a file on disk, and a run into
  a reused directory that certifies a previous run's stale artifacts.
- Without the program's sources next to it, the benchmark exits non-zero
  and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import scenes

HERE = run.HERE
ROOT = scenes.ROOT


def _check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def check_metrics(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in sorted(scenes.WORKLOADS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            numbers = all(
                isinstance(m["value"], (int, float)) for m in result["metrics"].values()
            )
            _check(
                proc.returncode == 0 and result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1 and emitted == expected and numbers,
                f"{workload} --trace {trace}: correct, every {key} metric with its unit",
                failures,
            )


def check_gate(failures: list[str]) -> None:
    work = HERE / "_work" / "selftest-gate"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run._import_package()
        scenes.write_scenes("tactile_qvga", 0, work / "scenes")
        bench = run.Bench("tactile_qvga", work / "scenes", work)
        name, scenario, twin = bench.scenes[0]
        _check(bench.op(name, scenario, twin)["ok"], "an unaltered op passes the gate", failures)

        fresh = dict(bench.reference[name])
        artifact = sorted(fresh)[0]
        bench.reference[name][artifact] = "0" * 64
        _check(
            not bench.op(name, scenario, twin)["ok"] and len(bench.failures) == 1,
            "the gate fails an op whose artifact checksum differs from the first run",
            failures,
        )

        # a reused run directory keeps a previous run's cable_01/ (two cables
        # before, one now) and the new manifest certifies it
        stale = work / "stale"
        bench.pipeline.run_pipeline(bench.scenes[1][1], stale)
        result = bench.pipeline.run_pipeline(scenario, stale)
        _check(
            any("differs from the scene's first run" in p
                for p in run.check_run(result, stale, fresh)),
            "the gate fails a run into a reused directory (stale artifacts)",
            failures,
        )

        run_dir = work / "tampered"
        result = bench.pipeline.run_pipeline(scenario, run_dir)
        reference = dict(result.manifest["artifacts"])
        with open(run_dir / artifact, "r+b") as fh:
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 1]))
        problems = run.check_run(result, run_dir, reference)
        _check(
            any("does not certify" in p for p in problems),
            "the gate fails a run whose file on disk no longer matches its manifest",
            failures,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory(failures: list[str]) -> None:
    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plain_vga",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
        _check(
            proc.returncode != 0 and '"metrics"' not in proc.stdout,
            "without the sources the benchmark exits non-zero and prints no result",
            failures,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    check_bare_directory(failures)
    check_gate(failures)
    check_metrics(failures)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
