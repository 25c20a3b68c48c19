"""Fast check of the benchmark's own code, at tiny sizes.

    python3 perfbench/smoke.py

Run from the repository root (about a minute).  Runs every workload with
``--smoke`` in both modes and checks that each prints every metric of
``BENCHMARK.json`` with its unit, that every correctness check passes
(campaign digests included), that the layers a workload bypasses read 0
and the layers doing its work read above 0, and that the benchmark
refuses to run outside a program checkout.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import common
from run import WORKS_IN

SEED = 1  # the smoke digests in digests.json are recorded for this seed

#: Per-layer metrics that must read 0 where a workload bypasses the layer.
BYPASSED = {
    "campaign_cold": ("ml.forest_fits",),
    "arch_sweep": ("profiler.calls", "workloads.instructions", "ml.forest_fits"),
    "train_tune": ("nmcsim.points", "profiler.calls"),
    "serve_predict": ("nmcsim.points", "profiler.calls", "ml.forest_fits"),
}


def run(root: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(root: Path, bench: dict, workload: str, trace: int) -> None:
    proc = run(root, root, "--workload", workload, "--seed", str(SEED),
               "--seconds", "2", "--trace", str(trace), "--smoke")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{where}: checks failed\n{proc.stdout[-3000:]}")
    if any('"checked": false' in line for line in lines):
        sys.exit(f"{where}: no recorded digest for seed {SEED}")
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in declared]:
        sys.exit(f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            sys.exit(f"{where}: bad metric {m['name']}: {got}")
        if not trace and got["value"] <= 0:
            sys.exit(f"{where}: end-to-end metric {m['name']} is not positive")
    if trace:
        for name in BYPASSED[workload]:
            if metrics[name]["value"] != 0:
                sys.exit(f"{where}: bypassed layer {name} reads "
                         f"{metrics[name]['value']}")
        for name in WORKS_IN[workload]:
            if not metrics[name]["value"] > 0:
                sys.exit(f"{where}: working layer {name} reads "
                         f"{metrics[name]['value']}")
        if metrics["trace.attributed_share"]["value"] < 0.95:
            sys.exit(f"{where}: trace attributes under 95% of wall time")
    print(f"ok  {where}", flush=True)


def check_refuses_outside_checkout(root: Path) -> None:
    bare = common.out_dir(root) / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(
            root / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign_cold",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("benchmark ran without a program checkout")
    print("ok  refuses to run without a program checkout", flush=True)


def main() -> int:
    root = common.repo_root()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    check_refuses_outside_checkout(root)
    for workload in BYPASSED:
        for trace in (0, 1):
            check_run(root, bench, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
