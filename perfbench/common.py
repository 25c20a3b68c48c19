"""Shared pieces of the repository benchmark: sizes, inputs, child processes.

Every workload runs the program in fresh interpreter processes started
from the checkout's ``src/`` with every ``REPRO_*`` variable removed, so
each measurement sees the defaults a user gets and cold in-process state.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Applications of the two campaign workloads: three regular dense
#: kernels plus irregular bfs, whose reuse-distance and miss streams differ.
CAMPAIGN_APPS = ("atax", "bfs", "gemv", "syrk")

#: The arch_sweep design space: three non-default memory backends at two
#: L1 sizes (l1_lines=2 is the default geometry, so its phase-A memo
#: entries hit; 8 misses once per trace), plus the default backend at 8.
SWEEP_ARCHS = (
    ("hbm2", 2), ("hbm2", 8),
    ("ddr4-channel", 2), ("ddr4-channel", 8),
    ("nand-nmc", 2), ("nand-nmc", 8),
    ("hmc", 8),
)

#: Applications held out by train_tune's folds and by the served model.
HELDOUT_APPS = ("atax", "bfs")

#: Rows per request in serve_predict's batched phase.
BATCH_ROWS = 64

#: Size profiles.  ``full`` is what the benchmark measures; ``tiny``
#: exercises the same code in seconds (``--smoke``).  Trace scale is the
#: program's shrink factor; fit cost depends on rows and features, not
#: trace length, so the training matrix uses scaled-down traces.
SIZES = {
    "full": {
        "campaign_scale": 1.0,
        "sweep_scale": 2.0,
        "train_scale": 8.0,
        "trees": None,          # NapelTrainer's default forest size (60)
        "serve_trees": 60,
    },
    "tiny": {
        "campaign_scale": 16.0,
        "sweep_scale": 32.0,
        "train_scale": 32.0,
        "trees": 6,
        "serve_trees": 6,
    },
}

#: Scratch directory (inside the checkout) for spans and artifacts.
OUT_DIRNAME = ".perfbench"


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program checkout, child failed)."""


def repo_root() -> Path:
    """The checkout the benchmark runs from (the working directory)."""
    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(
            f"{root} holds no program checkout (src/repro is missing); "
            "run the benchmark from the repository root"
        )
    return root


def out_dir(root: Path) -> Path:
    path = root / OUT_DIRNAME
    path.mkdir(exist_ok=True)
    return path


def child_env(root: Path) -> dict[str, str]:
    """The environment of every program process: defaults, cold state."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


# ------------------------------------------------------------------ inputs


def design_points(app: str, seed: int) -> list[dict[str, float]]:
    """The input configurations of one application for a seed.

    Seed 0 is the paper's central composite design.  Seed k > 0 draws the
    same number of points with a Latin hypercube over the workload's
    parameter ranges, from a generator seeded by (k, application index).
    """
    import numpy as np
    from repro import WORKLOAD_NAMES, get_workload
    from repro.doe import ParameterSpace, central_composite, latin_hypercube

    space = ParameterSpace.of_workload(get_workload(app))
    ccd = central_composite(space)
    if seed == 0:
        return [dict(c) for c in ccd]
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(app)])
    return latin_hypercube(space, len(ccd), rng)


def all_app_names() -> list[str]:
    from repro import WORKLOAD_NAMES

    return list(WORKLOAD_NAMES)


# ------------------------------------------------------------- correctness


def _canon(value) -> str:
    """Stable text of a result value; floats to 12 significant digits so
    the digest survives last-bit differences between numpy builds."""
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{k}:{_canon(value[k])}" for k in sorted(value)
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    return repr(value)


def rows_digest(rows) -> str:
    """sha256 over every (profile values, SimulationResult) pair, in order."""
    h = hashlib.sha256()
    for row in rows:
        h.update(row.workload.encode())
        h.update(_canon([float(v) for v in row.profile.values]).encode())
        h.update(_canon(row.result.to_json_dict()).encode())
    return h.hexdigest()


def recorded_digests() -> dict:
    path = BENCH_DIR / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def digest_key(workload: str, scale: float, seed: int) -> str:
    return f"{workload}@{scale:g}/seed={seed}"


# ------------------------------------------------------------------ stats


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a process (``VmHWM``), in MB.

    ``getrusage``'s ``ru_maxrss`` is not used: Linux carries it across
    ``exec``, so a child would report the benchmark's own footprint.
    """
    status = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    if match is None:
        raise SetupError(f"no VmHWM in /proc/{pid}/status")
    return int(match.group(1)) / 1024.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


# -------------------------------------------------------------- host speed

#: Seconds the calibration kernel takes on the reference host (2 vCPU at
#: 2.0 GHz).  It only sets the scale of host-normalized figures.
REFERENCE_KERNEL_S = 0.033


class HostSpeed:
    """Samples of a shared host's current speed.

    The speed of identical work drifts by +-10% within seconds on a shared
    host, as other tenants' load comes and goes, so a program call timed
    on a slow stretch looks like a regression.  A fixed calibration
    kernel, an interpreter loop and a sort, is timed right before and
    right after each timed program call, in the program's process between
    calls.  It touches under 2 MB, so it neither adds to the program's
    peak footprint nor evicts much of its cached data.  A change to the
    program moves only the call times, never the kernel's.
    """

    def __init__(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(0)

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        self._rng.random(200_000).sort()
        return time.perf_counter() - start

    def sample(self) -> float:
        """Median seconds of three kernel passes."""
        return statistics.median(self._kernel() for _ in range(3))


def host_factor(before: float, after: float) -> float:
    """Reference kernel time over the mean of the samples around a call:
    the call's wall time times this is its time on the reference host."""
    return REFERENCE_KERNEL_S / ((before + after) / 2)


def normalize(calls, samples) -> tuple[float, dict[str, float]]:
    """Host-normalized time of timed program calls.

    ``calls`` holds ``(key, ops, wall_s, before, after)``, where
    ``before`` and ``after`` index the host ``samples`` taken around the
    call.  Returns the total normalized seconds and, per key, normalized
    seconds per operation.
    """
    seconds: dict[str, float] = {}
    ops: dict[str, int] = {}
    for key, n, wall, before, after in calls:
        norm = wall * host_factor(samples[before], samples[after])
        seconds[key] = seconds.get(key, 0.0) + norm
        ops[key] = ops.get(key, 0) + n
    return sum(seconds.values()), {k: seconds[k] / ops[k] for k in seconds}


# ---------------------------------------------------------- child processes


class Child:
    """One program process running ``child.py`` on a JSON job spec.

    The child prints ``READY`` once its set-up is done, then one JSON
    result line; the parent times spawn-to-READY as set-up.
    """

    def __init__(self, root: Path, spec: dict, timeout: float = 170.0) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py")],
            cwd=root,
            env=child_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        # A hung child is killed, so the benchmark still ends in time.
        self._watchdog = threading.Timer(timeout, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.proc.stdin.write(json.dumps(spec))
        self.proc.stdin.close()

    def run(self) -> dict:
        """The child's result, with ``setup_s`` added."""
        ready_s = None
        result = None
        try:
            for line in self.proc.stdout:
                line = line.strip()
                if line == "READY":
                    ready_s = time.perf_counter() - self.start
                elif line:
                    result = json.loads(line)
        finally:
            self.proc.wait()
            self._watchdog.cancel()
        if self.proc.returncode != 0 or result is None or ready_s is None:
            raise SetupError(
                f"benchmark child exited with {self.proc.returncode}"
            )
        result["setup_s"] = setup_seconds(ready_s, result)
        return result


def setup_seconds(ready_s: float, result: dict) -> float:
    """Host-normalized set-up time of a child: its set-up calls, each
    scaled by its own samples, plus the rest of spawn-to-READY without the
    child's host sampling, scaled by the samples the child took when it
    started and when its set-up was done."""
    setup, samples = result["setup"], result["samples"]
    factor = host_factor(samples[setup["before"]], samples[setup["after"]])
    return (ready_s - setup["excluded_s"]) * factor + normalize(
        result["setup_calls"], samples
    )[0]


# ---------------------------------------------------------------- metadata


def environment_record(root: Path, jit_status: dict | None) -> dict:
    """What the numbers were measured on (printed before the result).

    ``jit_status`` is ``repro.nmcsim.jit_status()`` as a program process
    reported it.
    """
    import numpy

    sha = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            )
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode())
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "jit_status": jit_status,
    }
