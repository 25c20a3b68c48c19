"""The repository benchmark: four workloads over the NAPEL pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints what the numbers were measured on,
every metric by name with its unit, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer split with ``--trace 1``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import common
import loadgen
import spans

WORKLOADS = ("campaign_cold", "arch_sweep", "train_tune", "serve_predict")

#: End-to-end metrics: (name, unit).  Every workload reports each one.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("workloads.generate_s", "s"),
    ("workloads.instructions", "count"),
    ("profiler.analyze_trace_s", "s"),
    ("profiler.calls", "count"),
    ("profiler.minstr_per_s", "Minstr/s"),
    ("profiler.reuse_s", "s"),
    ("profiler.ilp_s", "s"),
    ("nmcsim.simulate_s", "s"),
    ("nmcsim.points", "count"),
    ("nmcsim.points_per_call", "points/call"),
    ("nmcsim.minstr_per_s", "Minstr/s"),
    ("nmcsim.contend_s", "s"),
    ("nmcsim.memo_hit_ratio", "ratio"),
    ("campaign.self_s", "s"),
    ("ml.forest_fit_s", "s"),
    ("ml.forest_fits", "count"),
    ("ml.trees_fit", "count"),
    ("ml.tree_fit_ms", "ms"),
    ("ml.grid_search_self_s", "s"),
    ("pipeline.train_self_s", "s"),
    ("accuracy.heldout_perf_mre", "ratio"),
    ("accuracy.heldout_energy_mre", "ratio"),
    ("predictor.row1_us", "us"),
    ("predictor.row64_us_per_row", "us/row"),
    ("serve.request_ms_p50", "ms"),
    ("serve.predict_s", "s"),
    ("serve.rows_per_batch", "rows/batch"),
    ("serve.errors", "count"),
    ("serve.batch_dependent_responses", "count"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.attributed_share", "ratio"),
    ("trace.spans", "count"),
    ("traced.throughput_per_s", "1/s"),
    ("traced.latency_ms", "ms"),
    ("traced.tail_latency_ms", "ms"),
)

#: Share of a traced run's wall time its layer spans must cover.
MIN_ATTRIBUTED = 0.95

#: Per-layer metrics that read above 0 in a traced run of each workload:
#: the layers doing its work.  A 0 means a span patch in spans.py no
#: longer intercepts the program's call; the run prints it.
WORKS_IN = {
    "campaign_cold": ("workloads.instructions", "profiler.calls", "nmcsim.points"),
    "arch_sweep": ("nmcsim.points",),
    "train_tune": ("ml.forest_fits", "ml.trees_fit"),
    "serve_predict": ("serve.rows_per_batch", "predictor.row1_us"),
}

#: Set-up is repeated at least this often when it is cheap (a process
#: start or a server boot), and the median reported.
SETUP_REPEATS = 7


class Run:
    """What one invocation measures; the workload functions fill it in."""

    def __init__(self, args, root: Path) -> None:
        self.args = args
        self.root = root
        self.sizes = common.SIZES["tiny" if args.smoke else "full"]
        self.trace = bool(args.trace)
        self.setups: list[float] = []
        self.throughput = 0.0
        self.latency_ms = 0.0
        self.tail_latency_ms = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.problems: list[str] = []
        self.layers: dict = {"layers": {}, "wall_s": 0.0, "other_s": 0.0,
                             "n_spans": 0}
        self.registry: dict = {}
        self.extra: dict[str, float] = {}
        self.jit_status = None
        self.notes: dict = {}

    def spec(self, kind: str, **fields) -> dict:
        spec = {"kind": kind, "seed": self.args.seed, "trace": self.trace}
        spec.update(fields)
        return spec

    def spans_path(self, name: str) -> str:
        out = common.out_dir(self.root)
        return str(out / f"spans-{name}-seed{self.args.seed}-{os.getpid()}.json")

    def absorb_timing(self, work: float, wall_s: float, norm_s: float) -> None:
        """Throughput of ``work`` done in ``wall_s`` seconds, ``norm_s`` of
        them on the reference host (see common.HostSpeed)."""
        self.throughput = work / norm_s if norm_s > 0 else 0.0
        self.notes["raw_throughput_per_s"] = work / wall_s if wall_s > 0 else 0.0
        self.notes["host_factor"] = wall_s / norm_s if norm_s > 0 else 0.0

    def absorb(self, result: dict) -> None:
        """Fold one program process's result into the run."""
        self.problems.extend(result.get("problems", []))
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])
        self.jit_status = result.get("jit_status", self.jit_status)
        for key, value in result.get("registry", {}).items():
            self.registry[key] = self.registry.get(key, 0) + value
        if "trace" in result:
            self.problems.extend(result.get("trace_problems", []))
            merge_summary(self.layers, result["trace"])


def merge_summary(into: dict, summary: dict) -> None:
    for key in ("wall_s", "other_s", "n_spans"):
        into[key] += summary[key]
    for name, entry in summary["layers"].items():
        dst = into["layers"].setdefault(
            name, {"inclusive_s": 0.0, "self_s": 0.0, "spans": 0, "counts": {}}
        )
        dst["inclusive_s"] += entry["inclusive_s"]
        dst["self_s"] += entry["self_s"]
        dst["spans"] += entry["spans"]
        for k, v in entry["counts"].items():
            dst["counts"][k] = dst["counts"].get(k, 0) + v


# --------------------------------------------------------------- workloads


def _repeat_units(run: Run, make_spec) -> list[dict]:
    """Run whole units of work, each in a fresh program process, while
    another unit fits in ``--seconds`` (at least one)."""
    results = []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        results.append(
            common.Child(run.root, make_spec(len(results))).run()
        )
        unit_s = time.perf_counter() - unit_start
        if time.perf_counter() - start + unit_s > run.args.seconds:
            return results


def _absorb_units(run: Run, results: list[dict], work_key: str = "ops") -> None:
    """Fold whole-unit results in: host-normalized throughput of
    ``work_key`` per second, and as latency the median over keys
    (applications, folds) of normalized ms per operation."""
    work = wall = norm = 0.0
    per_op_ms = []
    for r in results:
        run.absorb(r)
        run.setups.append(r["setup_s"])
        run.attempted += r["ops"]
        total, per_key = common.normalize(r["calls"], r["samples"])
        per_op_ms.extend(1e3 * v for v in per_key.values())
        work += r[work_key]
        wall += r["timed_s"]
        norm += total
        if "digest" in r:
            run.notes.setdefault("digests", []).append(
                {"digest": r["digest"][:16], "checked": r["digest_checked"]}
            )
            run.notes["rows"] = r["rows"]
    run.latency_ms = common.median(per_op_ms)
    run.tail_latency_ms = max(per_op_ms, default=0.0)
    run.absorb_timing(work, wall, norm)


def campaign_cold(run: Run) -> None:
    """DoE campaigns at full scale, each unit in a fresh process."""
    configs = {a: common.design_points(a, run.args.seed)
               for a in common.CAMPAIGN_APPS}
    scale = run.sizes["campaign_scale"]
    results = _repeat_units(run, lambda i: run.spec(
        "campaign_cold", configs=configs, scale=scale,
        spans_path=run.spans_path(f"campaign_cold{i}"),
    ))
    _absorb_units(run, results)
    # Set-up here is a process start, an import and a campaign object:
    # cheap, so repeat it and report the median.
    while len(run.setups) < SETUP_REPEATS:
        run.setups.append(common.Child(run.root, run.spec(
            "campaign_cold", configs=configs, scale=scale, setup_only=True,
            trace=False,
        )).run()["setup_s"])


def arch_sweep(run: Run) -> None:
    configs = {a: common.design_points(a, run.args.seed)
               for a in common.CAMPAIGN_APPS}
    scale = run.sizes["sweep_scale"]
    results = _repeat_units(run, lambda i: run.spec(
        "arch_sweep", configs=configs, scale=scale,
        spans_path=run.spans_path(f"arch_sweep{i}"),
    ))
    _absorb_units(run, results)


def train_tune(run: Run) -> None:
    configs = {a: common.design_points(a, run.args.seed)
               for a in common.all_app_names()}
    result = common.Child(run.root, run.spec(
        "train_tune", configs=configs, scale=run.sizes["train_scale"],
        trees=run.sizes["trees"], spans_path=run.spans_path("train_tune"),
    )).run()
    _absorb_units(run, [result], work_key="rows_fitted")
    run.extra["accuracy.heldout_perf_mre"] = result["heldout_perf_mre"]
    run.extra["accuracy.heldout_energy_mre"] = result["heldout_energy_mre"]


#: serve_predict alternates its single-row and 64-row phases this often.
SERVE_ROUNDS = 4

_LISTEN = re.compile(r"listening on http://[0-9.]+:(\d+)")


class Server:
    """``repro serve`` in its own process, with default flags and an
    ephemeral port."""

    def __init__(self, root: Path, model: Path) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model),
             "--port", "0"],
            cwd=root, env=common.child_env(root),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.port = None
        for line in self.proc.stdout:
            match = _LISTEN.search(line)
            if match:
                self.port = int(match.group(1))
                break
        if self.port is None:
            self.stop()
            raise common.SetupError("repro serve did not start")
        deadline = time.perf_counter() + 60
        while True:
            try:
                loadgen.get_json(self.port, "/healthz")
                break
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise common.SetupError("repro serve never became healthy")
                time.sleep(0.01)
        self.boot_s = time.perf_counter() - self.start

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def _histogram_quantile(hist: dict, q: float) -> float:
    """Interpolated quantile of a server histogram snapshot."""
    total = hist["count"]
    if not total:
        return 0.0
    target = q * total
    seen = 0
    lower = 0.0
    for bound, count in zip(hist["bounds"], hist["counts"]):
        if count and seen + count >= target:
            return lower + (bound - lower) * (target - seen) / count
        seen += count
        lower = bound
    return hist["max"]


def _serve_layers(doc: dict) -> dict[str, float]:
    m = doc["metrics"]
    counters, timers = m["counters"], m["timers"]
    latency = next(
        (h for k, h in m["histograms"].items()
         if k.startswith("serve.request.latency_s") and '"/predict"' in k),
        None,
    )
    batches = counters.get("serve.batches", 0)
    return {
        "serve.request_ms_p50": (
            1e3 * _histogram_quantile(latency, 0.5) if latency else 0.0
        ),
        "serve.predict_s": timers.get("serve.predict", {}).get("total_s", 0.0),
        "serve.rows_per_batch": (
            counters.get("serve.batched_rows", 0) / batches if batches else 0.0
        ),
        "serve.errors": counters.get("serve.errors", 0),
    }


def _predictor_probe(model, X, rows64, seconds: float) -> dict[str, float]:
    """Direct predict_labels calls on the served artifact, in-process."""
    def median_us(fn, budget_s: float) -> float:
        samples = []
        stop = time.perf_counter() + budget_s
        while time.perf_counter() < stop or len(samples) < 5:
            start = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - start) * 1e6)
        return common.median(samples)

    budget = max(0.2, seconds / 10)
    row1 = X[:1]
    batch = X[rows64[0]]
    return {
        "predictor.row1_us": median_us(lambda: model.predict_labels(row1), budget),
        "predictor.row64_us_per_row": (
            median_us(lambda: model.predict_labels(batch), budget) / len(batch)
        ),
    }


def serve_predict(run: Run) -> None:
    import numpy as np
    from repro.core.serialization import load_model

    # The served forest is trained on the paper's CCD points of the other
    # applications, the same for every seed, so set-up does not vary with
    # the seed; the held-out rows the clients send come from the seed.
    configs = {
        a: common.design_points(a, run.args.seed if a in common.HELDOUT_APPS else 0)
        for a in common.all_app_names()
    }
    art_dir = common.out_dir(run.root) / f"serve-{os.getpid()}"
    art_dir.mkdir(exist_ok=True)
    artifact = common.Child(run.root, run.spec(
        "serve_artifact", configs=configs, scale=run.sizes["train_scale"],
        trees=run.sizes["serve_trees"], out=str(art_dir), trace=False,
    )).run()
    run.jit_status = artifact["jit_status"]
    # Set-up = building the artifact once + booting the server; the boot
    # is cheap, so it is repeated and its median taken.
    boots = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(run.root, art_dir / "model.pkl")
        boots.append(server.boot_s)
        server.stop()
    server = Server(run.root, art_dir / "model.pkl")
    try:
        boots.append(server.boot_s)
        run.setups.append(artifact["setup_s"] + common.median(boots))
        run.notes["setup_parts_s"] = {
            "artifact": artifact["setup_s"], "boot_median": common.median(boots),
        }

        X = np.load(art_dir / "heldout.npy")
        model = load_model(art_dir / "model.pkl")
        rng = np.random.default_rng([run.args.seed, 7])
        order = rng.permutation(len(X))
        rows64 = [
            rng.choice(len(X), size=common.BATCH_ROWS, replace=True)
            for _ in range(16)
        ]

        # Reference labels of every held-out row from a one-row call and
        # from a multi-row call (the row twice), computed in this process.
        def labels(rows):
            ipc, epi = model.predict_labels(X[rows])
            return float(ipc[0]), float(epi[0])

        one_row = [labels([i]) for i in range(len(X))]
        multi_row = [labels([i, i]) for i in range(len(X))]

        single_rows = [[int(i)] for i in order]
        batch_rows = [[int(i) for i in idx] for idx in rows64]

        def payloads(requests):
            return [json.dumps({"rows": X[r].tolist()}).encode() for r in requests]

        rec = spans.SpanRecorder() if run.trace else None
        # The two phases alternate in short rounds with the host sampled
        # between them, so each round's host factor follows the drift.
        step = run.args.seconds / (2 * SERVE_ROUNDS)
        host = common.HostSpeed()
        samples = [host.sample()]
        single, batch = [], []  # (phase, host factor) per round
        kinds = (
            (single, payloads(single_rows), 20),
            (batch, payloads(batch_rows), 4),
        )
        for round_ in range(SERVE_ROUNDS):
            for phases, body, warmup in kinds:
                phase = loadgen.Phase(server.port, body, clients=2)
                phase.run(step, warmup=warmup if round_ == 0 else 0, rec=rec)
                samples.append(host.sample())
                phases.append((phase, common.host_factor(*samples[-2:])))

        dependent = 0
        for phases, rows in ((single, single_rows), (batch, batch_rows)):
            for phase, _ in phases:
                problems, n = loadgen.check(phase.records, rows, one_row, multi_row)
                run.problems += problems
                dependent += n
        run.notes["responses_with_batch_dependent_labels"] = dependent
        run.attempted = sum(len(p.records) for p, _ in single + batch)
        latencies = [
            1e3 * r[3] * factor for p, factor in single for r in p.measured()
        ]
        run.latency_ms = common.percentile(latencies, 50)
        run.tail_latency_ms = common.percentile(latencies, 99)
        ok_rows = sum(
            len(batch_rows[r[0]])
            for p, _ in batch for r in p.measured() if r[1] == 200
        )
        run.absorb_timing(
            ok_rows,
            sum(p.wall_s for p, _ in batch),
            sum(p.wall_s * factor for p, factor in batch),
        )
        run.notes["requests"] = {
            "single_row": sum(len(p.measured()) for p, _ in single),
            "batch_64_row": sum(len(p.measured()) for p, _ in batch),
        }
        if run.trace:
            run.problems += spans.check_nesting(rec.spans)
            merge_summary(run.layers, spans.summarize(rec.spans))
            run.extra.update(_serve_layers(loadgen.get_json(server.port, "/metrics")))
            run.extra["serve.batch_dependent_responses"] = dependent
            run.extra.update(_predictor_probe(model, X, rows64, run.args.seconds))
            rec.write(Path(run.spans_path("serve_predict")))
        run.peak_rss_mb = common.peak_rss_mb(server.proc.pid)
    finally:
        code = server.stop()
        shutil.rmtree(art_dir, ignore_errors=True)
    if code != 0:
        run.problems.append(f"repro serve exited with {code}")


# ----------------------------------------------------------------- metrics


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": common.median(run.setups),
        "throughput_per_s": run.throughput,
        "latency_ms": run.latency_ms,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    layers = run.layers["layers"]

    def inc(name):
        return layers.get(name, {}).get("inclusive_s", 0.0)

    def own(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def count(name, key):
        return layers.get(name, {}).get("counts", {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    hits = run.registry.get("memo_hits", 0)
    misses = run.registry.get("memo_misses", 0)
    e2e = end_to_end(run)
    wall = run.layers["wall_s"]
    values = {
        "workloads.generate_s": inc("workloads.generate"),
        "workloads.instructions": count("workloads.generate", "instructions"),
        "profiler.analyze_trace_s": inc("profiler.analyze_trace"),
        "profiler.calls": count("profiler.analyze_trace", "calls"),
        "profiler.minstr_per_s": ratio(
            count("profiler.analyze_trace", "instructions") / 1e6,
            inc("profiler.analyze_trace"),
        ),
        "profiler.reuse_s": inc("profiler.reuse"),
        "profiler.ilp_s": inc("profiler.ilp"),
        "nmcsim.simulate_s": inc("nmcsim.simulate"),
        "nmcsim.points": count("nmcsim.simulate", "points"),
        "nmcsim.points_per_call": ratio(
            count("nmcsim.simulate", "points"), count("nmcsim.simulate", "calls")
        ),
        "nmcsim.minstr_per_s": ratio(
            count("nmcsim.simulate", "instructions") / 1e6,
            inc("nmcsim.simulate"),
        ),
        "nmcsim.contend_s": run.registry.get("contend_s", 0.0),
        "nmcsim.memo_hit_ratio": ratio(hits, hits + misses),
        "campaign.self_s": own("campaign.run"),
        "ml.forest_fit_s": inc("ml.forest_fit"),
        "ml.forest_fits": count("ml.forest_fit", "calls"),
        "ml.trees_fit": count("ml.tree_fit", "calls"),
        "ml.tree_fit_ms": 1e3 * ratio(inc("ml.tree_fit"), count("ml.tree_fit", "calls")),
        "ml.grid_search_self_s": own("ml.grid_search"),
        "pipeline.train_self_s": own("pipeline.train"),
        "accuracy.heldout_perf_mre": 0.0,
        "accuracy.heldout_energy_mre": 0.0,
        "predictor.row1_us": 0.0,
        "predictor.row64_us_per_row": 0.0,
        "serve.request_ms_p50": 0.0,
        "serve.predict_s": 0.0,
        "serve.rows_per_batch": 0.0,
        "serve.errors": 0,
        "serve.batch_dependent_responses": 0,
        "trace.wall_s": wall,
        "trace.other_s": run.layers["other_s"],
        "trace.attributed_share": ratio(wall - run.layers["other_s"], wall),
        "trace.spans": run.layers["n_spans"],
        "traced.throughput_per_s": e2e["throughput_per_s"],
        "traced.latency_ms": e2e["latency_ms"],
        "traced.tail_latency_ms": run.tail_latency_ms,
    }
    values.update(run.extra)
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes: checks the benchmark's own code in seconds",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    try:
        root = common.repo_root()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    run = Run(args, root)
    try:
        globals()[args.workload](run)
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        share = run.layers["wall_s"] and (
            1 - run.layers["other_s"] / run.layers["wall_s"]
        )
        if share < MIN_ATTRIBUTED:
            run.problems.append(
                f"traced run attributes only {share:.1%} of wall time"
            )
        values, units = per_layer(run), dict(PER_LAYER)
        unmeasured = [m for m in WORKS_IN[args.workload] if not values[m]]
        if unmeasured:
            run.notes["working_layers_reading_0"] = unmeasured
    else:
        values, units = end_to_end(run), dict(END_TO_END)

    env = common.environment_record(root, run.jit_status)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in env.items():
        print(f"# {key}: {value}")
    for key, value in run.notes.items():
        print(f"# {key}: {json.dumps(value)}")
    for problem in run.problems[:20]:
        print(f"# FAILED CHECK: {problem}")
    if len(run.problems) > 20:
        print(f"# ... {len(run.problems) - 20} more failed checks")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:>16.6g} {unit}")
    failed = min(len(run.problems), max(run.attempted, 1))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
