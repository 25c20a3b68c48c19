"""One program process of the benchmark: set up, signal READY, run, report.

Reads a JSON job spec on stdin, imports the program from the checkout,
does the job's set-up, prints ``READY``, runs the timed part and prints
one JSON result line.  Program output goes to stderr so that stdout
carries only these two lines.  Run only by ``run.py``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import spans  # noqa: E402

_MEMO_KINDS = ("streams", "classify", "events")

#: The parent reads READY and the result here; the program's own output
#: is sent to stderr.
_PROTOCOL = sys.stdout


def _registry_state() -> dict:
    """Program counters the per-layer split reads (totals so far)."""
    from repro.obs import metrics

    m = metrics()
    hist = m.histogram("sim.batch.contend_s")
    state = {"contend_s": hist.sum if hist is not None else 0.0}
    for outcome in ("hits", "misses"):
        state[f"memo_{outcome}"] = sum(
            m.count(f"sim.memo.{kind}.{outcome}") for kind in _MEMO_KINDS
        )
    return state


class Timed:
    """The set-up and the timed program calls of one process.

    Each timed call is one root span when tracing; wall time and
    program-counter deltas are kept per call.  The host speed is sampled
    when the process starts, when its set-up is done, and right before
    and right after every call, outside the spans (see common.HostSpeed);
    back to back calls share the sample between them.
    """

    def __init__(self, rec: spans.SpanRecorder | None, name: str) -> None:
        self.rec, self.name = rec, name
        #: [key, operations, wall seconds, sample before, sample after].
        self.calls: list[list] = []
        #: Set-up work run between timed calls, in the same form.
        self.setup_calls: list[list] = []
        self.registry: dict = {}
        self.host = common.HostSpeed()
        self.samples: list[float] = []
        self._sampling_s = 0.0
        self._sample()
        self._back_to_back = False
        self.setup: dict = {}

    def _sample(self) -> int:
        start = time.perf_counter()
        self.samples.append(self.host.sample())
        self._sampling_s += time.perf_counter() - start
        return len(self.samples) - 1

    def ready(self) -> None:
        """Set-up is done: sample the host and tell the parent, which
        times spawn-to-READY as set-up."""
        after = self._sample()
        self.setup = {
            "before": 0, "after": after,
            # Sampling and set-up calls, which are normalized on their own.
            "excluded_s": self._sampling_s + sum(c[2] for c in self.setup_calls),
        }
        self._back_to_back = True
        _PROTOCOL.write("READY\n")
        _PROTOCOL.flush()

    @contextlib.contextmanager
    def call(self, key: str, setup: bool = False):
        """Time one program call; the caller stores its operation count
        in the yielded entry's second slot.  A ``setup`` call counts as
        set-up: it opens no span and adds no program counters."""
        first = len(self.samples) - 1 if self._back_to_back else self._sample()
        entry = [key, 0, 0.0, first, None]
        before = None if setup else _registry_state()
        root = self.rec.root(self.name) if self.rec and not setup else None
        with root or contextlib.nullcontext():
            start = time.perf_counter()
            yield entry
            entry[2] = time.perf_counter() - start
        if before is not None:
            for key_, value in _registry_state().items():
                self.registry[key_] = self.registry.get(key_, 0) + value - before[key_]
        entry[4] = self._sample()
        self._back_to_back = True
        (self.setup_calls if setup else self.calls).append(entry)

    def report(self) -> dict:
        return {
            "timed_s": sum(c[2] for c in self.calls),
            "calls": self.calls,
            "setup": self.setup,
            "setup_calls": self.setup_calls,
            "samples": self.samples,
            "registry": self.registry,
        }


def _campaign_checks(name: str, scale: float, seed: int, sets, configs) -> dict:
    """Row counts per application and the digest of every result."""
    problems = []
    rows = []
    for app, ts in sets:
        if len(ts) != len(configs[app]):
            problems.append(
                f"{app}: {len(ts)} rows for {len(configs[app])} points"
            )
        rows.extend(ts.rows)
    digest = common.rows_digest(rows)
    recorded = common.recorded_digests().get(
        common.digest_key(name, scale, seed)
    )
    if recorded is not None and recorded != digest:
        problems.append(f"digest {digest[:12]} != recorded {recorded[:12]}")
    return {
        "digest": digest,
        "digest_checked": recorded is not None,
        "problems": problems,
        "rows": {app: len(ts) for app, ts in sets},
    }


def campaign_cold(spec, timed: Timed) -> dict:
    """Full-scale cold CCD/LHS campaigns of the campaign applications."""
    from repro import SimulationCampaign, get_workload

    configs = spec["configs"]
    workloads = [get_workload(app) for app in configs]
    campaign = SimulationCampaign(jobs=1, scale=spec["scale"])
    timed.ready()
    if spec.get("setup_only"):
        return {}
    sets = []
    for w in workloads:
        with timed.call(w.name) as entry:
            ts = campaign.run(w, configs[w.name])
            entry[1] = len(ts)
        sets.append((w.name, ts))
    checks = _campaign_checks(
        "campaign_cold", spec["scale"], spec["seed"], sets, configs
    )
    return {
        "ops": sum(len(ts) for _, ts in sets),
        **checks,
    }


def arch_sweep(spec, timed: Timed) -> dict:
    """Per application: a default-architecture campaign (set-up), then
    the same points on every sweep architecture (timed), with profiles
    reused through the shared campaign cache."""
    from repro import CampaignCache, NMCConfig, SimulationCampaign, get_workload

    configs = spec["configs"]
    workloads = [get_workload(app) for app in configs]
    cache = CampaignCache()
    base = SimulationCampaign(jobs=1, scale=spec["scale"], cache=cache)
    sweeps = [
        SimulationCampaign(
            NMCConfig.from_backend(backend, l1_lines=l1_lines),
            jobs=1, scale=spec["scale"], cache=cache,
        )
        for backend, l1_lines in common.SWEEP_ARCHS
    ]
    timed.ready()
    sets = []
    for w in workloads:
        # Application-major order keeps each application's traces in the
        # program's trace memo for the whole sweep.
        with timed.call(w.name, setup=True) as entry:
            entry[1] = len(base.run(w, configs[w.name]))
        for campaign in sweeps:
            with timed.call(w.name) as entry:
                ts = campaign.run(w, configs[w.name])
                entry[1] = len(ts)
            sets.append((w.name, ts))
    checks = _campaign_checks(
        "arch_sweep", spec["scale"], spec["seed"], sets, configs
    )
    return {
        "ops": sum(len(ts) for _, ts in sets),
        **checks,
    }


def _training_set(spec, timed: Timed):
    """The training matrix, built in set-up; each application's campaign
    is a set-up call, so the host is sampled between them."""
    from repro import SimulationCampaign, TrainingSet, get_workload

    campaign = SimulationCampaign(jobs=1, scale=spec["scale"])
    sets = []
    for app, cfgs in spec["configs"].items():
        with timed.call(app, setup=True) as entry:
            sets.append(campaign.run(get_workload(app), cfgs))
            entry[1] = len(sets[-1])
    training = TrainingSet.concat(sets)
    training.X()  # the shared feature matrix is built in set-up
    return training


def _mre(true, pred) -> float:
    return float(sum(abs(p - t) / t for t, p in zip(true, pred)) / len(true))


def train_tune(spec, timed: Timed) -> dict:
    """Leave-one-application-out folds of a default NapelTrainer."""
    from repro import NapelTrainer

    training = _training_set(spec, timed)
    timed.ready()
    trainer_args = {"jobs": 1}
    if spec["trees"] is not None:
        trainer_args["n_estimators"] = spec["trees"]
    perf_mre, energy_mre, problems = [], [], []
    for app in common.HELDOUT_APPS:
        with timed.call(app) as entry:
            trained = NapelTrainer(**trainer_args).train(training.exclude(app))
            test = training.filter(app)
            ipc, epi = trained.model.predict_labels(test.X())
            entry[1] = 1
        ipc, epi = ipc.tolist(), epi.tolist()
        if not all(math.isfinite(v) and v > 0 for v in ipc + epi):
            problems.append(f"{app}: non-finite or non-positive prediction")
            continue
        perf_mre.append(_mre(test.y_ipc_per_pe().tolist(), ipc))
        energy_mre.append(_mre(test.y_energy_per_instruction().tolist(), epi))
    folds = len(common.HELDOUT_APPS)
    return {
        "ops": folds,
        "rows_fitted": sum(len(training) - len(training.filter(a))
                           for a in common.HELDOUT_APPS),
        "heldout_perf_mre": sum(perf_mre) / len(perf_mre) if perf_mre else 0.0,
        "heldout_energy_mre": (
            sum(energy_mre) / len(energy_mre) if energy_mre else 0.0
        ),
        "problems": problems,
    }


def serve_artifact(spec, timed: Timed) -> dict:
    """Train the served model on every application but the held-out ones,
    save it, and save the held-out feature rows for the load generator."""
    import numpy as np
    from repro import NapelTrainer, TrainingSet
    from repro.core.serialization import save_model

    training = _training_set(spec, timed)
    train = training
    for app in common.HELDOUT_APPS:
        train = train.exclude(app)
    with timed.call("served_forest", setup=True) as entry:
        trained = NapelTrainer(
            n_estimators=spec["trees"], tune=False, jobs=1
        ).train(train)
        entry[1] = 1
    out = Path(spec["out"])
    save_model(trained.model, out / "model.pkl")
    heldout = TrainingSet.concat(
        training.filter(app) for app in common.HELDOUT_APPS
    )
    np.save(out / "heldout.npy", heldout.X())
    timed.ready()
    return {"problems": []}


BODIES = {
    "campaign_cold": campaign_cold,
    "arch_sweep": arch_sweep,
    "train_tune": train_tune,
    "serve_artifact": serve_artifact,
}


def main() -> int:
    spec = json.loads(sys.stdin.readline())
    sys.stdout = sys.stderr
    rec = spans.SpanRecorder() if spec.get("trace") else None
    timed = Timed(rec, spec["kind"])
    if rec is not None:
        spans.install(rec)
    result = BODIES[spec["kind"]](spec, timed)
    result.update(timed.report())
    from repro.nmcsim import jit_status

    result["jit_status"] = jit_status()
    result["peak_rss_mb"] = common.peak_rss_mb(os.getpid())
    if rec is not None:
        result["trace_problems"] = spans.check_nesting(rec.spans)
        result["trace"] = spans.summarize(rec.spans)
        if spec.get("spans_path"):
            rec.write(Path(spec["spans_path"]))
    _PROTOCOL.write(json.dumps(result) + "\n")
    _PROTOCOL.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
