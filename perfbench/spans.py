"""Traced runs: spans around the calls into each layer, kept in memory.

The benchmark wraps the program's public functions from here, patching
each name where its caller looks it up; the program itself is unchanged.
Each span has a name, a start, an end and a parent; a thread's spans nest.
Self time is a span's duration minus its children's; the time of a root
span that no child covers is the explicit ``other`` bucket.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path


class SpanRecorder:
    """In-memory span store; spans opened outside a root are not kept."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, root: bool = False) -> dict | None:
        stack = self._stack()
        if not stack and not root:
            return None
        with self._lock:
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
                "counts": {},
            }
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict | None) -> None:
        if span is None:
            return
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def root(self, name: str):
        return _SpanContext(self, name, root=True)

    def span(self, name: str):
        return _SpanContext(self, name, root=False)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}))


class _SpanContext:
    def __init__(self, rec: SpanRecorder, name: str, *, root: bool) -> None:
        self.rec, self.name, self.is_root = rec, name, root
        self.span: dict | None = None

    def __enter__(self) -> dict | None:
        self.span = self.rec.open(self.name, root=self.is_root)
        return self.span

    def __exit__(self, *exc) -> None:
        self.rec.close(self.span)


# ----------------------------------------------------------------- patching


def _count_generate(args, kwargs, result) -> dict:
    return {"calls": 1, "instructions": len(result)}


def _count_analyze(args, kwargs, result) -> dict:
    return {"calls": 1, "instructions": len(args[0])}


def _count_batch(args, kwargs, result) -> dict:
    points = args[0]
    return {
        "calls": 1,
        "points": len(points),
        "instructions": sum(len(p[0]) for p in points),
    }


def _count_sim_run(args, kwargs, result) -> dict:
    return {"calls": 1, "points": 1, "instructions": len(args[1])}


def _count_call(args, kwargs, result) -> dict:
    return {"calls": 1}


#: (span name, module, attribute path, counter).  Each name is patched
#: where its caller looks it up: the campaign module's imported
#: ``analyze_trace`` and ``simulate_batch``, the profiler module's
#: imported analysis families, the pipeline module's ``grid_search``,
#: and methods on their classes.
PATCHES = (
    ("campaign.run", "repro.core.campaign", "SimulationCampaign.run", _count_call),
    ("workloads.generate", "repro.workloads.base", "Workload.generate", _count_generate),
    ("profiler.analyze_trace", "repro.core.campaign", "analyze_trace", _count_analyze),
    ("profiler.reuse", "repro.profiler.profile", "data_reuse_features", _count_call),
    ("profiler.reuse", "repro.profiler.profile", "instruction_reuse_features", _count_call),
    ("profiler.ilp", "repro.profiler.profile", "ilp_features", _count_call),
    ("nmcsim.simulate", "repro.core.campaign", "simulate_batch", _count_batch),
    ("nmcsim.simulate", "repro.nmcsim.simulator", "NMCSimulator.run", _count_sim_run),
    ("pipeline.train", "repro.core.pipeline", "NapelTrainer.train", _count_call),
    ("ml.grid_search", "repro.core.pipeline", "grid_search", _count_call),
    ("ml.forest_fit", "repro.ml.forest", "RandomForestRegressor.fit", _count_call),
    ("ml.tree_fit", "repro.ml.tree", "RegressionTree.fit", _count_call),
    ("predictor.predict_labels", "repro.core.predictor", "NapelModel.predict_labels", _count_call),
)


def _wrap(rec: SpanRecorder, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if span is not None:
            span["counts"] = counter(args, kwargs, result)
        return result

    return traced


def install(rec: SpanRecorder) -> None:
    """Wrap every entry of :data:`PATCHES` to record into ``rec``."""
    for name, module_name, attr_path, counter in PATCHES:
        owner = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        setattr(owner, attr, _wrap(rec, name, getattr(owner, attr), counter))


# ------------------------------------------------------------------ analysis


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems with the span tree: children must sum to no more than
    their parent and lie inside it."""
    by_id = {s["id"]: s for s in spans}
    child_sum: dict[int, float] = {}
    problems = []
    for s in spans:
        if s["end"] is None:
            problems.append(f"span {s['name']} never closed")
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['name']} outside its parent")
        child_sum[parent["id"]] = (
            child_sum.get(parent["id"], 0.0) + s["end"] - s["start"]
        )
    for pid, total in child_sum.items():
        parent = by_id[pid]
        if total > parent["end"] - parent["start"] + 1e-9:
            problems.append(f"children of {parent['name']} exceed it")
    return problems


def summarize(spans: list[dict]) -> dict:
    """Per-name inclusive time, self time and counts, plus the roots.

    Inclusive time counts only a name's outermost spans, so a layer that
    calls itself (one simulator entry point calling another) is not
    counted twice.  ``other_s`` is the roots' self time.
    """
    by_id = {s["id"]: s for s in spans}
    children_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children_time[s["parent"]] = (
                children_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    out: dict[str, dict] = {}
    roots_wall = roots_self = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        self_s = dur - children_time.get(s["id"], 0.0)
        if s["parent"] is None:
            roots_wall += dur
            roots_self += self_s
            continue
        entry = out.setdefault(
            s["name"], {"inclusive_s": 0.0, "self_s": 0.0, "spans": 0, "counts": {}}
        )
        entry["self_s"] += self_s
        entry["spans"] += 1
        ancestor = by_id.get(s["parent"])
        nested = False
        while ancestor is not None:
            if ancestor["name"] == s["name"]:
                nested = True
                break
            ancestor = by_id.get(ancestor["parent"])
        if not nested:
            entry["inclusive_s"] += dur
            for key, value in s["counts"].items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return {
        "layers": out,
        "wall_s": roots_wall,
        "other_s": roots_self,
        "attributed_share": (
            1.0 - roots_self / roots_wall if roots_wall > 0 else 0.0
        ),
        "n_spans": len(spans),
    }
