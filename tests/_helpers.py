"""Trace-building helpers shared by the test suite."""

from __future__ import annotations

import numpy as np

from repro.ir import LoopTemplate, Opcode, TemplateOp, TraceBuilder
from repro.nmcsim import simulate_reference
from repro.workloads import get_workload
from repro.workloads.base import config_seed


def build_stream_trace(n: int = 2000, *, tid: int = 0, pc_base: int = 0):
    """A sequential read-modify-write stream (unit stride, one thread)."""
    template = LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="a"),
        TemplateOp(Opcode.FMUL, dst=2, src1=1, src2=7),
        TemplateOp(Opcode.FALU, dst=3, src1=2, src2=7),
        TemplateOp(Opcode.STORE, src1=3, addr="a_out"),
        TemplateOp(Opcode.IALU, dst=9, src1=9),
        TemplateOp(Opcode.BRANCH, src1=9),
    ])
    builder = TraceBuilder()
    addrs = 0x100000 + np.arange(n, dtype=np.int64) * 8
    template.emit(
        builder, n, {"a": addrs, "a_out": addrs}, tid=tid, pc_base=pc_base
    )
    return builder.finish()


def build_random_trace(n: int = 2000, *, seed: int = 0, span: int = 1 << 24):
    """Random gathers over a large footprint (irregular pattern)."""
    rng = np.random.default_rng(seed)
    template = LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="x"),
        TemplateOp(Opcode.FALU, dst=8, src1=8, src2=1),
        TemplateOp(Opcode.BRANCH, src1=8),
    ])
    builder = TraceBuilder()
    addrs = 0x100000 + rng.integers(0, span, size=n, dtype=np.int64) * 8
    template.emit(builder, n, {"x": addrs}, tid=0, pc_base=0)
    return builder.finish()


def oracle_results(training, *, scale: float):
    """The per-access oracle's result for every row of a campaign.

    Regenerates each row's trace exactly as the campaign did (the
    configuration's seed, plus one per repeated centre replicate) and
    simulates it with :func:`repro.nmcsim.simulate_reference`.
    """
    seen: dict[tuple, int] = {}
    results = []
    for row in training.rows:
        key = (row.workload, tuple(sorted(row.parameters.items())))
        replicate = seen.get(key, 0)
        seen[key] = replicate + 1
        trace = get_workload(row.workload).generate(
            row.parameters,
            scale=scale,
            seed=config_seed(row.workload, row.parameters) + replicate,
        )
        results.append(simulate_reference(
            trace, row.arch,
            workload=row.workload, parameters=row.parameters,
        ))
    return results
