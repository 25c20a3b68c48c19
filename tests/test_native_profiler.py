"""Compiled profiler kernels against their pure-Python oracles.

The stack-distance kernel (serving ``reuse_distances`` and
``grouped_reuse_distances``) and the ILP chunk-depth kernel must agree
with the Python loops they replace result for result, and whole
application profiles must come out byte-equal with the kernels resolved
and without them (a host with no C compiler).
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import _native
from repro.ir import stackdist
from repro.config import default_nmc_config
from repro.ir import InstructionTrace
from repro.nmcsim import NMCSimulator
from repro.profiler import analyze_trace
from repro.profiler import ilp as ilp_mod
from repro.profiler.features import ILP_WINDOWS
from repro.workloads import WORKLOAD_NAMES, get_workload

from _helpers import build_random_trace, build_stream_trace

pytestmark = pytest.mark.skipif(
    _native.get_kernels()[0] is None, reason="no C compiler available"
)

#: Trace scale of the whole-profile checks (the suite's small traces).
SCALE = 8.0


def _streams() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    sparse_ids = rng.integers(0, 1 << 40, size=3000, dtype=np.int64)
    return {
        "empty": np.empty(0, dtype=np.int64),
        "one-access": np.array([42], dtype=np.int64),
        "single-key": np.full(500, 9, dtype=np.int64),
        "few-keys": rng.integers(0, 5, size=2000).astype(np.int64),
        "512-keys": rng.permutation(
            np.concatenate((np.arange(512), rng.integers(0, 512, 3000)))
        ).astype(np.int64),
        "513-keys": rng.permutation(
            np.concatenate((np.arange(513), rng.integers(0, 513, 3000)))
        ).astype(np.int64),
        "many-keys": rng.integers(0, 4000, size=20000).astype(np.int64),
        "sparse-2^40": sparse_ids[rng.integers(0, 3000, size=12000)],
        "uint64-lines": (
            rng.integers(0, 1 << 40, size=5000, dtype=np.uint64)
            >> np.uint64(6)
        ),
    }


STREAMS = _streams()


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_reuse_distances_match_python(name):
    keys = STREAMS[name]
    got = stackdist.reuse_distances(keys)
    want = stackdist._reuse_distances_python(keys)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("n_groups", [1, 3, 64])
def test_grouped_reuse_distances_match_python(name, n_groups):
    keys = STREAMS[name]
    rng = np.random.default_rng(n_groups)
    # Random groups: one key's accesses spread over several groups, so
    # keys are shared across groups and must count as distinct elements.
    groups = rng.integers(0, n_groups, size=len(keys)).astype(np.int64)
    got = stackdist.grouped_reuse_distances(keys, groups)
    want = stackdist._grouped_reuse_distances_python(keys, groups)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_grouped_shared_keys_are_per_group():
    keys = np.array([1, 2, 1, 2, 1, 3, 1], dtype=np.int64)
    groups = np.array([0, 1, 1, 0, 0, 1, 1], dtype=np.int64)
    got = stackdist.grouped_reuse_distances(keys, groups)
    # Group 0 sees 1, 2, 1 (distance 1); group 1 sees 2, 1, 3, 1.
    assert got.tolist() == [-1, -1, -1, -1, 1, -1, 1]
    assert np.array_equal(
        got, stackdist._grouped_reuse_distances_python(keys, groups)
    )


def test_set_associative_hit_mask_matches_python():
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 300, size=8000).astype(np.int64)
    sets = lines % 16
    for ways in (1, 2, 4, 8):
        dist = stackdist._grouped_reuse_distances_python(lines, sets)
        want = (dist != stackdist.COLD_DISTANCE) & (dist < ways)
        assert np.array_equal(stackdist.lru_hit_mask(lines, sets, ways), want)


def _python_kernels(monkeypatch) -> None:
    monkeypatch.setattr(_native, "_RESOLVED", (None, None))


def _sparse_trace(n: int = 4000) -> InstructionTrace:
    """Every opcode, register ids spread over the int32 range (and
    negative "no register" values other than -1), lines over 2^40."""
    rng = np.random.default_rng(11)
    regs = np.array([-7, -1, 0, 3, 4096, 1 << 20, (1 << 31) - 1])
    lines = rng.integers(0, 1 << 40, size=64, dtype=np.uint64)
    return InstructionTrace(
        opcode=rng.integers(0, 16, size=n),
        dst=rng.choice(regs, size=n),
        src1=rng.choice(regs, size=n),
        src2=rng.choice(regs, size=n),
        addr=rng.choice(lines, size=n) << np.uint64(6),
        size=np.full(n, 8),
        pc=rng.integers(0, 100, size=n),
        tid=np.zeros(n),
    )


ILP_TRACES = {
    "stream": build_stream_trace(3000),
    "random": build_random_trace(3000),
    "sparse": _sparse_trace(),
    "bfs": get_workload("bfs").generate(
        get_workload("bfs").central_config(), scale=SCALE
    ),
    "kme": get_workload("kme").generate(
        get_workload("kme").central_config(), scale=SCALE
    ),
}


@pytest.mark.parametrize("name", sorted(ILP_TRACES))
def test_chunk_depths_match_python(monkeypatch, name):
    trace = ILP_TRACES[name]
    n = min(len(trace), ilp_mod.DEFAULT_SAMPLE_LIMIT)
    compiled = ilp_mod._depth_pass(trace, n, 64)
    with monkeypatch.context() as m:
        _python_kernels(m)
        python = ilp_mod._depth_pass(trace, n, 64)
    for window in (None, *ILP_WINDOWS):
        got = compiled(window)
        assert got == python(window), window
        assert all(type(v) is int for v in got)


def test_chunk_depths_partial_last_chunk(monkeypatch):
    trace = ILP_TRACES["random"]
    n = 1001  # not a multiple of any window
    compiled = ilp_mod._depth_pass(trace, n, 64)
    with monkeypatch.context() as m:
        _python_kernels(m)
        python = ilp_mod._depth_pass(trace, n, 64)
    for window in (None, 1, 3, *ILP_WINDOWS, 5000):
        assert compiled(window) == python(window), window


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_profile_values_byte_equal(monkeypatch, name):
    workload = get_workload(name)
    trace = workload.generate(workload.central_config(), scale=SCALE)
    compiled = analyze_trace(trace, workload=name)
    _python_kernels(monkeypatch)
    python = analyze_trace(trace, workload=name)
    assert compiled.values.tobytes() == python.values.tobytes()
    assert compiled.to_json_dict() == python.to_json_dict()


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def test_no_compiler_warns_once_and_matches(monkeypatch):
    """Without a compiler: one warning, then byte-identical profiles and
    simulations from the Python loops."""
    def run_all() -> list:
        # Fresh traces each time: the simulator memoizes phase A on the
        # trace, which would skip the stack-distance classification.
        # 8 ways: the L1 classifier takes the grouped stack-distance path.
        config = default_nmc_config().replace(l1_lines=64, l1_ways=8)
        out = []
        for name in ("atax", "bfs"):
            workload = get_workload(name)
            trace = workload.generate(workload.central_config(), scale=SCALE)
            out.append((
                analyze_trace(trace).values.tobytes(),
                NMCSimulator(config).run(trace).to_json_dict(),
            ))
        return out

    want = run_all()
    handler = _Warnings()
    monkeypatch.setattr(_native, "_RESOLVED", None)
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    _native.log.addHandler(handler)
    try:
        got = run_all()
    finally:
        _native.log.removeHandler(handler)
    assert _native.get_kernels() == (None, None)
    assert got == want
    assert len(handler.records) == 1
    assert "no C compiler" in handler.records[0].getMessage()
