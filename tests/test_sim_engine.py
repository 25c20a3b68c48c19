"""Equivalence suite for the simulator against its per-access oracle.

The simulator (two-phase, vectorized) must produce *bit-identical*
:class:`SimulationResult` values to :func:`simulate_reference`, the
per-access oracle — across workloads, cache geometries (any
associativity), core models, campaign execution modes, the geometry
memos, the compiled phase-B kernel and its heapq fallback, and
tracing.  These tests enforce that contract, plus golden and
property tests of the vectorized LRU classifier against two independent
oracles: the step-wise :class:`Cache` walk and a stack-distance +
ordered-dict reconstruction.
"""

import hashlib
import json
import logging
import os
import stat
from collections import OrderedDict, defaultdict

import numpy as np
import pytest

from _helpers import oracle_results
from repro import SimulationCampaign, default_nmc_config, get_workload
from repro.config import NMCConfig
from repro.ir import lru_hit_mask
from repro.nmcsim import (
    NMCSimulator,
    classify_steps,
    classify_vectorized,
    jit_status,
    simulate_reference,
    simulation_memo_summary,
)
from repro import _native as native_mod
from repro._native import get_kernels
from repro.obs import activate_tracing, metrics, reset_tracing

WORKLOADS = [
    "atax", "bfs", "bp", "chol", "gemv", "gesu",
    "gram", "kme", "lu", "mvt", "syrk", "trmm",
]

BACKENDS = ["hmc", "hbm2", "ddr4-channel", "nand-nmc"]


def result_dict(result):
    """Canonical JSON form — the strictest practical equality."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


def small_trace(name, *, scale=6.0, seed=3):
    wl = get_workload(name)
    return wl.generate(wl.test_config(), scale=scale, seed=seed)


def assert_classifications_equal(a, b):
    np.testing.assert_array_equal(a.hit, b.hit)
    np.testing.assert_array_equal(a.wb_line, b.wb_line)
    np.testing.assert_array_equal(
        np.sort(np.asarray(a.flush_lines)), np.sort(np.asarray(b.flush_lines))
    )
    assert a.stats == b.stats


# ------------------------------------------------------- classifier golden


class TestClassifierGolden:
    """Hand-traced streams with independently derived expectations."""

    def test_two_way_single_set(self):
        # W A, W B, R A, W C, R B against one 2-way set:
        #   W A miss; W B miss; R A hit (distance 1);
        #   W C miss, evicts LRU B (dirty)  -> writeback of B;
        #   R B miss, evicts LRU A (dirty)  -> writeback of A.
        # Residents at the end: C (dirty), B (clean) -> flush {C}.
        a, b, c = 3, 5, 9
        lines = np.array([a, b, a, c, b], dtype=np.int64)
        writes = np.array([1, 1, 0, 1, 0], dtype=bool)
        for fn in (classify_vectorized, classify_steps):
            cls = fn(lines, writes, n_sets=1, ways=2)
            np.testing.assert_array_equal(
                cls.hit, [False, False, True, False, False]
            )
            np.testing.assert_array_equal(cls.wb_line, [-1, -1, -1, b, a])
            np.testing.assert_array_equal(np.sort(cls.flush_lines), [c])
            assert cls.stats.hits == 1
            assert cls.stats.misses == 4
            assert cls.stats.writebacks == 3  # two evictions + one flush
            assert cls.stats.flushes == 1
            assert cls.n_misses == 4

    def test_direct_mapped_single_set(self):
        # W 3, R 3, R 5, W 3 against one direct-mapped line:
        #   W 3 miss; R 3 hit (repeat); R 5 miss evicts dirty 3;
        #   W 3 miss evicts clean 5.  Flush {3}.
        lines = np.array([3, 3, 5, 3], dtype=np.int64)
        writes = np.array([1, 0, 0, 1], dtype=bool)
        for fn in (classify_vectorized, classify_steps):
            cls = fn(lines, writes, n_sets=1, ways=1)
            np.testing.assert_array_equal(cls.hit, [False, True, False, False])
            np.testing.assert_array_equal(cls.wb_line, [-1, -1, 3, -1])
            np.testing.assert_array_equal(np.sort(cls.flush_lines), [3])
            assert cls.stats.writebacks == 2
            assert cls.stats.flushes == 1

    def test_two_way_thrash_never_hits(self):
        # Cyclic A, B, C through a 2-way set: classic LRU worst case.
        lines = np.array([1, 2, 3] * 5, dtype=np.int64)
        writes = np.zeros(len(lines), dtype=bool)
        cls = classify_vectorized(lines, writes, n_sets=1, ways=2)
        assert not cls.hit.any()
        assert cls.stats.writebacks == 0
        assert len(cls.flush_lines) == 0

    def test_sets_are_independent(self):
        # Lines 0 and 1 land in different sets of a 2-set cache; the
        # interleaved stream hits on every revisit.
        lines = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        writes = np.zeros(6, dtype=bool)
        cls = classify_vectorized(lines, writes, n_sets=2, ways=1)
        np.testing.assert_array_equal(
            cls.hit, [False, False, True, True, True, True]
        )

    def test_empty_and_singleton_streams(self):
        empty = classify_vectorized(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
            n_sets=2, ways=2,
        )
        assert len(empty.hit) == 0
        assert empty.stats.misses == 0
        one = classify_vectorized(
            np.array([7], dtype=np.int64), np.array([True]),
            n_sets=2, ways=2,
        )
        np.testing.assert_array_equal(one.hit, [False])
        np.testing.assert_array_equal(np.sort(one.flush_lines), [7])
        assert one.stats.writebacks == 1  # the flush

    def test_vectorized_rejects_invalid_geometry(self):
        lines = np.array([1, 2], dtype=np.int64)
        writes = np.zeros(2, dtype=bool)
        with pytest.raises(ValueError):
            classify_vectorized(lines, writes, n_sets=1, ways=0)
        with pytest.raises(ValueError):
            classify_vectorized(lines, writes, n_sets=0, ways=2)

    def test_high_associativity_is_exact(self):
        # ways > 2 runs the general stack-distance path (no step-wise
        # fallback any more) and must agree with the Cache walk exactly.
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 32, 400).astype(np.int64)
        writes = rng.random(400) < 0.3
        for ways in (3, 4, 8):
            assert_classifications_equal(
                classify_vectorized(lines, writes, n_sets=4, ways=ways),
                classify_steps(lines, writes, n_sets=4, ways=ways),
            )


# ----------------------------------------------------- classifier property


def stackdist_oracle(lines, writes, n_sets, ways):
    """Independent oracle: stack-distance hits + ordered-dict LRU walk.

    Hits come straight from the Mattson stack-distance criterion
    (:func:`repro.ir.lru_hit_mask`); dirty/writeback/flush state from a
    per-set ``OrderedDict`` walk that shares no code with either
    production classifier.  The walk cross-asserts the hit mask, so the
    two halves of the oracle also check each other.
    """
    hit = lru_hit_mask(lines, lines % n_sets, ways)
    sets = defaultdict(OrderedDict)  # per set: line -> dirty, LRU first
    wb_line = np.full(len(lines), -1, dtype=np.int64)
    for k, (ln, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = sets[ln % n_sets]
        if ln in s:
            assert hit[k], "stack-distance oracle disagrees with LRU walk"
            dirty = s.pop(ln)
            s[ln] = dirty or bool(w)
        else:
            assert not hit[k], "stack-distance oracle disagrees with LRU walk"
            if len(s) >= ways:
                victim, vdirty = next(iter(s.items()))
                del s[victim]
                if vdirty:
                    wb_line[k] = victim
            s[ln] = bool(w)
    flush = sorted(
        ln for s in sets.values() for ln, dirty in s.items() if dirty
    )
    return hit, wb_line, np.asarray(flush, dtype=np.int64)


class TestClassifierProperty:
    """Vectorized == step-wise == stack-distance oracle on random streams."""

    @pytest.mark.parametrize("n_sets", [1, 2, 4, 8])
    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_streams(self, n_sets, ways, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        # A small line universe relative to the cache forces heavy
        # conflict/capacity interaction (evictions, re-allocations).
        universe = max(2, 3 * n_sets * ways)
        lines = rng.integers(0, universe, n).astype(np.int64)
        writes = rng.random(n) < 0.4
        got = classify_vectorized(lines, writes, n_sets=n_sets, ways=ways)
        assert_classifications_equal(
            got, classify_steps(lines, writes, n_sets=n_sets, ways=ways)
        )
        # Second, code-independent oracle: stack-distance hit criterion
        # plus an OrderedDict LRU reconstruction.
        o_hit, o_wb, o_flush = stackdist_oracle(lines, writes, n_sets, ways)
        np.testing.assert_array_equal(got.hit, o_hit)
        np.testing.assert_array_equal(got.wb_line, o_wb)
        np.testing.assert_array_equal(np.sort(got.flush_lines), o_flush)
        assert got.stats.hits == int(o_hit.sum())
        assert got.stats.misses == len(lines) - int(o_hit.sum())
        assert got.stats.flushes == len(o_flush)
        assert got.stats.writebacks == int((o_wb >= 0).sum()) + len(o_flush)

    def test_all_writes_and_all_reads(self):
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 12, 300).astype(np.int64)
        for writes in (np.zeros(300, dtype=bool), np.ones(300, dtype=bool)):
            assert_classifications_equal(
                classify_vectorized(lines, writes, n_sets=2, ways=2),
                classify_steps(lines, writes, n_sets=2, ways=2),
            )


# ---------------------------------------------------- oracle equivalence

GEOMETRIES = {
    # Table 3 defaults: tiny 2-way L1, the high-miss regime.
    "default": {},
    # Direct-mapped sweep point (vectorized ways==1 path).
    "direct_mapped": {"l1_lines": 16, "l1_ways": 1},
    # High associativity: the general stack-distance classification path.
    "four_way": {"l1_lines": 64, "l1_ways": 4},
    "eight_way": {"l1_lines": 64, "l1_ways": 8},
    # Different DRAM shape: routing, bank and bus state all change.
    "narrow_cube": {"n_vaults": 8, "banks_per_vault": 4},
}


class TestEngineEquivalence:
    """simulator == per-access oracle, bit for bit, on every workload."""

    def _compare(self, trace, cfg, name):
        rf = NMCSimulator(cfg).run(
            trace, workload=name, parameters={"p": 1.0}
        )
        rr = simulate_reference(
            trace, cfg, workload=name, parameters={"p": 1.0}
        )
        assert result_dict(rf) == result_dict(rr)
        return rf

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_all_workloads_default_config(self, name):
        self._compare(small_trace(name), default_nmc_config(), name)

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("name", ["atax", "bfs", "kme"])
    def test_swept_geometries(self, name, geometry):
        cfg = default_nmc_config().replace(**GEOMETRIES[geometry])
        self._compare(small_trace(name), cfg, name)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_all_workloads_ooo(self, name):
        cfg = default_nmc_config().replace(
            pe_type="ooo", issue_width=2, mshr_entries=8
        )
        self._compare(small_trace(name), cfg, name)

    @pytest.mark.parametrize("mshrs", [1, 2, 16])
    def test_ooo_mshr_sweep(self, mshrs):
        cfg = default_nmc_config().replace(
            pe_type="ooo", issue_width=2, mshr_entries=mshrs
        )
        self._compare(small_trace("chol"), cfg, "chol")

    def test_seed_and_scale_sweep(self):
        cfg = default_nmc_config()
        wl = get_workload("gemv")
        for seed in (0, 9):
            for scale in (4.0, 8.0):
                trace = wl.generate(wl.test_config(), scale=scale, seed=seed)
                self._compare(trace, cfg, "gemv")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_all_workloads_all_backends(self, name, backend):
        cfg = NMCConfig.from_backend(backend)
        self._compare(small_trace(name, scale=8.0), cfg, name)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_with_ooo_cores(self, backend):
        cfg = NMCConfig.from_backend(backend).replace(
            pe_type="ooo", issue_width=2, mshr_entries=8
        )
        self._compare(small_trace("chol", scale=8.0), cfg, "chol")

    def test_backend_memo_keys_do_not_collide(self):
        # Same trace, two backends, back to back: the events memo is
        # keyed by backend, so the second run must not reuse the first
        # backend's packed timing events.
        trace = small_trace("atax", scale=8.0)
        results = {}
        for backend in ("hmc", "ddr4-channel"):
            cfg = NMCConfig.from_backend(backend)
            fast = NMCSimulator(cfg).run(trace)
            ref = simulate_reference(trace, cfg)
            assert result_dict(fast) == result_dict(ref), backend
            results[backend] = fast.time_s
        assert results["hmc"] != results["ddr4-channel"]


class TestEngineEquivalenceHeapq(TestEngineEquivalence):
    """The same matrix with phase B on the heapq fallback loop (the only
    phase-B path on a host without a C compiler)."""

    @pytest.fixture(autouse=True)
    def _phase_b(self, heapq_phase_b):
        assert jit_status() == {"backend": None}


# -------------------------------------------------- campaign equivalence

ATAX_CONFIGS = [
    {"dimensions": 500, "threads": 4},
    {"dimensions": 1250, "threads": 8},
    {"dimensions": 2000, "threads": 16},
]


def run_campaign(jobs, arch=None):
    campaign = SimulationCampaign(arch, scale=4.0, jobs=jobs)
    return campaign.run(get_workload("atax"), ATAX_CONFIGS, jobs=jobs)


def assert_rows_equal(got, expected):
    assert len(got.rows) == len(expected.rows)
    for a, b in zip(got.rows, expected.rows):
        assert a.workload == b.workload
        assert a.parameters == b.parameters
        np.testing.assert_array_equal(a.features, b.features)
        assert result_dict(a.result) == result_dict(b.result)


def assert_rows_match_oracle(got):
    """Every campaign row equals a per-access oracle run of its trace."""
    expected = oracle_results(got, scale=4.0)
    assert len(expected) == len(ATAX_CONFIGS)
    assert [result_dict(r.result) for r in got.rows] == [
        result_dict(r) for r in expected
    ]


class TestCampaignEquivalence:
    def test_fast_matches_reference_serial(self):
        assert_rows_match_oracle(run_campaign(1))

    def test_fast_matches_reference_parallel(self):
        assert_rows_match_oracle(run_campaign(2))

    def test_trace_reused_across_architectures(self):
        # Two campaigns over the same input points but different
        # architectures: the second must reuse the memoized traces.
        run_campaign(1)
        before = metrics().count("campaign.trace_reuse")
        run_campaign(1, arch=default_nmc_config().replace(n_vaults=8))
        after = metrics().count("campaign.trace_reuse")
        assert after >= before + len(ATAX_CONFIGS)


# ------------------------------------------------------ geometry memos


class TestClassificationMemo:
    def test_memo_summary_shape(self):
        summary = simulation_memo_summary()
        for kind in ("streams", "classify", "events"):
            assert set(summary[kind]) == {"hits", "misses"}
        ratio = summary["classification_hit_ratio"]
        assert 0.0 <= ratio <= 1.0

    def test_resimulating_a_trace_hits_every_memo(self):
        trace = small_trace("gemv")
        sim = NMCSimulator(default_nmc_config())
        first = sim.run(trace, workload="gemv")
        m = metrics()
        before = {name: m.count(name) for name in
                  ("sim.memo.streams.hits", "sim.memo.classify.hits",
                   "sim.memo.events.hits")}
        second = sim.run(trace, workload="gemv")
        assert result_dict(second) == result_dict(first)
        for name, count in before.items():
            assert m.count(name) == count + 1, name

    def test_geometry_sharing_campaign_hits_classify_memo(self):
        # Same traces (campaign trace memo), same L1 geometry, different
        # DRAM shape: classification is served from the memo while the
        # DRAM-dependent event build re-runs — and results still match
        # the per-access oracle exactly.
        run_campaign(1)
        hits_before = metrics().count("sim.memo.classify.hits")
        narrow = default_nmc_config().replace(n_vaults=8)
        got = run_campaign(1, arch=narrow)
        assert (
            metrics().count("sim.memo.classify.hits")
            >= hits_before + len(ATAX_CONFIGS)
        )
        assert_rows_match_oracle(got)

    def test_parallel_memo_campaign_matches_serial(self):
        serial = run_campaign(1)
        assert_rows_equal(run_campaign(2), serial)


# ------------------------------------------------- compiled phase-B kernel


class TestJITEquivalence:
    def test_jit_status_shape(self):
        status = jit_status()
        assert status == {"backend": get_kernels()[1]}
        assert status["backend"] in ("cc", None)

    def test_compiled_kernel_matches_reference(self):
        kernel, backend = get_kernels()
        if kernel is None:
            pytest.skip("no C compiler available")
        assert jit_status() == {"backend": backend}
        for replace in (
            {},
            {"l1_lines": 64, "l1_ways": 8},
            {"pe_type": "ooo", "issue_width": 2, "mshr_entries": 8},
        ):
            cfg = default_nmc_config().replace(**replace)
            for name in ("atax", "kme"):
                trace = small_trace(name)
                fast = NMCSimulator(cfg).run(trace)
                ref = simulate_reference(trace, cfg)
                assert result_dict(fast) == result_dict(ref), (name, replace)


    def test_kernel_refuses_misread_arrays(self):
        kernel, _ = get_kernels()
        if kernel is None:
            pytest.skip("no C compiler available")
        cfg = default_nmc_config()
        bundle = NMCSimulator(cfg)._phase_a(
            small_trace("atax")
        ).bundle
        cols = [
            getattr(bundle, name)
            for name in ("off", "block", "vault", "bank", "wblock",
                         "wvault", "wbank", "dnext", "t0", "tail")
        ]
        kwargs = dict(
            ooo=False, mshrs=1,
            n_banks=cfg.n_vaults * cfg.banks_per_vault,
            n_vaults=cfg.n_vaults,
        )
        finish = kernel.contend(*cols, (1.0,) * 9, **kwargs)
        assert len(finish) == bundle.n_packed
        narrow = list(cols)
        narrow[1] = bundle.block.astype(np.int32)
        with pytest.raises(TypeError):
            kernel.contend(*narrow, (1.0,) * 9, **kwargs)
        strided = list(cols)
        strided[7] = np.repeat(bundle.dnext, 2)[::2]
        with pytest.raises(TypeError):
            kernel.contend(*strided, (1.0,) * 9, **kwargs)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def kernel_warnings(monkeypatch):
    """Forget the resolved kernel (restored afterwards) and collect the
    warnings its next resolution logs."""
    monkeypatch.setattr(native_mod, "_RESOLVED", None)
    handler = _Records()
    native_mod.log.addHandler(handler)
    yield handler.records
    native_mod.log.removeHandler(handler)


FALLBACK_ARCHES = {
    "in-order": default_nmc_config(),
    "ooo-mshr1": default_nmc_config().replace(
        pe_type="ooo", issue_width=2, mshr_entries=1
    ),
    "ooo-mshr8": default_nmc_config().replace(
        pe_type="ooo", issue_width=2, mshr_entries=8
    ),
    "hbm2": NMCConfig.from_backend("hbm2"),
    "ddr4-channel": NMCConfig.from_backend("ddr4-channel"),
}


class TestKernelFallback:
    """No usable C compiler: one warning, then the heapq loop."""

    def test_no_compiler_falls_back_to_heapq_loop(
        self, monkeypatch, kernel_warnings
    ):
        from repro.nmcsim import simulator as sim_mod

        monkeypatch.setattr(native_mod.shutil, "which", lambda name: None)
        heapq_runs = []
        heapq_loop = sim_mod._contend_python_bundle

        def spy(*args, **kwargs):
            heapq_runs.append(1)
            return heapq_loop(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "_contend_python_bundle", spy)
        for label, cfg in FALLBACK_ARCHES.items():
            for name in ("atax", "bfs"):
                trace = small_trace(name)
                fast = NMCSimulator(cfg).run(trace)
                ref = simulate_reference(trace, cfg)
                assert result_dict(fast) == result_dict(ref), (label, name)
        assert len(heapq_runs) == 2 * len(FALLBACK_ARCHES)
        assert jit_status()["backend"] is None
        assert len(kernel_warnings) == 1
        assert "no C compiler" in kernel_warnings[0].getMessage()

    def test_failing_compiler_warns_and_leaves_no_object(
        self, monkeypatch, tmp_path, kernel_warnings
    ):
        # A compiler that writes a partial output file, then fails.
        fake = tmp_path / "fake-cc"
        fake.write_text(
            "#!/bin/sh\n"
            'while [ $# -gt 0 ]; do\n'
            '  if [ "$1" = "-o" ]; then shift; echo partial > "$1"; fi\n'
            "  shift\n"
            "done\n"
            "exit 1\n"
        )
        fake.chmod(0o755)
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_SIM_JIT_CACHE", str(cache))
        monkeypatch.setattr(
            native_mod.shutil, "which", lambda name: str(fake)
        )
        assert get_kernels() == (None, None)
        assert jit_status() == {"backend": None}
        assert len(kernel_warnings) == 1
        assert "build failed" in kernel_warnings[0].getMessage()
        assert not [p.name for p in cache.iterdir() if ".so" in p.name]
        trace = small_trace("gemv")
        cfg = default_nmc_config()
        assert result_dict(NMCSimulator(cfg).run(trace)) == (
            result_dict(simulate_reference(trace, cfg))
        )
        assert len(kernel_warnings) == 1


def so_name():
    digest = hashlib.sha256(native_mod._C_SOURCE.encode()).hexdigest()[:16]
    return f"kernels-{digest}.so"


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX ownership")
class TestKernelCachePrivacy:
    """Loading a shared object runs its code, so the kernel cache must
    be this user's own: anything another user could plant is refused
    with one warning and the heapq fallback."""

    def assert_refused(self, kernel_warnings):
        assert get_kernels() == (None, None)
        assert jit_status() == {"backend": None}
        assert len(kernel_warnings) == 1
        assert "not private" in kernel_warnings[0].getMessage()
        trace = small_trace("bfs")
        cfg = default_nmc_config()
        assert result_dict(NMCSimulator(cfg).run(trace)) == (
            result_dict(simulate_reference(trace, cfg))
        )
        assert len(kernel_warnings) == 1

    def test_default_cache_is_per_user_and_private(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_SIM_JIT_CACHE", raising=False)
        monkeypatch.setattr(
            native_mod.tempfile, "gettempdir", lambda: str(tmp_path)
        )
        path = native_mod._cache_dir()
        assert path == str(tmp_path / f"repro-simjit-{os.getuid()}")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o700

    def test_world_writable_cache_is_refused(
        self, monkeypatch, tmp_path, kernel_warnings
    ):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o777)
        monkeypatch.setenv("REPRO_SIM_JIT_CACHE", str(cache))
        self.assert_refused(kernel_warnings)
        assert list(cache.iterdir()) == []

    def test_planted_writable_object_is_refused(
        self, monkeypatch, tmp_path, kernel_warnings
    ):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        planted = cache / so_name()
        planted.write_bytes(b"not a library")
        planted.chmod(0o666)
        monkeypatch.setenv("REPRO_SIM_JIT_CACHE", str(cache))
        self.assert_refused(kernel_warnings)

    @pytest.mark.skipif(
        hasattr(os, "getuid") and os.getuid() != 0,
        reason="planting a foreign-owned directory needs root",
    )
    def test_foreign_owned_cache_is_refused(
        self, monkeypatch, tmp_path, kernel_warnings
    ):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        os.chown(cache, 4242, 4242)
        monkeypatch.setenv("REPRO_SIM_JIT_CACHE", str(cache))
        self.assert_refused(kernel_warnings)


# -------------------------------------------------------- traced runs


class TestTracedEquivalence:
    def test_hw_traced_fast_run_matches_reference(self, tmp_path):
        """Hardware tracing forces the per-access path; results agree."""
        trace = small_trace("atax")
        cfg = default_nmc_config()
        baseline = simulate_reference(trace, cfg)
        fast_plain = NMCSimulator(cfg).run(trace)
        try:
            activate_tracing(tmp_path / "trace.json", hw=True)
            traced = NMCSimulator(cfg).run(trace)
        finally:
            reset_tracing()
        assert result_dict(traced) == result_dict(baseline)
        assert result_dict(fast_plain) == result_dict(baseline)

    def test_pipeline_traced_fast_run_stays_fast_and_identical(self, tmp_path):
        """Pipeline-only tracing (hw=False) keeps the two-phase path."""
        trace = small_trace("mvt")
        cfg = default_nmc_config()
        baseline = simulate_reference(trace, cfg)
        try:
            activate_tracing(tmp_path / "trace.json", hw=False)
            traced = NMCSimulator(cfg).run(trace)
        finally:
            reset_tracing()
        assert result_dict(traced) == result_dict(baseline)
