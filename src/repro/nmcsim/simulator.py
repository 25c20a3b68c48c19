"""The trace-driven NMC simulator (paper phase 2).

Execution model, matching the Table 3 NMC system and the modelling level of
Ramulator-PIM for this paper's experiments:

* each software thread is statically assigned to a PE (round-robin when
  there are more threads than PEs; extra threads time-multiplex);
* PEs are single-issue and in-order: every instruction occupies the pipe
  for its opcode latency, and memory instructions *block* until the L1 (or
  the stacked DRAM, on a miss) returns the line;
* per-PE L1s are write-back/write-allocate; misses and dirty evictions go
  to the vault whose address range they fall into;
* vault/bank contention between PEs is resolved exactly, by processing all
  PEs' memory events in global time order (heap-driven).

The simulator runs this model in two phases: **phase A** classifies
every PE stream's hits, misses, writebacks and end-of-kernel flushes up
front with the vectorized stack-distance classifier
(:mod:`repro.nmcsim.classify`, exact for any associativity), then
**phase B** runs the exact contention loop over *only* the
miss/writeback events, with hit latencies folded into the compute
segments.

:func:`simulate_reference` keeps the original, obviously-correct
formulation — one heap event per memory access, stepping the
:class:`~repro.nmcsim.cache.Cache` model per access — as the golden
oracle the two-phase path is tested against.  Hardware-timeline runs
(``--trace-hw``), which need one event per access, take it too.  Event
times on both paths are computed from the same prefix-sum expressions
(``base_t + (pref[k+1] - pref[base+1]) + n_hits * l1``), so they agree
bit for bit — not merely within tolerance.

Two further levers sit on top of the two-phase path:

* **geometry memos** — phase A's products are pure functions of
  (trace, architecture-slice): PE streams depend only on the PE count /
  issue width / frequency / line size, classifications only on the L1
  geometry, and the packed phase-B event arrays on the DRAM geometry and
  clock as well.  Each is cached on the trace's ``_memo`` side table
  under its own key, so DoE campaign points that share a slice skip the
  corresponding work entirely (``sim.memo.*`` counters).
* **compiled phase B** — the contention loop runs as a C kernel
  (:mod:`repro._native`) whenever the system C compiler builds
  it; without one, a warning is logged once and the byte-identical
  heapq loop :func:`_contend_python_bundle` runs instead.

The simulator returns IPC (total instructions / makespan cycles),
execution time and the full energy breakdown — the labels NAPEL trains
on.
"""

from __future__ import annotations

import heapq
import warnings
import weakref
from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from ..config import NMCConfig, default_nmc_config
from ..errors import SimulationError
from ..ir import OPCODE_LATENCY, InstructionTrace, Opcode
from ..obs import get_logger, metrics, tracer
from .._native import get_kernels
from .cache import Cache, CacheStats
from .classify import classify_vectorized
from .dram import StackedMemory
from .energy import compute_energy
from .memostore import active_store, store_key, store_status
from .results import SimulationResult

log = get_logger("repro.nmcsim")

def jit_status() -> dict:
    """Compiled-kernel provenance for manifests (``sim_jit``) and
    benchmark records.

    ``backend`` is ``"cc"`` when the compiled kernels (phase B and the
    profiler's stack-distance and ILP loops) are in use, or None when no
    C compiler built them and the Python loops run instead.
    """
    return {"backend": get_kernels()[1]}


# --------------------------------------------------------------- memos

_MEMO_KINDS = ("streams", "classify", "events")

#: Per-trace LRU capacity of each memo kind.  Streams only vary with the
#: coarse PE slice (few distinct values per campaign); classification and
#: event bundles track swept geometries, so they keep a few more entries.
_MEMO_CAPS = {"streams": 2, "classify": 4, "events": 4}

#: Traces carrying live memo side tables, tracked weakly so
#: :func:`simulation_memo_summary` can report approximate byte sizes
#: without extending any trace's lifetime.
_MEMO_TRACES: "weakref.WeakSet[InstructionTrace]" = weakref.WeakSet()


def _memo_lookup(trace: InstructionTrace, kind: str, key: tuple, build):
    """Geometry-keyed lookup in the trace's ``_memo`` side table.

    Each kind gets its own small LRU (:data:`_MEMO_CAPS`); hits and
    misses are counted as ``sim.memo.<kind>.<hits|misses>``.  The memo
    lives on the trace object, so its lifetime is bounded by the
    campaign-level trace memo that already bounds trace lifetimes.
    """
    _MEMO_TRACES.add(trace)
    memo: OrderedDict = trace._memo.setdefault(f"sim.{kind}", OrderedDict())
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
        metrics().inc(f"sim.memo.{kind}.hits")
        return value
    value = build()
    memo[key] = value
    metrics().inc(f"sim.memo.{kind}.misses")
    while len(memo) > _MEMO_CAPS[kind]:
        memo.popitem(last=False)
    return value


def _memo_touch(trace: InstructionTrace, kind: str, key: tuple) -> None:
    """Refresh (and count) a memo entry if present; never builds.

    The events memo subsumes the streams and classify products, so a hit
    on it means those kinds' work was skipped too — touching them keeps
    their LRU order and hit counters identical to the pre-batched flow,
    which looked all three up every run.  Entries absent because the
    product came from the persistent store are silently left absent.
    """
    memo = trace._memo.get(f"sim.{kind}")
    if memo is not None and key in memo:
        memo.move_to_end(key)
        metrics().inc(f"sim.memo.{kind}.hits")


def _approx_nbytes(obj, _depth: int = 0) -> int:
    """Rough resident size of a memo value (arrays dominate by design).

    Walks arrays, containers and slotted objects; long homogeneous lists
    (packed event tuples) are extrapolated from their first element
    instead of walked, keeping the report cheap.
    """
    if _depth > 6 or obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, (int, float, bool, np.generic)):
        return 8
    if isinstance(obj, dict):
        return 16 * len(obj) + sum(
            _approx_nbytes(v, _depth + 1) for v in obj.values()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        n = len(obj)
        if n > 256:
            first = next(iter(obj), None)
            return 8 * n + n * _approx_nbytes(first, _depth + 1)
        return 8 * n + sum(_approx_nbytes(v, _depth + 1) for v in obj)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return sum(
            _approx_nbytes(getattr(obj, name, None), _depth + 1)
            for name in slots
            if name != "__weakref__"
        )
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return sum(_approx_nbytes(v, _depth + 1) for v in attrs.values())
    return 8


def simulation_memo_bytes() -> dict[str, int]:
    """Approximate resident bytes per memo kind across live traces."""
    totals = dict.fromkeys(_MEMO_KINDS, 0)
    for trace in list(_MEMO_TRACES):
        for kind in _MEMO_KINDS:
            memo = trace._memo.get(f"sim.{kind}")
            if memo:
                totals[kind] += _approx_nbytes(memo)
    return totals


def simulation_memo_summary() -> dict:
    """Memo hit/miss counters as a manifest-ready mapping.

    ``classification_hit_ratio`` is the headline number: the fraction of
    simulation runs whose phase-A classification was served from the
    geometry memo instead of recomputed.  ``store`` carries the
    persistent cross-process store's counters (zero when disabled) and
    ``bytes`` the approximate resident size of each in-process kind.
    """
    m = metrics()
    out: dict = {}
    for kind in _MEMO_KINDS:
        out[kind] = {
            "hits": m.count(f"sim.memo.{kind}.hits"),
            "misses": m.count(f"sim.memo.{kind}.misses"),
        }
    total = out["classify"]["hits"] + out["classify"]["misses"]
    out["classification_hit_ratio"] = (
        out["classify"]["hits"] / total if total else 0.0
    )
    out["store"] = store_status()
    out["bytes"] = simulation_memo_bytes()
    return out


def simulation_batch_summary() -> dict:
    """Batched-replay counters as a manifest-ready mapping."""
    m = metrics()
    calls = m.count("sim.batch.calls")
    points = m.count("sim.batch.points")
    return {
        "calls": calls,
        "points": points,
        "points_per_call": points / calls if calls else 0.0,
    }


#: numpy lookup table: opcode value -> execute latency (cycles).
_LATENCY_LUT = np.zeros(max(int(op) for op in Opcode) + 1, dtype=np.int64)
for _op, _lat in OPCODE_LATENCY.items():
    _LATENCY_LUT[int(_op)] = _lat

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ATOMIC = int(Opcode.ATOMIC)


class _PEStream:
    """Pre-digested per-PE instruction stream.

    ``compute_ns[k]`` is the non-memory execution time preceding memory op
    ``k`` (entry ``n_mem`` is the tail after the last memory op); ``pref``
    is its prefix sum (``pref[k+1]`` = compute time before op ``k``
    completes its preceding segment); ``lines`` and ``writes`` describe
    the memory ops themselves and stay NumPy arrays end to end.  The
    array columns are the memoizable *digest* (shared across runs via
    the streams memo); everything else is per-run mutable state.

    Timing state is normalized to *miss anchors*: ``base_t`` is the
    completion time of the last miss (0.0 initially) and ``base_k`` its
    op index (-1 initially); every later event time derives from them via
    :meth:`issue_ns`, which is the expression both paths share.
    ``outstanding`` is a min-heap of in-flight miss completion times for
    the out-of-order PE model.
    """

    __slots__ = (
        "pe", "next_op", "compute_ns", "pref", "lines", "writes",
        "cache", "finish_ns", "n_instructions", "outstanding",
        "base_t", "base_k",
    )

    def __init__(
        self,
        pe: int,
        compute_ns: np.ndarray,
        pref: np.ndarray,
        lines: np.ndarray,
        writes: np.ndarray,
        n_instructions: int,
    ) -> None:
        self.pe = pe
        self.next_op = 0
        self.compute_ns = compute_ns
        self.pref = pref
        self.lines = lines
        self.writes = writes
        self.cache: Cache | None = None
        self.finish_ns = 0.0
        self.n_instructions = n_instructions
        self.outstanding: list[float] = []
        self.base_t = 0.0
        self.base_k = -1

    @property
    def n_mem(self) -> int:
        return len(self.lines)

    def issue_ns(self, k: int, l1_cycle_ns: float) -> float:
        """Issue time of memory op ``k`` (``k == n_mem``: kernel finish).

        All ops in ``(base_k, k)`` are hits by construction, each adding
        one L1 cycle; the expression (and its floating-point evaluation
        order) is shared verbatim with the two-phase path's vectorized
        delta computation, which is what makes the paths bit-identical.
        """
        return self.base_t + (
            (self.pref[k + 1] - self.pref[self.base_k + 1])
            + (k - self.base_k - 1) * l1_cycle_ns
        )


def _stream_digest(
    pe: int,
    opcode: np.ndarray,
    addr: np.ndarray,
    cycle_ns: float,
    line_shift: int,
    issue_width: int = 1,
) -> tuple:
    """The immutable array columns of one PE stream (memoizable)."""
    lat = _LATENCY_LUT[opcode]
    is_mem = (opcode == _LOAD) | (opcode == _STORE) | (opcode == _ATOMIC)
    mem_pos = np.flatnonzero(is_mem)
    lat_nonmem = np.where(is_mem, 0, lat)
    if issue_width > 1:
        # Multi-issue cores retire several independent ops per cycle;
        # first-order model: compute segments shrink by the issue width.
        lat_nonmem = lat_nonmem / issue_width
    pref = np.concatenate(([0], np.cumsum(lat_nonmem)))
    # Compute time between consecutive memory ops (and before the first /
    # after the last).  lat_nonmem is zero at memory positions, so prefix
    # differences at the positions give exactly the in-between sums.
    bounds = np.concatenate(([0], mem_pos, [len(opcode)]))
    compute_cycles = pref[bounds[1:]] - pref[bounds[:-1]]
    lines = (addr[mem_pos] >> np.uint64(line_shift)).astype(np.int64)
    writes = (opcode[mem_pos] == _STORE) | (opcode[mem_pos] == _ATOMIC)
    compute_ns = compute_cycles.astype(np.float64) * cycle_ns
    return (
        pe,
        compute_ns,
        np.concatenate(([0.0], np.cumsum(compute_ns))),
        lines,
        writes,
        len(opcode),
    )


class _EventBundle:
    """Packed phase-B inputs for one (trace, architecture-slice) pair.

    Miss/writeback events of all streams concatenated into flat arrays
    (``off`` holds per-packed-stream bounds, ``sidx`` maps packed slots
    back to stream indices), plus the order-independent aggregates that
    phase A pre-counts (DRAM traffic, no-miss stream finish times).
    Everything here is immutable across runs — the bundle is what the
    events memo caches.
    """

    __slots__ = (
        "sidx", "off", "block", "vault", "bank",
        "wblock", "wvault", "wbank", "dnext", "t0", "tail",
        "finish0", "n_reads", "n_writes", "vault_counts",
        "_events_lists",
    )

    def __init__(self) -> None:
        # Built as a list, normalised to an int64 array at the end of
        # _build_events (and on store decode) — batched replay indexes
        # and concatenates it.
        self.sidx: list[int] | np.ndarray = []
        self.finish0: dict[int, float] = {}
        self.n_reads = 0
        self.n_writes = 0
        self._events_lists: list[list[tuple]] | None = None

    @property
    def n_packed(self) -> int:
        return len(self.sidx)

    def events_lists(self) -> list[list[tuple]]:
        """Per-packed-stream Python event tuples (heapq-loop food).

        Built lazily from the packed arrays on the first run that falls
        back to the heapq loop, then cached on the bundle (tuples
        of plain scalars: cheap indexing and comparisons; float64 ->
        float is exact).
        """
        if self._events_lists is None:
            built = []
            off = self.off
            for slot in range(self.n_packed):
                lo, hi = int(off[slot]), int(off[slot + 1])
                built.append(list(zip(
                    self.block[lo:hi].tolist(),
                    self.vault[lo:hi].tolist(),
                    self.bank[lo:hi].tolist(),
                    self.wblock[lo:hi].tolist(),
                    self.wvault[lo:hi].tolist(),
                    self.wbank[lo:hi].tolist(),
                    self.dnext[lo:hi].tolist(),
                )))
            self._events_lists = built
        return self._events_lists


class _PhaseA:
    """The complete phase-A product of one (trace, architecture-slice).

    Everything the two-phase path needs downstream of classification: the
    packed event bundle, the aggregate L1 statistics, the end-of-kernel
    flush write count and the stream count.  This is the unit both the
    in-process events memo and the persistent cross-process store cache —
    a warm hit skips stream digestion, classification *and* event
    packing entirely.
    """

    __slots__ = ("bundle", "stats", "flush_writes", "n_streams")

    def __init__(
        self,
        bundle: _EventBundle,
        stats: tuple[int, int, int, int],
        flush_writes: int,
        n_streams: int,
    ) -> None:
        self.bundle = bundle
        #: (hits, misses, writebacks, flushes) — CacheStats field order.
        self.stats = stats
        self.flush_writes = flush_writes
        self.n_streams = n_streams


def _events_key(cfg: NMCConfig) -> tuple:
    """The architecture slice phase A depends on (events-memo key)."""
    return (
        cfg.backend,
        cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways,
        cfg.issue_width, cfg.frequency_ghz, cfg.n_vaults,
        cfg.banks_per_vault, cfg.row_buffer_bytes,
    )


_BUNDLE_INT_COLS = (
    "sidx", "off", "block", "vault", "bank", "wblock", "wvault", "wbank",
)
_BUNDLE_FLOAT_COLS = ("dnext", "t0", "tail")

#: Segment order inside a store entry's two flat blobs.  Every int64
#: array (bundle columns, finish0 indices, vault counts, scalar metadata)
#: concatenates into ``ints`` and every float64 array into ``floats``,
#: with a ``lens`` header to split them back — loading 3 archive members
#: per entry instead of 16 keeps warm-store lookups cheap.
_STORE_INT_SEGS = _BUNDLE_INT_COLS + ("f0_idx", "vault_counts", "meta")
_STORE_FLOAT_SEGS = _BUNDLE_FLOAT_COLS + ("f0_val",)
_META_LEN = 8  # n_streams, n_reads, n_writes, flush_writes, 4 stats


def _encode_phase_a(product: _PhaseA) -> dict[str, np.ndarray]:
    """Flatten a phase-A product into three arrays for the memo store."""
    b = product.bundle
    n0 = len(b.finish0)
    parts = {name: getattr(b, name) for name in _BUNDLE_INT_COLS}
    parts.update({name: getattr(b, name) for name in _BUNDLE_FLOAT_COLS})
    parts["f0_idx"] = np.fromiter(b.finish0.keys(), dtype=np.int64, count=n0)
    parts["f0_val"] = np.fromiter(b.finish0.values(), dtype=np.float64, count=n0)
    parts["vault_counts"] = b.vault_counts
    parts["meta"] = np.asarray(
        [
            product.n_streams, b.n_reads, b.n_writes,
            product.flush_writes, *product.stats,
        ],
        dtype=np.int64,
    )
    ints = [
        np.ascontiguousarray(parts[name], dtype=np.int64)
        for name in _STORE_INT_SEGS
    ]
    floats = [
        np.ascontiguousarray(parts[name], dtype=np.float64)
        for name in _STORE_FLOAT_SEGS
    ]
    return {
        "lens": np.asarray(
            [len(a) for a in ints] + [len(a) for a in floats],
            dtype=np.int64,
        ),
        "ints": np.concatenate(ints) if ints else np.empty(0, np.int64),
        "floats": (
            np.concatenate(floats) if floats else np.empty(0, np.float64)
        ),
    }


def _split_segments(
    blob: np.ndarray, lens: Sequence[int]
) -> list[np.ndarray]:
    """Split a flat blob back into its segments (views, no copies)."""
    if len(lens) and min(lens) < 0:
        raise ValueError(f"negative segment length in {list(lens)}")
    if sum(lens) != len(blob):
        raise ValueError(
            f"segment lengths {list(lens)} do not cover blob of {len(blob)}"
        )
    bounds = np.cumsum([0, *lens])
    return [blob[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _check_bundle(bundle: _EventBundle, n_banks: int, n_vaults: int) -> None:
    """Raise ValueError unless phase B can index ``bundle`` safely.

    Phase A builds consistent bundles; ones decoded from the on-disk
    store are outside input, so the kernel's indexing assumptions are
    checked there: every packed stream owns at least one event, all
    event columns agree in length, and bank / vault indices fit the
    memory state (a writeback bank of -1 means "no writeback").
    """
    off = bundle.off
    n, n_events = len(off) - 1, len(bundle.block)
    columns = (
        bundle.vault, bundle.bank, bundle.wblock, bundle.wvault,
        bundle.wbank, bundle.dnext,
    )
    ok = (
        n >= 0
        and len(bundle.sidx) == len(bundle.t0) == len(bundle.tail) == n
        and all(len(c) == n_events for c in columns)
        and (n == 0 or (off[0] == 0 and off[-1] == n_events))
        and bool(np.all(off[1:] > off[:-1]))
    )
    if ok and n_events:
        ok = (
            bundle.bank.min() >= 0 and bundle.wbank.min() >= -1
            and max(bundle.bank.max(), bundle.wbank.max()) < n_banks
            and min(bundle.vault.min(), bundle.wvault.min()) >= 0
            and max(bundle.vault.max(), bundle.wvault.max()) < n_vaults
        )
    if not ok:
        raise ValueError("event bundle indices are inconsistent")


def _decode_phase_a(
    data: Mapping[str, np.ndarray], n_banks: int, n_vaults: int
) -> _PhaseA | None:
    """Rebuild a phase-A product from store arrays (None, after a
    warning, when they are malformed or index outside the memory of
    ``n_banks`` banks in ``n_vaults`` vaults)."""
    try:
        lens = np.ascontiguousarray(data["lens"], dtype=np.int64)
        if len(lens) != len(_STORE_INT_SEGS) + len(_STORE_FLOAT_SEGS):
            raise ValueError(f"bad segment count {len(lens)}")
        n_ints = len(_STORE_INT_SEGS)
        ints = _split_segments(
            np.ascontiguousarray(data["ints"], dtype=np.int64),
            lens[:n_ints],
        )
        floats = _split_segments(
            np.ascontiguousarray(data["floats"], dtype=np.float64),
            lens[n_ints:],
        )
        parts = dict(zip(_STORE_INT_SEGS, ints))
        parts.update(zip(_STORE_FLOAT_SEGS, floats))
        bundle = _EventBundle()
        for name in _BUNDLE_INT_COLS + _BUNDLE_FLOAT_COLS:
            setattr(bundle, name, parts[name])
        bundle.finish0 = {
            int(i): float(v)
            for i, v in zip(parts["f0_idx"], parts["f0_val"])
        }
        bundle.vault_counts = parts["vault_counts"]
        meta = parts["meta"]
        if len(meta) != _META_LEN:
            raise ValueError(f"bad metadata length {len(meta)}")
        bundle.n_reads = int(meta[1])
        bundle.n_writes = int(meta[2])
        _check_bundle(bundle, n_banks, n_vaults)
        return _PhaseA(
            bundle,
            (int(meta[4]), int(meta[5]), int(meta[6]), int(meta[7])),
            int(meta[3]),
            int(meta[0]),
        )
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        warnings.warn(
            f"sim memo store entry decoded to an invalid phase-A product "
            f"({exc!r}); recomputing",
            RuntimeWarning,
            stacklevel=2,
        )
        metrics().inc("sim.memo.store.errors")
        return None


class NMCSimulator:
    """Simulates kernel traces on one NMC architecture configuration."""

    def __init__(self, config: NMCConfig | None = None) -> None:
        self.config = config or default_nmc_config()
        self.config.validate()

    def run(
        self,
        trace: InstructionTrace,
        *,
        workload: str = "",
        parameters: Mapping[str, float] | None = None,
    ) -> SimulationResult:
        """Simulate one trace; returns IPC, time and energy.

        Runs as a one-point :func:`simulate_batch`.
        """
        return simulate_batch([(trace, self.config, workload, parameters)])[0]

    def _run_reference(
        self,
        trace: InstructionTrace,
        workload: str,
        parameters: Mapping[str, float] | None,
    ) -> SimulationResult:
        """The per-access path behind :func:`simulate_reference`."""
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        with metrics().timer("phase.simulate") as span:
            # Opt-in simulated-hardware timeline (None unless
            # REPRO_TRACE_HW is set): per-PE busy/stall slices, vault
            # occupancy and cache counter tracks, all on the simulated
            # nanosecond clock.
            hw = tracer().hw_timeline()
            memory = StackedMemory(self.config, timeline=hw)
            streams = self._build_streams(trace)
            cache_stats, flush_writes = self._contend_reference(
                streams, memory, hw
            )
            memory.writes += flush_writes
            makespan_ns = max(s.finish_ns for s in streams)
            result = self._result(
                trace, memory, cache_stats, makespan_ns, len(streams),
                workload, parameters, hw=hw, streams=streams,
            )
        metrics().inc("nmcsim.runs")
        _log_done(workload, "reference", result, span.elapsed_s)
        return result

    # ----------------------------------------------------------- shared

    def _stream_digests(self, trace: InstructionTrace) -> list[tuple]:
        """Round-robin threads onto PEs; threads sharing a PE execute
        back-to-back (time multiplexed)."""
        cfg = self.config
        line_shift = cfg.line_bytes.bit_length() - 1
        tids = trace.thread_ids
        # One stable argsort groups the trace by thread id while keeping
        # per-thread program order — same sub-arrays as a boolean mask
        # per tid, without T full-column scans.
        order = np.argsort(trace.tid, kind="stable")
        sorted_tid = trace.tid[order]
        starts = np.searchsorted(sorted_tid, tids, side="left")
        ends = np.searchsorted(sorted_tid, tids, side="right")
        per_pe_cols: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for idx, tid in enumerate(tids):
            pe = idx % cfg.n_pes
            sel = order[starts[idx]:ends[idx]]
            per_pe_cols.setdefault(pe, []).append(
                (trace.opcode[sel], trace.addr[sel])
            )
        digests: list[tuple] = []
        for pe, parts in sorted(per_pe_cols.items()):
            opcode = np.concatenate([p[0] for p in parts])
            addr = np.concatenate([p[1] for p in parts])
            digests.append(
                _stream_digest(
                    pe, opcode, addr, cfg.cycle_ns, line_shift,
                    issue_width=cfg.issue_width,
                )
            )
        return digests

    def _build_streams(self, trace: InstructionTrace) -> list[_PEStream]:
        cfg = self.config
        digests = _memo_lookup(
            trace,
            "streams",
            (cfg.n_pes, cfg.issue_width, cfg.frequency_ghz, cfg.line_bytes),
            lambda: self._stream_digests(trace),
        )
        # Fresh per-run wrappers around the shared (immutable) columns.
        return [_PEStream(*d) for d in digests]

    def _finalize(
        self,
        trace: InstructionTrace,
        memory: StackedMemory,
        product: _PhaseA,
        packed_finish: np.ndarray | None,
        workload: str,
        parameters: Mapping[str, float] | None,
    ) -> SimulationResult:
        """Turn a phase-A product + phase-B finish times into a result."""
        memory.writes += product.flush_writes
        makespan_ns = 0.0
        for v in product.bundle.finish0.values():
            if v > makespan_ns:
                makespan_ns = v
        if packed_finish is not None and len(packed_finish):
            peak = float(packed_finish.max())
            if peak > makespan_ns:
                makespan_ns = peak
        return self._result(
            trace, memory, CacheStats(*product.stats), makespan_ns,
            product.n_streams, workload, parameters,
        )

    def _result(
        self,
        trace: InstructionTrace,
        memory: StackedMemory,
        cache_stats: CacheStats,
        makespan_ns: float,
        n_pes_used: int,
        workload: str,
        parameters: Mapping[str, float] | None,
        *,
        hw=None,
        streams: list[_PEStream] | None = None,
    ) -> SimulationResult:
        cfg = self.config
        cycle_ns = cfg.cycle_ns
        line_shift = cfg.line_bytes.bit_length() - 1
        if makespan_ns <= 0:
            raise SimulationError("simulation produced a non-positive makespan")
        cycles = max(1, int(round(makespan_ns / cycle_ns)))
        instructions = len(trace)
        ipc = instructions / cycles

        dram_stats = memory.stats()
        if hw is not None and streams is not None:
            for s in streams:
                assert s.cache is not None
                hw.counter(
                    f"pe{s.pe}.cache",
                    s.cache.stats.counter_values(),
                    makespan_ns,
                )
            hw.close()

        offload_bytes = float(
            trace.footprint_lines(line_shift) * cfg.line_bytes
        )

        time_s = makespan_ns * 1e-9
        energy = compute_energy(
            cfg,
            trace.opcode_counts(),
            l1_accesses=cache_stats.accesses,
            dram_accesses=dram_stats.accesses,
            exec_time_s=time_s,
            offload_bytes=offload_bytes,
            dram_writes=dram_stats.writes,
        )
        return SimulationResult(
            workload=workload,
            instructions=instructions,
            cycles=cycles,
            time_s=time_s,
            ipc=ipc,
            energy=energy,
            cache=cache_stats,
            dram=dram_stats,
            n_pes_used=n_pes_used,
            parameters=dict(parameters or {}),
        )

    # ---------------------------------------------- per-access oracle

    def _contend_reference(
        self,
        streams: list[_PEStream],
        memory: StackedMemory,
        hw,
    ) -> tuple[CacheStats, int]:
        """One heap event per memory access, stepping the Cache model.

        In-order PEs block on every miss.  Out-of-order PEs ("ooo") keep
        issuing past misses until their MSHRs fill; when the MSHR file is
        full, the PE stalls until the oldest outstanding miss returns.
        """
        cfg = self.config
        line_shift = cfg.line_bytes.bit_length() - 1
        l1_cycle_ns = cfg.cycle_ns  # one-cycle L1 access
        ooo = cfg.pe_type == "ooo"
        mshrs = cfg.mshr_entries
        heap: list[tuple[float, int]] = []
        for i, s in enumerate(streams):
            s.cache = Cache.l1_for(cfg)
            if s.n_mem:
                heapq.heappush(heap, (s.issue_ns(0, l1_cycle_ns), i))
            else:
                s.finish_ns = float(s.compute_ns[0])
        l1_misses = 0
        # Event loop: always advance the PE whose next memory access comes
        # earliest in global time, so bank/bus contention is seen in order.
        while heap:
            t, i = heapq.heappop(heap)
            s = streams[i]
            k = s.next_op
            if hw is not None:
                compute = float(s.compute_ns[k])
                if compute > 0:
                    hw.slice(s.pe, "pe.busy", t - compute, t)
            line = int(s.lines[k])
            is_write = bool(s.writes[k])
            hit, writeback = s.cache.access(line, is_write)
            if hit:
                pass  # one L1 cycle, folded into the issue expression
            else:
                done = memory.access(t, line << line_shift, is_write)
                if not ooo:
                    if hw is not None:
                        l1_misses += 1
                        hw.slice(s.pe, "pe.stall", t, done, reason="l1_miss")
                        hw.counter("l1.misses", {"misses": l1_misses}, done)
                    t = done + l1_cycle_ns
                else:
                    if hw is not None:
                        l1_misses += 1
                        hw.counter("l1.misses", {"misses": l1_misses}, done)
                    heapq.heappush(s.outstanding, done)
                    if len(s.outstanding) >= mshrs:
                        # MSHRs full: stall until the oldest miss completes.
                        oldest = heapq.heappop(s.outstanding)
                        if hw is not None and oldest > t:
                            hw.slice(
                                s.pe, "pe.stall", t, oldest,
                                reason="mshr_full",
                            )
                        t = max(t, oldest) + l1_cycle_ns
                    else:
                        t += l1_cycle_ns  # issue continues under the miss
                # The miss completion re-anchors all later event times.
                s.base_t = t
                s.base_k = k
                if writeback is not None:
                    # Dirty eviction: posted write, does not block the PE
                    # but occupies the bank (and pays the backend's
                    # write-asymmetry penalty, if any).
                    memory.access(
                        t, writeback << line_shift, True, is_writeback=True
                    )
            s.next_op = k + 1
            if s.next_op < s.n_mem:
                heapq.heappush(
                    heap, (s.issue_ns(s.next_op, l1_cycle_ns), i)
                )
            else:
                finish = s.issue_ns(s.n_mem, l1_cycle_ns)
                if s.outstanding:
                    finish = max(finish, max(s.outstanding))
                    s.outstanding.clear()
                s.finish_ns = finish

        # Dirty lines still resident are flushed back at kernel completion:
        # flush() counts each line once in the cache's writeback stats, and
        # the matching DRAM write traffic (and thus DRAM access energy) is
        # added by the caller — once per flushed line, same as an eviction.
        flush_writes = 0
        cache_stats = CacheStats()
        for s in streams:
            assert s.cache is not None
            flush_writes += s.cache.flush()
            cache_stats.merge(s.cache.stats)
        return cache_stats, flush_writes

    # --------------------------------------------------- two-phase path

    def _build_events(
        self,
        streams: list[_PEStream],
        cls_list: list,
        memory: StackedMemory,
    ) -> _EventBundle:
        """Pack every stream's miss/writeback events into flat arrays.

        Everything deterministic is computed here, vectorized: issue-gap
        deltas (the exact :meth:`_PEStream.issue_ns` operations), DRAM
        routing (the Fibonacci hash is stateless, so ``route_array``
        covers misses and victims alike) and the order-independent
        traffic totals.  Only bank/bus timing is left for phase B.
        """
        cfg = self.config
        line_shift = cfg.line_bytes.bit_length() - 1
        l1_cycle_ns = cfg.cycle_ns
        banks_pv = cfg.banks_per_vault
        shift = np.uint64(line_shift)
        bundle = _EventBundle()
        vault_counts = np.zeros(cfg.n_vaults, dtype=np.int64)
        cols: list[tuple] = []
        t0: list[float] = []
        tail: list[float] = []
        for i, s in enumerate(streams):
            cls = cls_list[i]
            mp = np.flatnonzero(~cls.hit)
            if not len(mp):
                # No misses: purely deterministic stream (base_t = 0).
                bundle.finish0[i] = (
                    float(s.compute_ns[0]) if s.n_mem == 0
                    else float(s.issue_ns(s.n_mem, l1_cycle_ns))
                )
                continue
            # Deterministic gap from the previous miss completion to this
            # miss's issue: the in-between compute segments plus one L1
            # cycle per intervening hit — evaluated with the exact
            # operations of issue_ns().
            mp1 = mp + 1
            comp = s.pref[mp1] - s.pref[np.concatenate(([0], mp1[:-1]))]
            gaps = np.diff(np.concatenate(([-1], mp))) - 1
            delta = comp + gaps * l1_cycle_ns
            dnext = np.empty(len(mp), dtype=np.float64)
            dnext[:-1] = delta[1:]
            dnext[-1] = 0.0
            mv, mb, mblk = memory.route_array(
                s.lines[mp].astype(np.uint64) << shift
            )
            wb = cls.wb_line[mp]
            has_wb = wb >= 0
            wv, wbk, wblk = memory.route_array(
                np.where(has_wb, wb, 0).astype(np.uint64) << shift
            )
            bundle.sidx.append(i)
            t0.append(float(delta[0]))
            tail.append(float(
                (s.pref[s.n_mem + 1] - s.pref[mp[-1] + 1])
                + (s.n_mem - 1 - mp[-1]) * l1_cycle_ns
            ))
            cols.append((
                mblk, mv, mv * banks_pv + mb,
                wblk, wv, np.where(has_wb, wv * banks_pv + wbk, -1),
                dnext,
            ))
            # DRAM traffic totals are order-independent: count them once
            # here rather than per event.
            miss_writes = int(np.count_nonzero(s.writes[mp]))
            n_wb = int(np.count_nonzero(has_wb))
            bundle.n_reads += len(mp) - miss_writes
            bundle.n_writes += miss_writes + n_wb
            vault_counts += np.bincount(mv, minlength=len(vault_counts))
            vault_counts += np.bincount(
                wv[has_wb], minlength=len(vault_counts)
            )
        bundle.vault_counts = vault_counts
        n_events = [len(c[0]) for c in cols]
        bundle.off = np.concatenate(
            ([0], np.cumsum(np.asarray(n_events, dtype=np.int64)))
        ).astype(np.int64)
        names = ("block", "vault", "bank", "wblock", "wvault", "wbank")
        for col, name in enumerate(names):
            packed = (
                np.concatenate([c[col] for c in cols]).astype(np.int64)
                if cols else np.empty(0, dtype=np.int64)
            )
            setattr(bundle, name, packed)
        bundle.dnext = (
            np.concatenate([c[6] for c in cols])
            if cols else np.empty(0, dtype=np.float64)
        )
        bundle.t0 = np.asarray(t0, dtype=np.float64)
        bundle.tail = np.asarray(tail, dtype=np.float64)
        bundle.sidx = np.asarray(bundle.sidx, dtype=np.int64)
        return bundle

    def _compute_phase_a(self, trace: InstructionTrace) -> _PhaseA:
        """Run phase A from scratch: digest, classify, pack events.

        Phase A classifies every stream's accesses against its L1 (hits,
        misses, dirty-victim writebacks, flush set) without any timing
        and packs the miss events.  Phase B then replays only the misses
        through the global-time heap — the same issue-time expressions
        and the same sequence of memory-pipeline updates as the
        per-access path, because hits never touch shared state.
        """
        cfg = self.config
        streams = self._build_streams(trace)
        cls_list = _memo_lookup(
            trace,
            "classify",
            (cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways),
            lambda: [
                classify_vectorized(
                    s.lines, s.writes,
                    n_sets=cfg.l1_sets, ways=cfg.l1_ways,
                )
                for s in streams
            ],
        )
        cache_stats = CacheStats()
        flush_writes = 0
        for cls in cls_list:
            cache_stats.merge(cls.stats)
            flush_writes += len(cls.flush_lines)
        # Routing only reads immutable geometry, so a throwaway memory
        # instance serves (the caller's StackedMemory carries run state).
        bundle = self._build_events(streams, cls_list, StackedMemory(cfg))
        return _PhaseA(
            bundle,
            (
                cache_stats.hits, cache_stats.misses,
                cache_stats.writebacks, cache_stats.flushes,
            ),
            flush_writes,
            len(streams),
        )

    def _phase_a(self, trace: InstructionTrace) -> _PhaseA:
        """The phase-A product, via the memo stack.

        Lookup order: in-process events memo on the trace, then the
        persistent cross-process store (when configured), then a fresh
        computation (which also populates the store).  All three paths
        yield the identical product — the store round-trips the exact
        float64/int64 arrays.
        """
        cfg = self.config
        key = _events_key(cfg)
        built = False

        def build() -> _PhaseA:
            nonlocal built
            built = True
            store = active_store()
            if store is None:
                return self._compute_phase_a(trace)
            skey = store_key(trace, key)
            data = store.get(skey)
            if data is not None:
                product = _decode_phase_a(
                    data, cfg.n_vaults * cfg.banks_per_vault, cfg.n_vaults
                )
                if product is not None:
                    return product
            product = self._compute_phase_a(trace)
            store.put(skey, _encode_phase_a(product))
            return product

        with metrics().timer("phase.simulate.classify"):
            product = _memo_lookup(trace, "events", key, build)
            if not built:
                _memo_touch(
                    trace, "streams",
                    (cfg.n_pes, cfg.issue_width, cfg.frequency_ghz,
                     cfg.line_bytes),
                )
                _memo_touch(
                    trace, "classify",
                    (cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways),
                )
            return product

    def _contend(
        self, bundle: _EventBundle, memory: StackedMemory
    ) -> np.ndarray:
        """Phase B for one point: packed finish times (empty if no misses).

        Runs the compiled kernel when it built, else the heapq loop.  The
        kernel starts from its own idle-memory state; nothing reads that
        state after the run (DRAM statistics are count-based and
        pre-credited in phase A), so it is not copied back.
        """
        if not bundle.n_packed:
            return np.empty(0, dtype=np.float64)
        cfg = self.config
        ooo = cfg.pe_type == "ooo"
        kernels = get_kernels()[0]
        if kernels is None:
            return _contend_python_bundle(
                bundle, memory,
                ooo=ooo, mshrs=cfg.mshr_entries, l1_cycle_ns=cfg.cycle_ns,
            )
        return kernels.contend(
            bundle.off, bundle.block, bundle.vault, bundle.bank,
            bundle.wblock, bundle.wvault, bundle.wbank,
            bundle.dnext, bundle.t0, bundle.tail,
            (
                memory._t_cl, memory._t_bl, memory._t_rp, memory._hop,
                memory._linger, memory._closed, memory._occupancy,
                memory._wr_extra, cfg.cycle_ns,
            ),
            ooo=ooo,
            mshrs=cfg.mshr_entries,
            n_banks=cfg.n_vaults * cfg.banks_per_vault,
            n_vaults=cfg.n_vaults,
        )


def _contend_python_bundle(
    bundle: _EventBundle,
    memory: StackedMemory,
    *,
    ooo: bool,
    mshrs: int,
    l1_cycle_ns: float,
) -> np.ndarray:
    """Phase-B contention loop in Python: the fallback when no C compiler
    builds the kernel.

    Operates on packed slots throughout.  The heap orders events by
    (time, slot); slot order equals original stream-index order because
    ``sidx`` is strictly increasing, so ties break identically to the
    per-access path's (time, stream index) order and the replay is
    bit-identical whichever indexing is used.
    """
    n = bundle.n_packed
    ev_lists = bundle.events_lists()
    t0 = bundle.t0.tolist()
    tails = bundle.tail.tolist()
    next_evt = [0] * n
    outstanding: list[list[float]] = [[] for _ in range(n)]
    finish_arr = np.empty(n, dtype=np.float64)
    # The per-miss loop below inlines the timing half of
    # StackedMemory.access (bank + vault bus, see dram/hmc.py);
    # routing and traffic counting were pre-computed vectorized
    # in phase A.  Every expression keeps the exact evaluation
    # order of the method, so the floats are identical; the two-phase
    # path never carries a hardware timeline (see simulate_batch), so
    # that branch is dropped.
    bus_ready = memory._bus_ready
    bank_ready = memory._bank_ready
    bank_row = memory._bank_row
    bank_until = memory._bank_until
    t_cl = memory._t_cl
    t_bl = memory._t_bl
    t_rp = memory._t_rp
    hop = memory._hop
    linger = memory._linger
    closed = memory._closed
    occupancy = memory._occupancy
    wr_extra = memory._wr_extra

    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    heap: list[tuple[float, int]] = []
    for slot in range(n):
        heappush(heap, (t0[slot], slot))
    # The heap is used peek-style: the root is the event being
    # processed, and it is only rewritten when the active stream
    # stops being globally next — one heapreplace per stream
    # switch instead of a pop + push per event.  The event order
    # is exactly the per-access path's (time, stream index)
    # order: a stream keeps the floor only while its next miss
    # precedes both heap children (the decrease-key invariant).
    inf = float("inf")
    while heap:
        t, i = heap[0]
        j = next_evt[i]
        ev_i = ev_lists[i]
        n_i = len(ev_i)
        out_i = outstanding[i]
        # The children of the root are invariant while this
        # stream keeps the floor, so the decrease-key bound is
        # computed once per activation.  With no other stream
        # pending the bound is +inf: run to completion.
        n_h = len(heap)
        if n_h > 1:
            child = heap[1]
            if n_h > 2 and heap[2] < child:
                child = heap[2]
            ct, ci = child
        else:
            ct, ci = inf, -1
        while True:
            block, vault, bi, wblk, wv, wbi, dnext = ev_i[j]
            # Miss access: the timing half of StackedMemory
            # .access, inlined (hottest path in the simulator).
            now = t + hop
            ready = bank_ready[bi]
            start = now if now > ready else ready
            open_row = bank_row[bi]
            row_open = open_row >= 0 and start <= bank_until[bi]
            if row_open and block == open_row:
                data_at = start + t_cl + t_bl
                bank_ready[bi] = start + t_bl
            else:
                pre = t_rp if row_open else 0.0
                data_at = start + pre + closed
                bank_ready[bi] = start + pre + occupancy
            bank_row[bi] = block
            bank_until[bi] = data_at + linger
            br = bus_ready[vault]
            if data_at - t_bl < br:
                data_at = br + t_bl
            bus_ready[vault] = data_at
            done = data_at + hop
            if not ooo:
                t = done + l1_cycle_ns
            else:
                heappush(out_i, done)
                if len(out_i) >= mshrs:
                    oldest = heappop(out_i)
                    t = max(t, oldest) + l1_cycle_ns
                else:
                    t += l1_cycle_ns
            if wbi >= 0:
                # Dirty-victim writeback: same inlined pipeline,
                # posted at the miss completion time.
                now = t + hop
                ready = bank_ready[wbi]
                start = now if now > ready else ready
                open_row = bank_row[wbi]
                row_open = (
                    open_row >= 0 and start <= bank_until[wbi]
                )
                if row_open and wblk == open_row:
                    data_at = start + t_cl + t_bl
                    bank_ready[wbi] = start + t_bl
                else:
                    pre = t_rp if row_open else 0.0
                    data_at = start + pre + closed
                    bank_ready[wbi] = start + pre + occupancy
                if wr_extra:
                    data_at += wr_extra
                    bank_ready[wbi] += wr_extra
                bank_row[wbi] = wblk
                bank_until[wbi] = data_at + linger
                br = bus_ready[wv]
                if data_at - t_bl < br:
                    data_at = br + t_bl
                bus_ready[wv] = data_at
            j += 1
            if j < n_i:
                tn = t + dnext
                # Decrease-key check: the root is this stream's
                # own (stale) entry, so (tn, i) may stay on the
                # floor as long as it precedes both children.
                if tn < ct or (tn == ct and i < ci):
                    t = tn
                    continue
                heapreplace(heap, (tn, i))
                break
            finish = t + tails[i]
            if out_i:
                finish = max(finish, max(out_i))
                out_i.clear()
            finish_arr[i] = finish
            heappop(heap)
            break
        next_evt[i] = j
    return finish_arr


def simulate(
    trace: InstructionTrace,
    config: NMCConfig | None = None,
    *,
    workload: str = "",
    parameters: Mapping[str, float] | None = None,
) -> SimulationResult:
    """Convenience wrapper: simulate ``trace`` on ``config`` (Table 3 default)."""
    return NMCSimulator(config).run(
        trace, workload=workload, parameters=parameters
    )


def simulate_reference(
    trace: InstructionTrace,
    config: NMCConfig | None = None,
    *,
    workload: str = "",
    parameters: Mapping[str, float] | None = None,
) -> SimulationResult:
    """The per-access golden oracle: one heap event per memory access,
    stepping the :class:`~repro.nmcsim.cache.Cache` model per access.

    Returns the same :class:`SimulationResult` as :func:`simulate`, bit
    for bit, only slower.  The equivalence tests and the simulator
    benchmark check the two-phase path against it, and hardware-timeline
    runs use it for their per-access events.
    """
    return NMCSimulator(config)._run_reference(trace, workload, parameters)


# ------------------------------------------------------- batched replay

#: Bucket bounds of the ``sim.batch.points_per_call`` histogram (batch
#: sizes, not latencies).
_BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _log_done(
    workload: str, path: str, result: SimulationResult, seconds: float | None
) -> None:
    log.debug(
        "simulation done",
        extra={"ctx": {
            "workload": workload or "(unnamed)",
            "path": path,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "seconds": round(seconds or 0.0, 3),
        }},
    )


def simulate_batch(
    points: Sequence[
        tuple[InstructionTrace, NMCConfig | None, str, Mapping[str, float] | None]
    ],
) -> list[SimulationResult]:
    """Simulate many design points; the simulator's one entry point.

    ``points`` holds ``(trace, config, workload, parameters)`` tuples
    (``config=None`` means the Table 3 default).  Results are returned
    in input order.  Points are independent (each replays against its
    own idle memory state), so the schedule never changes a result: it
    runs points sharing a trace, and then an architecture slice, back to
    back, so the per-trace memo LRUs stay warm however the caller
    ordered the sweep.

    Each point emits one ``phase.simulate`` span (with its
    ``phase.simulate.classify`` and ``phase.simulate.contend`` children)
    and one ``nmcsim.runs`` count; each call adds the ``sim.batch.*``
    counters and observes its summed contention seconds in the
    ``sim.batch.contend_s`` histogram.

    Hardware-timeline runs (``tracer().hw_enabled``) need one event per
    access, so they take the per-access path of
    :func:`simulate_reference` point by point instead.
    """
    if not points:
        return []
    if tracer().hw_enabled:
        return [
            simulate_reference(
                trace, cfg, workload=workload, parameters=parameters
            )
            for trace, cfg, workload, parameters in points
        ]
    sims: dict[int, NMCSimulator] = {}

    def sim_for(cfg: NMCConfig | None) -> NMCSimulator:
        sim = sims.get(id(cfg))
        if sim is None:
            sim = NMCSimulator(cfg)
            sims[id(cfg)] = sim
        return sim

    trace_rank: dict[int, int] = {}
    for trace, _cfg, _w, _p in points:
        trace_rank.setdefault(id(trace), len(trace_rank))

    def order_key(i: int):
        trace, cfg, _w, _p = points[i]
        c = sim_for(cfg).config
        return (
            trace_rank[id(trace)],
            (c.n_pes, c.line_bytes, c.l1_sets, c.l1_ways),
            _events_key(c),
            i,
        )

    m = metrics()
    contend_s = 0.0
    results: list[SimulationResult | None] = [None] * len(points)
    for i in sorted(range(len(points)), key=order_key):
        trace, cfg, workload, parameters = points[i]
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        sim = sim_for(cfg)
        with m.timer("phase.simulate") as span:
            memory = StackedMemory(sim.config)
            product = sim._phase_a(trace)
            bundle = product.bundle
            memory.add_counts(
                reads=bundle.n_reads,
                writes=bundle.n_writes,
                vault_counts=bundle.vault_counts,
            )
            with m.timer("phase.simulate.contend") as contend:
                finish = sim._contend(bundle, memory)
            contend_s += contend.elapsed_s or 0.0
            result = sim._finalize(
                trace, memory, product, finish, workload, parameters
            )
        results[i] = result
        m.inc("nmcsim.runs")
        _log_done(workload, "fast", result, span.elapsed_s)
    m.inc("sim.batch.calls")
    m.inc("sim.batch.points", len(points))
    m.observe(
        "sim.batch.points_per_call", float(len(points)),
        bounds=_BATCH_SIZE_BOUNDS,
    )
    m.observe("sim.batch.contend_s", contend_s)
    return results  # type: ignore[return-value]
