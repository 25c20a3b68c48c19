"""Vectorized L1 classification (phase A of the NMC simulator).

The classic stack-distance result behind the profiler's locality features
(:mod:`repro.ir.stackdist`) also makes L1 simulation *data-parallel*: a
``W``-way set-associative LRU cache hits exactly the accesses whose
per-set reuse distance is < ``W``, independent of timing.  Hit/miss
classification, eviction victims, dirty tracking and the end-of-kernel
flush set are therefore properties of the access *stream alone* and can
be computed up front as arrays — leaving only the (typically small) miss
and writeback event set for the exact global-time contention loop
(phase B, :mod:`repro.nmcsim.simulator`).

:func:`classify_vectorized` is exact for **any** associativity:

* the access stream is grouped per set and deduplicated into runs
  (adjacent repeats of one line are distance-0 hits);
* ``ways <= 2`` keep closed-form hit/victim expressions on the run
  stream (distance-1 hits are ``y[i] == y[i-2]`` patterns, and the LRU
  victim is always ``y[i-2]``);
* general ``ways`` derive the hit mask from Mattson's inclusion property
  via the per-set stack-distance kernel
  (:func:`repro.ir.stackdist.lru_hit_mask`) and attribute eviction
  victims with an O(1)-per-run recency-list walk (the list holds exactly
  the resident runs of each set, most recent first, so the victim of an
  evicting miss is the set's tail);
* dirty state is a segmented any-write scan between allocating misses,
  shared by every associativity >= 2.

:func:`classify_steps` — the step-wise :class:`~repro.nmcsim.cache.Cache`
walk — remains as the independent golden oracle the vectorized paths are
tested against; the simulator itself never falls back to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir.stackdist import lru_hit_mask
from .cache import Cache, CacheStats


@dataclass(frozen=True)
class LRUClassification:
    """Per-access outcome arrays of one PE stream against one L1 geometry.

    ``hit[k]`` tells whether memory op ``k`` hits; ``wb_line[k]`` is the
    line address of the dirty victim evicted by op ``k`` (-1 when the op
    hits, misses without eviction, or evicts a clean line).
    ``flush_lines`` holds the dirty lines still resident at kernel end
    (each flushed back exactly once), and ``stats`` matches the
    step-wise :class:`Cache` counters *after* its end-of-kernel
    :meth:`~repro.nmcsim.cache.Cache.flush`.
    """

    hit: np.ndarray
    wb_line: np.ndarray
    flush_lines: np.ndarray
    stats: CacheStats

    @property
    def n_misses(self) -> int:
        return self.stats.misses


def _finish_stats(
    hit: np.ndarray, wb_line: np.ndarray, flush_lines: np.ndarray
) -> CacheStats:
    """Reconcile the arrays into post-flush :class:`CacheStats`."""
    hits = int(hit.sum())
    flushes = len(flush_lines)
    return CacheStats(
        hits=hits,
        misses=len(hit) - hits,
        writebacks=int((wb_line >= 0).sum()) + flushes,
        flushes=flushes,
    )


def classify_steps(
    lines: np.ndarray, writes: np.ndarray, *, n_sets: int, ways: int
) -> LRUClassification:
    """Exact step-wise classification via the :class:`Cache` model."""
    cache = Cache(n_lines=n_sets * ways, ways=ways)
    hit, wb_line = cache.classify(lines, writes)
    flush_lines = cache.dirty_lines()
    cache.flush()
    return LRUClassification(hit, wb_line, flush_lines, cache.stats)


def _dirty_after(
    g: np.ndarray, gw: np.ndarray, hit_g: np.ndarray
) -> np.ndarray:
    """Dirty state of each access's line right after the access.

    Write-allocate write-back semantics: a line is dirty iff it has been
    written since (and including) its allocating miss.  Segmenting the
    per-line access history at misses makes this a cumulative-sum scan:
    stable-sorting by line groups each line's accesses in order, and
    every miss starts a new segment (a line's first access is always a
    miss, so line boundaries coincide with segment starts).  Only needs
    the hit mask, so it works for every associativity.
    """
    n = len(g)
    order2 = np.argsort(g, kind="stable")
    h2 = hit_g[order2]
    w2 = gw[order2].astype(np.int64)
    seg_first = np.flatnonzero(~h2)
    seg_id = np.cumsum(~h2) - 1
    cw = np.cumsum(w2)
    base = (cw - w2)[seg_first]
    dirty_after = np.empty(n, dtype=bool)
    dirty_after[order2] = (cw - base[seg_id]) > 0
    return dirty_after


def classify_vectorized(
    lines: np.ndarray, writes: np.ndarray, *, n_sets: int, ways: int
) -> LRUClassification:
    """Exact LRU classification for any ``(n_sets, ways)`` geometry."""
    if ways < 1 or n_sets < 1:
        raise ValueError("cache geometry needs >= 1 way and >= 1 set")
    n = len(lines)
    lines = np.asarray(lines, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return LRUClassification(
            np.empty(0, dtype=bool), empty, empty, CacheStats()
        )

    # Group accesses into per-set sub-streams (stable sort keeps the
    # access order inside every set, matching Cache's set indexing).
    if n_sets > 1:
        set_id = lines % n_sets
        order = np.argsort(set_id, kind="stable")
        g, gw, gs = lines[order], writes[order], set_id[order]
    else:
        order = None
        g, gw = lines, writes
        gs = np.zeros(n, dtype=np.int64)
    same_set = np.empty(n, dtype=bool)
    same_set[0] = False
    np.equal(gs[1:], gs[:-1], out=same_set[1:])

    # Distance-0 hits: immediate repeats of the same line within a set.
    # The runs they form are the dedup'd (adjacent-distinct) per-set
    # stream y = run_line, on which everything else is computed.
    dist0 = np.empty(n, dtype=bool)
    dist0[0] = False
    dist0[1:] = same_set[1:] & (g[1:] == g[:-1])
    run_starts = np.flatnonzero(~dist0)
    n_runs = len(run_starts)
    run_line = g[run_starts]
    run_set = gs[run_starts]
    run_end = np.empty(n_runs, dtype=np.int64)
    run_end[:-1] = run_starts[1:] - 1
    run_end[-1] = n - 1
    prev1_same = np.empty(n_runs, dtype=bool)
    prev1_same[0] = False
    prev1_same[1:] = run_set[1:] == run_set[:-1]
    last_of_set = np.empty(n_runs, dtype=bool)
    last_of_set[-1] = True
    last_of_set[:-1] = run_set[1:] != run_set[:-1]

    hit_g = dist0.copy()
    wb_g = np.full(n, -1, dtype=np.int64)

    if ways == 1:
        # Direct-mapped: every run start is a miss; it evicts the
        # previous run's line of the same set; a line's residency is
        # exactly one run, so dirty == any write in the run.
        run_dirty = np.add.reduceat(gw.astype(np.int64), run_starts) > 0
        evict = np.flatnonzero(prev1_same)  # runs with a same-set victim
        victims = evict - 1
        dirty_victims = evict[run_dirty[victims]]
        wb_g[run_starts[dirty_victims]] = run_line[dirty_victims - 1]
        flush_lines = run_line[last_of_set & run_dirty]
    elif ways == 2:
        # 2-way: distance-1 hits are y[i] == y[i-2] in the dedup'd
        # stream; a miss with two same-set predecessors evicts y[i-2]
        # (always the LRU of the two residents).
        prev2_same = np.empty(n_runs, dtype=bool)
        prev2_same[:2] = False
        prev2_same[2:] = prev1_same[2:] & prev1_same[1:-1]
        hit1 = np.zeros(n_runs, dtype=bool)
        hit1[2:] = prev2_same[2:] & (run_line[2:] == run_line[:-2])
        hit_g[run_starts[hit1]] = True

        dirty_after = _dirty_after(g, gw, hit_g)

        evict = np.flatnonzero(~hit1 & prev2_same)
        victims = evict - 2
        # Victim dirty state at eviction == its state after its own last
        # access (it is untouched between that access and the miss).
        dirty_mask = dirty_after[run_end[victims]]
        wb_g[run_starts[evict[dirty_mask]]] = run_line[victims[dirty_mask]]

        # End-of-kernel residents per set: the lines of the last two
        # runs of each set block (adjacent-distinct, hence distinct).
        last_runs = np.flatnonzero(last_of_set)
        penult = last_runs[prev1_same[last_runs]] - 1
        residents = np.concatenate((last_runs, penult))
        flush_lines = run_line[residents[dirty_after[run_end[residents]]]]
    else:
        # General associativity.  The hit mask comes straight from
        # Mattson: a run hits iff its per-set stack distance on the
        # dedup'd stream is < ways (dedup preserves distances — repeats
        # add no distinct lines).
        hit_runs = lru_hit_mask(run_line, run_set, ways)
        hit_g[run_starts[hit_runs]] = True
        dirty_after = _dirty_after(g, gw, hit_g)

        # Victim attribution: per set, keep the residents as a recency
        # list of run indices (most recent first) threaded through
        # ``fwd``/``bwd`` link arrays.  A hit moves its line's entry —
        # which is exactly the line's previous run in the set — to the
        # front; a miss pushes a new entry and, when the set exceeds
        # ``ways`` residents, evicts the tail (the LRU resident).  Each
        # run does O(1) pointer work, so the walk is linear.
        prev_occ = np.full(n_runs, -1, dtype=np.int64)
        seen: dict[int, int] = {}
        run_line_l = run_line.tolist()
        run_set_l = run_set.tolist()
        for r, ln in enumerate(run_line_l):
            key = ln  # one line maps to one set; the line is the key
            p = seen.get(key, -1)
            prev_occ[r] = p
            seen[key] = r
        prev_occ_l = prev_occ.tolist()
        hit_runs_l = hit_runs.tolist()

        fwd = [-1] * n_runs  # next-less-recent run in the set's list
        bwd = [-1] * n_runs  # next-more-recent run in the set's list
        heads: dict[int, int] = {}
        tails: dict[int, int] = {}
        sizes: dict[int, int] = {}
        victim_of = np.full(n_runs, -1, dtype=np.int64)
        for r in range(n_runs):
            si = run_set_l[r]
            if hit_runs_l[r]:
                # Unlink the line's previous entry.
                p = prev_occ_l[r]
                pb, pf = bwd[p], fwd[p]
                if pb >= 0:
                    fwd[pb] = pf
                else:
                    heads[si] = pf
                if pf >= 0:
                    bwd[pf] = pb
                else:
                    tails[si] = pb
            else:
                size = sizes.get(si, 0)
                if size >= ways:
                    # Evict the LRU resident: the tail of the list.
                    v = tails[si]
                    victim_of[r] = v
                    vb = bwd[v]
                    tails[si] = vb
                    if vb >= 0:
                        fwd[vb] = -1
                    else:
                        heads[si] = -1
                else:
                    sizes[si] = size + 1
            # Push this run at the front.
            h = heads.get(si, -1)
            fwd[r] = h
            bwd[r] = -1
            if h >= 0:
                bwd[h] = r
            else:
                tails[si] = r
            heads[si] = r

        evict = np.flatnonzero(victim_of >= 0)
        victims = victim_of[evict]
        dirty_mask = dirty_after[run_end[victims]]
        wb_g[run_starts[evict[dirty_mask]]] = run_line[victims[dirty_mask]]

        # End-of-kernel residents: whatever remains on the recency lists.
        residents_l: list[int] = []
        for si, h in heads.items():
            r = h
            while r >= 0:
                residents_l.append(r)
                r = fwd[r]
        residents = np.asarray(residents_l, dtype=np.int64)
        if len(residents):
            flush_lines = run_line[
                residents[dirty_after[run_end[residents]]]
            ]
        else:
            flush_lines = empty

    if order is not None:
        hit = np.empty(n, dtype=bool)
        wb_line = np.empty(n, dtype=np.int64)
        hit[order] = hit_g
        wb_line[order] = wb_g
    else:
        hit, wb_line = hit_g, wb_g
    return LRUClassification(
        hit, wb_line, np.sort(flush_lines), _finish_stats(hit, wb_line, flush_lines)
    )
