"""LRU stack-distance kernels over reference streams.

The *reuse distance* (LRU stack distance) of an access is the number of
distinct elements touched since the previous access to the same element.
It is the canonical hardware-independent description of temporal locality
(Mattson's stack algorithm): a fully-associative LRU cache of capacity
``C`` hits exactly the accesses with reuse distance < ``C``, and a
set-associative LRU cache of ``W`` ways hits exactly the accesses whose
*per-set* reuse distance is < ``W``.

This module holds the shared kernels: :func:`reuse_distances` (the classic
Fenwick-tree formulation, O(M log M) over M accesses) and
:func:`grouped_reuse_distances`, its per-set generalisation used by the
profiler's locality features and by the vectorized L1 classifier of the
NMC simulator (:mod:`repro.nmcsim.classify`).

Both find each access's previous occurrence with one stable argsort and
run the Fenwick pass in the compiled ``stack_distances`` kernel
(:mod:`repro._native`).  Without a C compiler they run the pure-Python
loops :func:`_reuse_distances_python` (Fenwick tree, plus a
move-to-front list for small alphabets) and
:func:`_grouped_reuse_distances_python` instead -- the equivalence
oracles of the kernel, byte-identical by test.
"""

from __future__ import annotations

import numpy as np

#: Distance value used for cold (first-touch) accesses.
COLD_DISTANCE = -1


def _kernels():
    """The compiled kernels, or None on a host without a C compiler.

    Imported on first use rather than with :mod:`repro.ir`: pulling the
    kernel module's dependencies (ctypes, subprocess, hashlib) this
    early into ``import repro`` measurably raised the resident set of
    every process, including ones that never profile.
    """
    from .._native import get_kernels

    return get_kernels()[0]


def reuse_distances(keys: np.ndarray) -> np.ndarray:
    """Per-access LRU stack distances of a reference stream.

    Parameters
    ----------
    keys:
        Integer identifiers of the accessed elements (cache-line ids,
        program counters, ...), in access order.

    Returns
    -------
    ``int64`` array of the same length: number of distinct other elements
    accessed since the previous access to the same element, or
    :data:`COLD_DISTANCE` for first touches.
    """
    kernels = _kernels()
    if kernels is None:
        return _reuse_distances_python(keys)
    keys = np.asarray(keys)
    return kernels.stack_distances(_previous_occurrence(keys, None))


def _previous_occurrence(
    keys: np.ndarray, groups: np.ndarray | None
) -> np.ndarray:
    """Index of the previous access to the same key, -1 for first touches.

    A stable argsort lists each key's accesses in time order, so the
    previous occurrence of an access is its predecessor in sorted order
    when the keys match.  With ``groups`` (a stream already sorted by
    group, so each group is one contiguous block), an access only
    continues a same-key predecessor of its own group: one key's
    accesses in two groups are two elements.
    """
    n = len(keys)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    if groups is not None:
        same &= groups[order[1:]] == groups[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _reuse_distances_python(keys: np.ndarray) -> np.ndarray:
    """Pure-Python :func:`reuse_distances` (fallback and oracle)."""
    n = len(keys)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out

    # Fast path for small alphabets (instruction PC streams): an exact
    # move-to-front list — the stack distance of an access is simply the
    # key's position in the recency list.  O(n * |alphabet|) with small
    # constants beats the Fenwick tree up to a few hundred distinct keys.
    if len(np.unique(keys)) <= 512:
        recency: list[int] = []
        index = recency.index
        remove = recency.remove
        insert = recency.insert
        for t, key in enumerate(keys.tolist()):
            try:
                pos = index(key)
            except ValueError:
                out[t] = COLD_DISTANCE
            else:
                out[t] = pos
                remove(key)
            insert(0, key)
        return out

    # Fenwick tree over access-time slots; tree[t] counts elements whose
    # most recent access was at time t.
    tree = [0] * (n + 1)

    def update(pos: int, delta: int) -> None:
        pos += 1
        while pos <= n:
            tree[pos] += delta
            pos += pos & (-pos)

    def prefix(pos: int) -> int:
        # sum of slots [0, pos]
        pos += 1
        s = 0
        while pos > 0:
            s += tree[pos]
            pos -= pos & (-pos)
        return s

    last_seen: dict[int, int] = {}
    keys_list = keys.tolist()
    for t, key in enumerate(keys_list):
        prev = last_seen.get(key)
        if prev is None:
            out[t] = COLD_DISTANCE
        else:
            # Distinct elements accessed strictly between prev and t.
            out[t] = prefix(t - 1) - prefix(prev)
            update(prev, -1)
        update(t, +1)
        last_seen[key] = t
    return out


def lru_hit_mask(
    keys: np.ndarray, groups: np.ndarray, ways: int
) -> np.ndarray:
    """Hit mask of a ``ways``-way set-associative LRU cache.

    Mattson's inclusion property turned into a classifier: access ``t``
    hits if and only if its per-group (per-set) stack distance is a real
    reuse (not :data:`COLD_DISTANCE`) and smaller than the associativity.
    This is the exact hit/miss oracle for *any* ``ways`` — the NMC
    simulator's phase-A classifier builds on it
    (:mod:`repro.nmcsim.classify`).
    """
    if ways < 1:
        raise ValueError("ways must be >= 1")
    dist = grouped_reuse_distances(keys, groups)
    return (dist != COLD_DISTANCE) & (dist < ways)


def grouped_reuse_distances(
    keys: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Stack distances computed independently within each group.

    ``groups[t]`` assigns access ``t`` to a group (e.g. a cache set index);
    the distance of an access only counts distinct elements of the *same
    group* touched since the previous same-element access.  This is the
    per-set stream view of a set-associative cache: a ``W``-way LRU cache
    hits exactly the accesses with grouped distance < ``W``.

    Returns an ``int64`` array aligned with ``keys`` (order preserved).
    """
    keys = np.asarray(keys)
    groups = np.asarray(groups)
    if keys.shape != groups.shape:
        raise ValueError("keys and groups must have the same shape")
    kernels = _kernels()
    if kernels is None:
        return _grouped_reuse_distances_python(keys, groups)
    # Stable sort by group keeps the access order within every group, so
    # each contiguous block is one group's sub-stream, and the Fenwick
    # pass over the concatenated blocks only counts same-group elements
    # between an access and its (same-group) previous occurrence.
    order = np.argsort(groups, kind="stable")
    out = np.empty(len(keys), dtype=np.int64)
    out[order] = kernels.stack_distances(
        _previous_occurrence(keys[order], groups[order])
    )
    return out


def _grouped_reuse_distances_python(
    keys: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Pure-Python :func:`grouped_reuse_distances` (fallback and oracle):
    one :func:`_reuse_distances_python` call per group."""
    out = np.empty(len(keys), dtype=np.int64)
    if len(keys) == 0:
        return out
    if (groups == groups[0]).all():
        out[:] = _reuse_distances_python(keys)
        return out
    # Stable sort by group keeps the access order within every group, so
    # each contiguous block is one group's sub-stream.
    order = np.argsort(groups, kind="stable")
    grouped = groups[order]
    starts = np.flatnonzero(
        np.concatenate(([True], grouped[1:] != grouped[:-1]))
    )
    bounds = np.concatenate((starts, [len(keys)]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[order[lo:hi]] = _reuse_distances_python(keys[order[lo:hi]])
    return out
