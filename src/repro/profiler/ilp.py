"""Instruction-level parallelism on an ideal machine (paper Table 1, "ILP").

The ideal machine has infinite functional units and perfect register
renaming: only read-after-write dependencies (through registers and through
memory) constrain scheduling.  ILP is the number of instructions divided by
the dependence-DAG critical-path length.

Besides the classic infinite-window ILP, windowed variants (the machine may
only look ahead ``w`` instructions; approximated by scheduling consecutive
chunks of ``w`` instructions independently and serialising the chunks) and
per-class dependence-chain ILP (integer, floating-point, memory) are
reported, mirroring PISA's ILP sub-features.

The depth pass runs in the compiled ``chunk_depths`` kernel
(:mod:`repro._native`) over the trace's numpy columns; without a C
compiler the pure-Python :func:`_chunk_depths` runs instead (it is also
the kernel's equivalence oracle).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..ir import InstructionTrace, Opcode
from .features import ILP_WINDOWS

#: Default cap on the number of instructions analysed; ILP converges quickly
#: for loop-dominated kernels, and the cap keeps profiling fast.
DEFAULT_SAMPLE_LIMIT = 15_000

_INT_CODES = frozenset(
    int(op) for op in (Opcode.IALU, Opcode.IMUL, Opcode.IDIV, Opcode.CMP)
)
_FP_CODES = frozenset(
    int(op) for op in (Opcode.FALU, Opcode.FMUL, Opcode.FDIV, Opcode.FMA)
)
_MEM_CODES = frozenset(
    int(op) for op in (Opcode.LOAD, Opcode.STORE, Opcode.ATOMIC)
)
_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ATOMIC = int(Opcode.ATOMIC)


#: Class bits of the compiled ``chunk_depths`` kernel (its ``K_*``).
_K_INT, _K_FP, _K_MEM, _K_LOAD, _K_STORE = 1, 2, 4, 8, 16


def _kind_table() -> np.ndarray:
    """Opcode -> class bits of the compiled ``chunk_depths`` kernel."""
    table = np.zeros(256, dtype=np.uint8)
    for codes, bit in (
        (_INT_CODES, _K_INT), (_FP_CODES, _K_FP), (_MEM_CODES, _K_MEM),
        ((_LOAD, _ATOMIC), _K_LOAD), ((_STORE, _ATOMIC), _K_STORE),
    ):
        for code in codes:
            table[code] |= bit
    return table


_KIND = _kind_table()


def _dense_ids(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` renumbered 0..k-1 in sorted order (negatives -> -1),
    and k: the kernel indexes flat level tables with them."""
    absent = values < 0
    uniq = np.unique(values[~absent])
    ids = np.searchsorted(uniq, values).astype(np.int64)
    ids[absent] = -1
    return ids, len(uniq)


def _chunk_depths(
    opcodes: list[int],
    dsts: list[int],
    src1s: list[int],
    src2s: list[int],
    lines: list[int],
    window: int | None,
) -> tuple[int, int, int, int]:
    """Total serialized DAG depth plus per-class chain depths.

    With ``window=None`` the whole stream is one chunk (infinite window).
    Returns (total_depth, int_chain, fp_chain, mem_chain).
    """
    n = len(opcodes)
    if n == 0:
        return 0, 0, 0, 0
    total_depth = 0
    int_chain = fp_chain = mem_chain = 0
    start = 0
    step = window if window else n
    while start < n:
        end = min(start + step, n)
        reg_level: dict[int, int] = {}
        store_level: dict[int, int] = {}
        # Per-class chain levels keyed by register.
        int_level: dict[int, int] = {}
        fp_level: dict[int, int] = {}
        depth = 0
        chunk_int = chunk_fp = chunk_mem = 0
        mem_serial = 0  # level of the last memory op chain within the chunk
        for i in range(start, end):
            op = opcodes[i]
            level = 0
            s1 = src1s[i]
            if s1 >= 0:
                level = reg_level.get(s1, 0)
            s2 = src2s[i]
            if s2 >= 0:
                l2 = reg_level.get(s2, 0)
                if l2 > level:
                    level = l2
            if op == _LOAD or op == _ATOMIC:
                line = lines[i]
                sl = store_level.get(line, 0)
                if sl > level:
                    level = sl
            level += 1
            if level > depth:
                depth = level
            d = dsts[i]
            if d >= 0:
                reg_level[d] = level
            if op == _STORE or op == _ATOMIC:
                store_level[lines[i]] = level
            # Per-class chains: an op extends the chain of its class if it
            # consumes a value produced by the same class.
            if op in _INT_CODES:
                cl = 0
                if s1 >= 0:
                    cl = int_level.get(s1, 0)
                if s2 >= 0:
                    cl = max(cl, int_level.get(s2, 0))
                cl += 1
                if d >= 0:
                    int_level[d] = cl
                if cl > chunk_int:
                    chunk_int = cl
            elif op in _FP_CODES:
                cl = 0
                if s1 >= 0:
                    cl = fp_level.get(s1, 0)
                if s2 >= 0:
                    cl = max(cl, fp_level.get(s2, 0))
                cl += 1
                if d >= 0:
                    fp_level[d] = cl
                if cl > chunk_fp:
                    chunk_fp = cl
            elif op in _MEM_CODES:
                # Memory chain: the deepest dependence level reached by a
                # memory op approximates the length of the address-dependence
                # chain feeding memory accesses (pointer chasing deepens it).
                if level > mem_serial:
                    mem_serial = level
        chunk_mem = min(depth, mem_serial)
        total_depth += depth
        int_chain += chunk_int
        fp_chain += chunk_fp
        mem_chain += chunk_mem
        start = end
    return total_depth, int_chain, fp_chain, mem_chain


def _depth_pass(
    trace: InstructionTrace, n: int, line_bytes: int
) -> Callable[[int | None], tuple[int, int, int, int]]:
    """``window -> (total, int, fp, mem)`` depths of the first ``n``
    instructions: the compiled kernel over the numpy columns, or
    :func:`_chunk_depths` over lists when no compiler built it."""
    from .._native import get_kernels  # at first use: see ir.stackdist

    shift = line_bytes.bit_length() - 1
    lines = trace.addr[:n] >> shift
    kernels = get_kernels()[0]
    if kernels is None:
        columns = (
            trace.opcode[:n].tolist(), trace.dst[:n].tolist(),
            trace.src1[:n].tolist(), trace.src2[:n].tolist(), lines.tolist(),
        )

        def python_depths(window: int | None) -> tuple[int, int, int, int]:
            return _chunk_depths(*columns, window=window)

        return python_depths

    regs, n_regs = _dense_ids(
        np.concatenate((trace.dst[:n], trace.src1[:n], trace.src2[:n]))
    )
    line_ids, n_lines = _dense_ids(lines)
    kind = _KIND[trace.opcode[:n]]

    def compiled_depths(window: int | None) -> tuple[int, int, int, int]:
        return kernels.chunk_depths(
            kind, regs[:n], regs[n:2 * n], regs[2 * n:], line_ids,
            n_regs=n_regs, n_lines=n_lines, window=window,
        )

    return compiled_depths


def ilp_features(
    trace: InstructionTrace,
    *,
    sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    line_bytes: int = 64,
) -> dict[str, float]:
    """ILP feature family: total, windowed, and per-class chain ILP."""
    n = min(len(trace), sample_limit)
    out: dict[str, float] = {}
    if n == 0:
        out["ilp.total"] = 0.0
        for w in ILP_WINDOWS:
            out[f"ilp.window_{w}"] = 0.0
        out["ilp.int_chain"] = 0.0
        out["ilp.fp_chain"] = 0.0
        out["ilp.mem_chain"] = 0.0
        return out

    depths = _depth_pass(trace, n, line_bytes)
    depth, int_chain, fp_chain, mem_chain = depths(None)
    out["ilp.total"] = n / depth if depth else 0.0

    kind = _KIND[trace.opcode[:n]]
    n_int, n_fp, n_mem = (
        int(np.count_nonzero(kind & bit)) for bit in (_K_INT, _K_FP, _K_MEM)
    )
    out["ilp.int_chain"] = n_int / int_chain if int_chain else 0.0
    out["ilp.fp_chain"] = n_fp / fp_chain if fp_chain else 0.0
    out["ilp.mem_chain"] = n_mem / mem_chain if mem_chain else 0.0

    for w in ILP_WINDOWS:
        d, _, _, _ = depths(w)
        out[f"ilp.window_{w}"] = n / d if d else 0.0
    return out
