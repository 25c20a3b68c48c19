"""The compiled kernels: phase-1 profiling loops and phase-B contention.

Three interpreter-bound loops run as C over flat numpy arrays:

* ``stack_distances`` -- the Fenwick-tree pass of Mattson's stack
  algorithm over each access's previous-occurrence index; it serves
  :func:`repro.ir.stackdist.reuse_distances` (profiler data and
  instruction streams) and :func:`~repro.ir.stackdist.grouped_reuse_distances`
  (the simulator's set-associative hit oracle);
* ``chunk_depths`` -- the ideal-machine dependence-DAG depths behind the
  profiler's ILP features (:mod:`repro.profiler.ilp`);
* ``contend_packed`` -- phase B of the simulator
  (:mod:`repro.nmcsim.simulator`), which replays the miss/writeback event
  stream through a global-time heap over *packed* arrays (all streams'
  events concatenated, offset-indexed).

The source below is compiled on first use with the system C compiler
(``-O2 -fPIC -shared -ffp-contract=off``) into a source-hash-keyed
shared object under a cache directory (``$REPRO_SIM_JIT_CACHE``, default
``<tmp>/repro-simjit-<uid>``, created mode 0700) and loaded with
:mod:`ctypes`.  A directory or object that is not this user's (or
root's), or that group/others can write, is refused.  A cached object
loads in about a millisecond; a cold build costs a fraction of a second
once per source hash.

When no compiler is found, the build fails or the cache is refused,
:func:`get_kernels` returns ``(None, None)`` after logging one warning,
and every caller runs its Python loop instead (the stack-distance and
chunk-depth functions, the simulator's heapq loop).  Those loops are also
the equivalence oracles of the kernels.

Bit-equivalence contract: the profiler kernels are integer-only, and
every floating-point expression of ``contend_packed`` keeps the exact
operation order of the heapq loop (and of ``StackedMemory.access``).  C
``double`` and CPython ``float`` are both IEEE-754 binary64, and
``-ffp-contract=off`` forbids FMA contraction, so the kernels produce
byte-identical results -- this is asserted by the equivalence suites,
not assumed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from .obs import get_logger

log = get_logger("repro.native")

#: Environment variable selecting the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_SIM_JIT_CACHE"


_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

typedef int64_t i64;

/*
 * LRU stack distances from previous-occurrence indices: prev[t] is the
 * last access before t to the same element (-1 for a first touch).
 * tree is a caller-zeroed Fenwick tree of n + 1 slots counting, per
 * access time, the elements whose most recent access was then; the
 * distance of a reuse is the live slots strictly between prev[t] and t.
 */
void stack_distances(const i64 *prev, i64 n, i64 *tree, i64 *out)
{
    i64 live = 0;
    for (i64 t = 0; t < n; t++) {
        i64 p = prev[t];
        if (p < 0) {
            out[t] = -1;
        } else {
            i64 s = 0;
            for (i64 k = p + 1; k > 0; k -= k & -k) s += tree[k];
            out[t] = live - s;
            for (i64 k = p + 1; k <= n; k += k & -k) tree[k]--;
            live--;
        }
        for (i64 k = t + 1; k <= n; k += k & -k) tree[k]++;
        live++;
    }
}

/* kind[] bits of chunk_depths (one byte per instruction). */
#define K_INT 1        /* integer class chain */
#define K_FP 2         /* floating-point class chain */
#define K_MEM 4        /* memory class */
#define K_LOAD 8       /* reads the store level of its line */
#define K_STORE 16     /* sets the store level of its line */

/*
 * Serialized dependence-DAG depth of consecutive window-sized chunks
 * (window <= 0: one chunk) plus the per-class chain depths, as
 * out[0..3] = (total, int, fp, mem).  Registers and lines are dense ids
 * (reg < 0: none); each level table entry is valid only while its gen
 * stamp equals the current chunk, which clears the tables per chunk.
 * Caller-allocated tables: reg_* / int_* / fp_* of n_regs entries and
 * st_* of n_lines entries, every gen stamp initialised to -1.
 */
void chunk_depths(
    const uint8_t *kind, const i64 *dst, const i64 *src1, const i64 *src2,
    const i64 *line, i64 n, i64 window,
    i64 *reg_level, i64 *reg_gen, i64 *int_level, i64 *int_gen,
    i64 *fp_level, i64 *fp_gen, i64 *st_level, i64 *st_gen, i64 *out)
{
    i64 total = 0, int_chain = 0, fp_chain = 0, mem_chain = 0;
    i64 step = window > 0 ? window : n;
    i64 gen = 0;
    for (i64 start = 0; start < n; start += step, gen++) {
        i64 end = start + step < n ? start + step : n;
        i64 depth = 0, c_int = 0, c_fp = 0, mem_serial = 0;
        for (i64 i = start; i < end; i++) {
            int k = kind[i];
            i64 s1 = src1[i], s2 = src2[i], d = dst[i];
            i64 level = 0;
            if (s1 >= 0 && reg_gen[s1] == gen) level = reg_level[s1];
            if (s2 >= 0 && reg_gen[s2] == gen && reg_level[s2] > level)
                level = reg_level[s2];
            if (k & K_LOAD) {
                i64 ln = line[i];
                if (st_gen[ln] == gen && st_level[ln] > level)
                    level = st_level[ln];
            }
            level++;
            if (level > depth) depth = level;
            if (d >= 0) { reg_level[d] = level; reg_gen[d] = gen; }
            if (k & K_STORE) {
                i64 ln = line[i];
                st_level[ln] = level;
                st_gen[ln] = gen;
            }
            if (k & (K_INT | K_FP)) {
                i64 *lv = (k & K_INT) ? int_level : fp_level;
                i64 *lg = (k & K_INT) ? int_gen : fp_gen;
                i64 cl = 0;
                if (s1 >= 0 && lg[s1] == gen) cl = lv[s1];
                if (s2 >= 0 && lg[s2] == gen && lv[s2] > cl) cl = lv[s2];
                cl++;
                if (d >= 0) { lv[d] = cl; lg[d] = gen; }
                if (k & K_INT) { if (cl > c_int) c_int = cl; }
                else if (cl > c_fp) c_fp = cl;
            } else if (k & K_MEM) {
                if (level > mem_serial) mem_serial = level;
            }
        }
        total += depth;
        int_chain += c_int;
        fp_chain += c_fp;
        mem_chain += depth < mem_serial ? depth : mem_serial;
    }
    out[0] = total;
    out[1] = int_chain;
    out[2] = fp_chain;
    out[3] = mem_chain;
}

static void sift_down(double *ht, i64 *hi, i64 n, i64 k) {
    double t = ht[k];
    i64 v = hi[k];
    for (;;) {
        i64 c = 2 * k + 1;
        if (c >= n) break;
        if (c + 1 < n && (ht[c + 1] < ht[c] ||
                          (ht[c + 1] == ht[c] && hi[c + 1] < hi[c]))) c++;
        if (ht[c] < t || (ht[c] == t && hi[c] < v)) {
            ht[k] = ht[c];
            hi[k] = hi[c];
            k = c;
        } else break;
    }
    ht[k] = t;
    hi[k] = v;
}

/*
 * One entry per miss event, streams concatenated with ``off`` bounds;
 * wbank < 0 marks clean evictions.  finish receives each packed stream's
 * completion time; heap_t/heap_i/pos/mshr_* are caller-allocated
 * scratch.  Event order and FP evaluation order are exactly the heapq
 * loop's: a (time, stream) min-heap used peek-style, whose root's
 * decrease-key bound is the heap's second minimum -- in a binary heap
 * always one of the root's two children, so the bound (and hence the
 * event order) does not depend on the heap's internal layout.
 */
void contend_packed(
    const i64 *off,
    const i64 *block, const i64 *vault, const i64 *bank,
    const i64 *wblock, const i64 *wvault, const i64 *wbank,
    const double *dnext, const double *t0, const double *tail,
    double *finish,
    double *bank_ready, i64 *bank_row, double *bank_until,
    double *bus_ready,
    double t_cl, double t_bl, double t_rp, double hop,
    double linger, double closed, double occupancy, double wr_extra,
    double l1_cycle,
    i64 ooo, i64 mshrs, double *mshr_buf, i64 *mshr_len,
    double *heap_t, i64 *heap_i, i64 *pos, i64 n_streams)
{
    i64 heap_n = n_streams;
    for (i64 i = 0; i < n_streams; i++) {
        heap_t[i] = t0[i];
        heap_i[i] = i;
        pos[i] = off[i];
        mshr_len[i] = 0;
    }
    for (i64 k = heap_n / 2 - 1; k >= 0; k--)
        sift_down(heap_t, heap_i, heap_n, k);

    while (heap_n > 0) {
        double t = heap_t[0];
        i64 i = heap_i[0];
        i64 j = pos[i];
        i64 end = off[i + 1];
        double *mbuf = mshr_buf + i * mshrs;
        i64 mlen = mshr_len[i];
        double ct;
        i64 ci;
        if (heap_n > 1) {
            i64 c = 1;
            if (heap_n > 2 && (heap_t[2] < heap_t[1] ||
                               (heap_t[2] == heap_t[1] &&
                                heap_i[2] < heap_i[1]))) c = 2;
            ct = heap_t[c];
            ci = heap_i[c];
        } else {
            ct = INFINITY;
            ci = -1;
        }
        for (;;) {
            i64 blk = block[j];
            i64 v = vault[j];
            i64 bi = bank[j];
            double now = t + hop;
            double ready = bank_ready[bi];
            double start = now > ready ? now : ready;
            i64 open_row = bank_row[bi];
            int row_open = open_row >= 0 && start <= bank_until[bi];
            double data_at;
            if (row_open && blk == open_row) {
                data_at = start + t_cl + t_bl;
                bank_ready[bi] = start + t_bl;
            } else {
                double pre = row_open ? t_rp : 0.0;
                data_at = start + pre + closed;
                bank_ready[bi] = start + pre + occupancy;
            }
            bank_row[bi] = blk;
            bank_until[bi] = data_at + linger;
            double br = bus_ready[v];
            if (data_at - t_bl < br) data_at = br + t_bl;
            bus_ready[v] = data_at;
            double done = data_at + hop;
            if (!ooo) {
                t = done + l1_cycle;
            } else {
                i64 k = mlen++;
                while (k > 0) {
                    i64 p = (k - 1) / 2;
                    if (done < mbuf[p]) { mbuf[k] = mbuf[p]; k = p; }
                    else break;
                }
                mbuf[k] = done;
                if (mlen >= mshrs) {
                    double oldest = mbuf[0];
                    mlen--;
                    if (mlen > 0) {
                        double last = mbuf[mlen];
                        k = 0;
                        for (;;) {
                            i64 c = 2 * k + 1;
                            if (c >= mlen) break;
                            if (c + 1 < mlen && mbuf[c + 1] < mbuf[c]) c++;
                            if (mbuf[c] < last) { mbuf[k] = mbuf[c]; k = c; }
                            else break;
                        }
                        mbuf[k] = last;
                    }
                    t = (t >= oldest ? t : oldest) + l1_cycle;
                } else {
                    t = t + l1_cycle;
                }
            }
            i64 wbi = wbank[j];
            if (wbi >= 0) {
                i64 wblk = wblock[j];
                i64 wv = wvault[j];
                now = t + hop;
                ready = bank_ready[wbi];
                start = now > ready ? now : ready;
                open_row = bank_row[wbi];
                row_open = open_row >= 0 && start <= bank_until[wbi];
                if (row_open && wblk == open_row) {
                    data_at = start + t_cl + t_bl;
                    bank_ready[wbi] = start + t_bl;
                } else {
                    double pre = row_open ? t_rp : 0.0;
                    data_at = start + pre + closed;
                    bank_ready[wbi] = start + pre + occupancy;
                }
                if (wr_extra != 0.0) {
                    /* posted-write asymmetry (NAND-class backends) */
                    data_at = data_at + wr_extra;
                    bank_ready[wbi] = bank_ready[wbi] + wr_extra;
                }
                bank_row[wbi] = wblk;
                bank_until[wbi] = data_at + linger;
                br = bus_ready[wv];
                if (data_at - t_bl < br) data_at = br + t_bl;
                bus_ready[wv] = data_at;
            }
            double dn = dnext[j];
            j++;
            if (j < end) {
                double tn = t + dn;
                if (tn < ct || (tn == ct && i < ci)) { t = tn; continue; }
                pos[i] = j;
                mshr_len[i] = mlen;
                heap_t[0] = tn;
                heap_i[0] = i;
                sift_down(heap_t, heap_i, heap_n, 0);
                break;
            }
            double fin = t + tail[i];
            for (i64 q = 0; q < mlen; q++)
                if (mbuf[q] > fin) fin = mbuf[q];
            mshr_len[i] = 0;
            finish[i] = fin;
            heap_n--;
            if (heap_n > 0) {
                heap_t[0] = heap_t[heap_n];
                heap_i[0] = heap_i[heap_n];
                sift_down(heap_t, heap_i, heap_n, 0);
            }
            break;
        }
    }
}
"""


def _cache_dir() -> str:
    """The shared-object cache directory, created private (mode 0700).

    The default is per user (``<tmp>/repro-simjit-<uid>``), so users of
    a shared host never share one.  Loading an object runs its code, so
    :func:`_require_private` vets the directory before anything in it is
    built or loaded.
    """
    default = "repro-simjit"
    if hasattr(os, "getuid"):
        default += f"-{os.getuid()}"
    path = os.environ.get(CACHE_ENV_VAR, "").strip() or os.path.join(
        tempfile.gettempdir(), default
    )
    os.makedirs(path, mode=0o700, exist_ok=True)
    _require_private(path)
    return path


def _require_private(path: str) -> None:
    """Refuse a path another user could have planted or may rewrite:
    it must be owned by this user (or root) and not group/other
    writable.  Raises PermissionError otherwise."""
    if not hasattr(os, "getuid"):
        return
    st = os.stat(path)
    if st.st_uid not in (os.getuid(), 0) or st.st_mode & 0o022:
        raise PermissionError(
            f"{path} is owned by uid {st.st_uid} with mode "
            f"{oct(st.st_mode & 0o777)}; need this user's and not "
            f"group/other writable"
        )


def _ptr(arr: np.ndarray, dtype: type) -> int:
    """Address of a C-contiguous ``dtype`` array (anything else would
    be misread by the kernel, so it is refused)."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(
            f"C kernel needs a contiguous {np.dtype(dtype)} array, "
            f"got {arr.dtype} (contiguous={arr.flags.c_contiguous})"
        )
    return arr.ctypes.data


class Kernels(NamedTuple):
    """Python entry points of the loaded kernels (see :func:`_bind`)."""

    stack_distances: Callable[[np.ndarray], np.ndarray]
    chunk_depths: Callable[..., tuple[int, int, int, int]]
    contend: Callable[..., np.ndarray]


def _bind(lib: ctypes.CDLL) -> Kernels:
    """The Python entry points of the loaded kernels."""
    ptr, f64, i64 = ctypes.c_void_p, ctypes.c_double, ctypes.c_int64
    i, f = np.int64, np.float64

    sd = lib.stack_distances
    sd.restype = None
    sd.argtypes = [ptr, i64, ptr, ptr]

    def stack_distances(prev: np.ndarray) -> np.ndarray:
        """LRU stack distance of every access (-1 for first touches).

        ``prev[t]`` is the index of the previous access to the same
        element, or -1; ``-1 <= prev[t] < t`` is the caller's contract.
        """
        n = len(prev)
        out = np.empty(n, dtype=np.int64)
        tree = np.zeros(n + 1, dtype=np.int64)
        sd(_ptr(prev, i), n, _ptr(tree, i), _ptr(out, i))
        return out

    cd = lib.chunk_depths
    cd.restype = None
    cd.argtypes = [ptr] * 5 + [i64, i64] + [ptr] * 9

    def chunk_depths(
        kind, dst, src1, src2, line, *, n_regs: int, n_lines: int,
        window: int | None,
    ) -> tuple[int, int, int, int]:
        """``(total, int, fp, mem)`` dependence depths of the stream.

        ``kind`` holds the per-instruction class bits of the C source;
        ``dst``/``src1``/``src2`` are dense register ids below
        ``n_regs`` (negative: none) and ``line`` dense line ids below
        ``n_lines`` -- the caller's contract.  ``window=None`` analyses
        the stream as one chunk.
        """
        n = len(kind)
        if not len(dst) == len(src1) == len(src2) == len(line) == n:
            raise ValueError("chunk_depths columns differ in length")
        tables: list[np.ndarray] = []
        for size in (n_regs, n_regs, n_regs, n_lines):  # reg, int, fp, st
            tables += [
                np.empty(size, dtype=np.int64),  # level
                np.full(size, -1, dtype=np.int64),  # gen stamp
            ]
        out = np.zeros(4, dtype=np.int64)
        cd(
            _ptr(kind, np.uint8), _ptr(dst, i), _ptr(src1, i),
            _ptr(src2, i), _ptr(line, i), n, window or 0,
            *(_ptr(t, i) for t in tables), _ptr(out, i),
        )
        total, int_chain, fp_chain, mem_chain = out.tolist()
        return total, int_chain, fp_chain, mem_chain

    fn = lib.contend_packed
    fn.restype = None
    fn.argtypes = [ptr] * 15 + [f64] * 9 + [i64, i64] + [ptr] * 5 + [i64]

    def contend(
        off, block, vault, bank, wblock, wvault, wbank, dnext, t0, tail,
        timing, *, ooo: bool, mshrs: int, n_banks: int, n_vaults: int,
    ) -> np.ndarray:
        """Replay one design point's packed streams against idle memory.

        ``timing`` holds the nine float parameters in the C signature's
        order (``t_cl`` ... ``l1_cycle``).  Returns each packed stream's
        finish time.  Index bounds are the caller's contract: bundles
        are built by phase A or vetted when decoded from the memo store.
        """
        n = len(off) - 1
        finish = np.empty(n, dtype=np.float64)
        # Idle-memory state (what a fresh StackedMemory holds) + scratch.
        state = (
            np.zeros(n_banks, dtype=np.float64),
            np.full(n_banks, -1, dtype=np.int64),
            np.full(n_banks, -1.0, dtype=np.float64),
            np.zeros(n_vaults, dtype=np.float64),
        )
        scratch = (
            np.empty(n * mshrs, dtype=np.float64),
            np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.float64),
            np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.int64),
        )
        fn(
            _ptr(off, i), _ptr(block, i), _ptr(vault, i), _ptr(bank, i),
            _ptr(wblock, i), _ptr(wvault, i), _ptr(wbank, i),
            _ptr(dnext, f), _ptr(t0, f), _ptr(tail, f), _ptr(finish, f),
            _ptr(state[0], f), _ptr(state[1], i), _ptr(state[2], f),
            _ptr(state[3], f),
            *timing,
            1 if ooo else 0, mshrs,
            _ptr(scratch[0], f), _ptr(scratch[1], i), _ptr(scratch[2], f),
            _ptr(scratch[3], i), _ptr(scratch[4], i),
            n,
        )
        return finish

    return Kernels(stack_distances, chunk_depths, contend)


#: What runs instead of the kernels, for the one fallback warning.
_FALLBACK = (
    "the profiler's stack-distance and ILP loops and phase-B contention "
    "run in Python"
)


def _build() -> Kernels | None:
    """Compile (or load the cached build of) the kernels; None on
    failure, after one warning naming the reason."""
    compiler = (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        log.warning(f"no C compiler found; {_FALLBACK}")
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    try:
        cache = _cache_dir()
        so_path = os.path.join(cache, f"kernels-{digest}.so")
        if not os.path.exists(so_path):
            # Process-unique build files: concurrent first builds (pool
            # workers) never read each other's half-written source, and
            # the finished object is moved into place atomically.
            stem = os.path.join(cache, f"kernels-{digest}.tmp{os.getpid()}")
            src_path, tmp_path = stem + ".c", stem + ".so"
            try:
                with open(src_path, "w") as fh:
                    fh.write(_C_SOURCE)
                # -ffp-contract=off: no FMA contraction, so the doubles
                # match CPython's float arithmetic operation for operation.
                subprocess.run(
                    [
                        compiler, "-O2", "-fPIC", "-shared",
                        "-ffp-contract=off", "-o", tmp_path, src_path,
                    ],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp_path, so_path)
            finally:
                for path in (src_path, tmp_path):
                    if os.path.exists(path):
                        os.remove(path)
        _require_private(so_path)
        lib = ctypes.CDLL(so_path)
    except PermissionError as exc:
        log.warning(
            f"C kernel cache is not private to this user; {_FALLBACK}",
            extra={"ctx": {"error": str(exc)}},
        )
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        log.warning(
            f"C kernel build failed; {_FALLBACK}",
            extra={"ctx": {
                "compiler": compiler,
                "error": str(exc),
                "stderr": stderr.decode(errors="replace")[-500:],
            }},
        )
        return None
    return _bind(lib)


_RESOLVED: tuple[Kernels | None, str | None] | None = None


def get_kernels() -> tuple[Kernels | None, str | None]:
    """The compiled kernels as ``(Kernels, "cc")``, or ``(None, None)``.

    Resolved once per process, for every caller: the profiler and the
    simulator run on the kernels together or fall back together.
    """
    global _RESOLVED
    if _RESOLVED is None:
        kernels = _build()
        _RESOLVED = (kernels, "cc") if kernels is not None else (None, None)
        if kernels is not None:
            log.info(
                "compiled kernels ready",
                extra={"ctx": {"backend": "cc"}},
            )
    return _RESOLVED
