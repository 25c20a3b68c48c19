"""The compiled phase-B contention kernel.

Phase B of the simulator (:mod:`repro.nmcsim.simulator`) replays the
miss/writeback event stream through a global-time heap.  The loop is
exact but interpreter-bound, so it runs as a C kernel over *packed* flat
arrays (all streams' events concatenated, offset-indexed): the source
below is compiled on first use with the system C compiler
(``-O2 -fPIC -shared -ffp-contract=off``) into a source-hash-keyed
shared object under a cache directory (``$REPRO_SIM_JIT_CACHE``, default
``<tmp>/repro-simjit-<uid>``, created mode 0700) and loaded with
:mod:`ctypes`.  A directory or object that is not this user's (or
root's), or that group/others can write, is refused.  A cached object
loads in about a millisecond; a cold build costs a fraction of a second
once per source hash.

When no compiler is found, the build fails or the cache is refused,
:func:`get_kernel` returns ``(None, None)`` after logging one warning,
and the simulator runs its heapq loop instead.

Bit-equivalence contract: every floating-point expression below keeps
the exact operation order of the heapq loop (and of
``StackedMemory.access``).  C ``double`` and CPython ``float`` are both
IEEE-754 binary64, and ``-ffp-contract=off`` forbids FMA contraction,
so the kernel produces byte-identical results — this is asserted by the
equivalence suite, not assumed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable

import numpy as np

from ..obs import get_logger

log = get_logger("repro.nmcsim.native")

#: Environment variable selecting the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_SIM_JIT_CACHE"


_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

typedef int64_t i64;

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
            f"contention kernel needs a contiguous {np.dtype(dtype)} array, "
            f"got {arr.dtype} (contiguous={arr.flags.c_contiguous})"
        )
    return arr.ctypes.data


def _bind(lib: ctypes.CDLL) -> Callable:
    """The Python entry point of the loaded kernel."""
    fn = lib.contend_packed
    fn.restype = None
    ptr, f64, i64 = ctypes.c_void_p, ctypes.c_double, ctypes.c_int64
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
        i, f = np.int64, np.float64
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

    return contend


def _build() -> Callable | None:
    """Compile (or load the cached build of) the kernel; None on failure,
    after one warning naming the reason."""
    compiler = (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        log.warning(
            "no C compiler found; phase-B contention falls back to the "
            "heapq loop"
        )
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    try:
        cache = _cache_dir()
        so_path = os.path.join(cache, f"contend-{digest}.so")
        if not os.path.exists(so_path):
            # Process-unique build files: concurrent first builds (pool
            # workers) never read each other's half-written source, and
            # the finished object is moved into place atomically.
            stem = os.path.join(cache, f"contend-{digest}.tmp{os.getpid()}")
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
            "C kernel cache is not private to this user; phase-B "
            "contention falls back to the heapq loop",
            extra={"ctx": {"error": str(exc)}},
        )
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        log.warning(
            "C kernel build failed; phase-B contention falls back to the "
            "heapq loop",
            extra={"ctx": {
                "compiler": compiler,
                "error": str(exc),
                "stderr": stderr.decode(errors="replace")[-500:],
            }},
        )
        return None
    return _bind(lib)


_RESOLVED: tuple[Callable | None, str | None] | None = None


def get_kernel() -> tuple[Callable | None, str | None]:
    """The contention kernel as ``(callable, "cc")``, or ``(None, None)``.

    Resolved once per process.  The callable is :func:`_bind`'s
    ``contend``.
    """
    global _RESOLVED
    if _RESOLVED is None:
        kernel = _build()
        _RESOLVED = (kernel, "cc") if kernel is not None else (None, None)
        if kernel is not None:
            log.info(
                "compiled contention kernel ready",
                extra={"ctx": {"backend": "cc"}},
            )
    return _RESOLVED
