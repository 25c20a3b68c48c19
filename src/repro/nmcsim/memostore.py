"""Persistent cross-process store for the simulator's phase-A products.

The in-process geometry memos (``trace._memo`` side tables, see
:mod:`repro.nmcsim.simulator`) die with the process: every ``--jobs N``
worker, and every fresh campaign process, recomputes the same stream
digests, stack-distance classifications and packed event bundles for
geometries its siblings already evaluated.  This module persists the
final phase-A product — the packed event bundle plus its aggregate cache
statistics — as one file per (trace contents, architecture slice) pair
under a shared directory, so any process sweeping the same geometry
loads it instead of recomputing.  Entries are streams of raw ``.npy``
records (a names array followed by one array per name) rather than
``.npz`` archives: loading skips the zipfile machinery, which dominates
small-entry read cost on the warm path.

Design points (mirroring :class:`repro.core.campaign.CampaignCache`):

* **content-hash keys** — entries are named by a SHA-256 over the trace's
  full column bytes, the events-memo key tuple and the store format
  version; a changed trace, geometry or layout can never alias a stale
  entry.
* **atomic writes** — payloads land in a pid-unique ``.tmp`` sibling and
  are moved into place with :func:`os.replace`, so concurrent writers
  (pool workers racing on the same key) and crashes mid-write never
  produce a torn entry; last writer wins with identical bytes.
* **corruption / version tolerance** — unreadable, truncated or
  version-skewed entries are discarded with a warning (and an
  ``sim.memo.store.errors`` count), never raised: the caller rebuilds
  and overwrites.

The store is enabled by pointing ``$REPRO_SIM_MEMO_DIR`` at a directory
(or calling :func:`configure_store`); it is off by default.  Lookups and
writes count as ``sim.memo.store.{hits,misses,writes,errors}``.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..obs import get_logger, metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir import InstructionTrace

log = get_logger("repro.nmcsim.memostore")

#: Environment variable pointing at the shared store directory.
STORE_ENV_VAR = "REPRO_SIM_MEMO_DIR"

#: On-disk entry layout version; bumped whenever the encoded phase-A
#: payload changes shape.  Skewed entries are discarded with a warning.
FORMAT_VERSION = 1

#: Name of the version-stamp array embedded in every entry.
_FORMAT_KEY = "__format__"


class MemoStore:
    """One directory of content-hash-keyed phase-A entries."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directory listings sane for large
        # sweeps (thousands of entries).
        return self.root / key[:2] / f"{key}.bin"

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """The entry's arrays, or None (missing / corrupt / skewed).

        Counts a ``sim.memo.store.hit`` or ``.miss``; a present-but-
        unreadable entry additionally counts an ``error`` and warns, but
        never raises — the caller recomputes and overwrites it.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                names = np.load(fh, allow_pickle=False)
                data = {
                    str(name): np.load(fh, allow_pickle=False)
                    for name in names
                }
            stored = data.pop(_FORMAT_KEY, None)
            version = int(stored[0]) if stored is not None and len(stored) else None
            if version != FORMAT_VERSION:
                raise ValueError(
                    f"entry format {version!r} != {FORMAT_VERSION}"
                )
        except FileNotFoundError:
            metrics().inc("sim.memo.store.misses")
            return None
        except Exception as exc:  # noqa: BLE001 - any damage means rebuild
            metrics().inc("sim.memo.store.misses")
            metrics().inc("sim.memo.store.errors")
            warnings.warn(
                f"sim memo store entry {path} is corrupt, unreadable or "
                f"version-skewed ({exc!r}); discarding it — the entry "
                "will be recomputed and rewritten",
                RuntimeWarning,
                stacklevel=2,
            )
            log.warning(
                "discarding bad memo-store entry",
                extra={"ctx": {"path": str(path), "error": repr(exc)}},
            )
            return None
        metrics().inc("sim.memo.store.hits")
        return data

    def put(self, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Write one entry atomically; failures warn instead of raising.

        A store that cannot be written (read-only mount, disk full) must
        not fail the simulation it was meant to speed up.
        """
        path = self._path(key)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = dict(arrays)
            payload[_FORMAT_KEY] = np.asarray([FORMAT_VERSION], dtype=np.int64)
            with open(tmp, "wb") as fh:
                np.save(
                    fh, np.asarray(list(payload), dtype=np.str_),
                    allow_pickle=False,
                )
                for value in payload.values():
                    np.save(fh, np.asarray(value), allow_pickle=False)
            os.replace(tmp, path)
        except OSError as exc:
            metrics().inc("sim.memo.store.errors")
            warnings.warn(
                f"sim memo store write to {path} failed ({exc!r}); "
                "continuing without persisting this entry",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return
        metrics().inc("sim.memo.store.writes")


def store_key(trace: "InstructionTrace", slice_key: tuple) -> str:
    """Entry key of one (trace, architecture-slice) phase-A product.

    Covers the trace's full column contents (via
    :meth:`~repro.ir.InstructionTrace.content_hash`), the events-memo key
    tuple (every architecture field phase A reads) and the store format
    version.
    """
    payload = f"{FORMAT_VERSION}|{trace.content_hash()}|{slice_key!r}"
    return hashlib.sha256(payload.encode()).hexdigest()


# ------------------------------------------------------------ resolution

#: Programmatic override of the store directory (wins over the env var).
#: ``""`` means "explicitly disabled"; None means "not configured here".
_OVERRIDE_DIR: str | None = None

#: Cached MemoStore per resolved directory (cheap, but keeps identity
#: stable for tests and log messages).
_STORES: dict[str, MemoStore] = {}


def configure_store(path: str | os.PathLike | None) -> None:
    """Set (or clear, with None) the process-wide store directory.

    Overrides ``$REPRO_SIM_MEMO_DIR``.  Picklable entry point for pool
    ``worker_init`` hooks: the campaign ships
    ``functools.partial(configure_store, dir)`` so workers join the
    parent's store even under a spawn start method.
    """
    global _OVERRIDE_DIR
    _OVERRIDE_DIR = os.fspath(path) if path is not None else None


def store_dir() -> str | None:
    """The effective store directory, or None when the store is off."""
    if _OVERRIDE_DIR is not None:
        return _OVERRIDE_DIR or None
    env = os.environ.get(STORE_ENV_VAR, "").strip()
    return env or None


def active_store() -> MemoStore | None:
    """The configured :class:`MemoStore`, or None when disabled."""
    root = store_dir()
    if root is None:
        return None
    store = _STORES.get(root)
    if store is None:
        store = MemoStore(root)
        _STORES[root] = store
    return store


def store_status() -> dict:
    """Store counters + configuration for manifests and bench records."""
    m = metrics()
    return {
        "dir": store_dir(),
        "hits": m.count("sim.memo.store.hits"),
        "misses": m.count("sim.memo.store.misses"),
        "writes": m.count("sim.memo.store.writes"),
        "errors": m.count("sim.memo.store.errors"),
    }
