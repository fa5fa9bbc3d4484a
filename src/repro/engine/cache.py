"""Content-addressed artifact cache (memory + on-disk tiers).

Stage outputs — symmetrized and pruned :class:`UndirectedGraph`
artifacts — are addressed by a sha256 *artifact key* derived from

1. the sha256 content fingerprint of the input dataset (the same
   digest :func:`repro.obs.manifest.fingerprint_graph` records in run
   manifests), and
2. the canonical configuration hash of every stage in the artifact's
   lineage, in order (see :func:`config_hash`).

Two runs that feed byte-identical graphs through identically
configured stages therefore share a key, while any change to the
dataset, to a stage parameter (threshold, alpha, beta, ...) or to the
stage order produces a different key. Keys are stable across
processes and machines: the canonical form is JSON with sorted keys
and no whitespace.

The cache has two tiers:

- a **memory tier** (always on): an LRU dict holding artifact objects,
  bounded by ``max_bytes`` when given;
- an optional **disk tier** under ``directory``: one subdirectory per
  artifact in a ``datasets/storage``-style layout::

      <directory>/<key[:2]>/<key>/
        artifact.npz   # CSR indptr / indices / data / shape
        meta.json      # key, fingerprints, lineage, sizes

Cache traffic is metered through :mod:`repro.obs.metrics` as
``cache_hits_total`` / ``cache_misses_total`` counters and a
``cache_bytes`` gauge whenever a registry is active, and the
``repro cache list/stats/clear`` CLI inspects the disk tier.

The cache is always handed over as an argument (``Executor(cache=)``,
``SymmetrizeClusterPipeline.run(cache=)``, ``sweep_*(cache=)``):
passing one cache to every sweep of a grid reuses each
symmetrized/pruned artifact across its cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.engine.chaos import chaos
from repro.exceptions import ExecutionWarning, ReproError
from repro.graph.ugraph import UndirectedGraph
from repro.obs.metrics import metric_inc, metric_set

__all__ = [
    "ARTIFACT_KEY_VERSION",
    "ArtifactCache",
    "config_hash",
    "artifact_key",
    "default_cache_dir",
]

#: Version tag folded into every artifact key; bump to invalidate all
#: previously stored artifacts on a breaking change to the key scheme
#: or the on-disk format.
ARTIFACT_KEY_VERSION = "repro-artifact/v1"

_ARTIFACT_FILE = "artifact.npz"
_META_FILE = "meta.json"


def _canonical(value: Any) -> Any:
    """Coerce ``value`` into a deterministically serializable form."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(config: dict[str, Any]) -> str:
    """The canonical JSON form hashing is defined over.

    Sorted keys, no whitespace, NaN rejected — byte-identical for
    equal configurations regardless of dict insertion order, process
    or platform.
    """
    return json.dumps(
        _canonical(config),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def config_hash(config: dict[str, Any]) -> str:
    """sha256 of the canonical JSON form of ``config`` (full hex)."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def artifact_key(
    dataset_sha: str,
    lineage: list[str] | tuple[str, ...],
    mode: str = "strict",
) -> str:
    """The content address of a stage output.

    Parameters
    ----------
    dataset_sha:
        sha256 content fingerprint of the lineage's input graph (from
        :func:`repro.obs.manifest.fingerprint_graph`).
    lineage:
        The :meth:`~repro.engine.stage.Stage.fingerprint` of every
        stage from the input up to and including the producing stage,
        in execution order.
    mode:
        The executor's robustness mode — lenient runs may repair the
        input, so their artifacts must not alias strict ones.
    """
    digest = hashlib.sha256()
    digest.update(ARTIFACT_KEY_VERSION.encode())
    digest.update(b"\x00" + mode.encode())
    digest.update(b"\x00" + dataset_sha.encode())
    for fp in lineage:
        digest.update(b"\x00" + fp.encode())
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """The disk-tier default: ``$REPRO_CACHE_DIR`` or the XDG cache."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "artifacts"


def _graph_nbytes(graph: UndirectedGraph) -> int:
    csr = graph.adjacency
    return int(
        csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
    )


def _json_safe_names(names: list | None) -> list | None:
    if names is None:
        return None
    if all(isinstance(n, (str, int, float, bool)) for n in names):
        return list(names)
    return None


class ArtifactCache:
    """Two-tier content-addressed store for stage artifacts.

    Parameters
    ----------
    directory:
        Enable the disk tier under this path (created lazily). ``None``
        keeps the cache memory-only.
    max_bytes:
        Soft cap on the memory tier; least-recently-used artifacts are
        evicted once the resident CSR payload exceeds it. ``None``
        (default) means unbounded.

    Examples
    --------
    >>> from repro.engine import ArtifactCache
    >>> from repro.pipeline import sweep_threshold
    >>> cache = ArtifactCache()
    >>> cold = sweep_threshold(g, [0.1, 0.2], "metis", 8,
    ...                        cache=cache)    # doctest: +SKIP
    >>> warm = sweep_threshold(g, [0.1, 0.2], "metis", 8,
    ...                        cache=cache)    # doctest: +SKIP
    >>> cache.hits > 0                         # doctest: +SKIP
    True
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max_bytes
        self._memory: OrderedDict[str, UndirectedGraph] = OrderedDict()
        self._memory_bytes = 0
        self.hits = 0
        self.misses = 0
        # One cache instance is shared by every worker thread of the
        # service daemon; all tier mutation (LRU order, byte
        # accounting, hit/miss counters) happens under this lock.
        # Re-entrant because get() promotes disk hits via
        # _memory_put() while already holding it.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Core get / put
    # ------------------------------------------------------------------
    def get(self, key: str) -> UndirectedGraph | None:
        """The artifact stored under ``key``, or ``None`` on a miss.

        Memory-tier hits move the entry to most-recently-used; disk
        hits are promoted into the memory tier.
        """
        with self._lock:
            artifact = self._memory.get(key)
            if artifact is None and self.directory is not None:
                artifact = self._disk_get(key)
                if artifact is not None:
                    self._memory_put(key, artifact)
            if artifact is None:
                self.misses += 1
                metric_inc("cache_misses_total")
                return None
            if key in self._memory:
                self._memory.move_to_end(key)
            self.hits += 1
        metric_inc("cache_hits_total")
        return artifact

    def put(
        self,
        key: str,
        artifact: UndirectedGraph,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Store ``artifact`` under ``key`` in every enabled tier."""
        if not isinstance(artifact, UndirectedGraph):
            raise ReproError(
                "ArtifactCache stores UndirectedGraph artifacts, got "
                f"{type(artifact).__name__}"
            )
        with self._lock:
            self._memory_put(key, artifact)
            if self.directory is not None:
                self._disk_put(key, artifact, meta or {})

    # ------------------------------------------------------------------
    # Memory tier
    # ------------------------------------------------------------------
    def _memory_put(self, key: str, artifact: UndirectedGraph) -> None:
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                return
            self._memory[key] = artifact
            self._memory_bytes += _graph_nbytes(artifact)
            if self.max_bytes is not None:
                while (
                    self._memory_bytes > self.max_bytes
                    and len(self._memory) > 1
                ):
                    _, evicted = self._memory.popitem(last=False)
                    self._memory_bytes -= _graph_nbytes(evicted)
            metric_set("cache_bytes", self._memory_bytes)

    @property
    def memory_bytes(self) -> int:
        """Resident CSR payload of the memory tier, in bytes."""
        with self._lock:
            return self._memory_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return (
            self.directory is not None
            and (self._entry_dir(key) / _ARTIFACT_FILE).exists()
        )

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _entry_dir(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / key

    def _disk_put(
        self, key: str, artifact: UndirectedGraph, meta: dict[str, Any]
    ) -> None:
        flag = chaos("cache.disk_put")
        entry = self._entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        csr = artifact.adjacency.tocsr()
        payload: dict[str, Any] = {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "data": csr.data,
            "shape": np.asarray(csr.shape, dtype=np.int64),
        }
        names = _json_safe_names(artifact.node_names)
        tmp = entry / (_ARTIFACT_FILE + ".tmp")
        with tmp.open("wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(entry / _ARTIFACT_FILE)
        record = {
            "key": key,
            "created_unix": time.time(),
            "n_nodes": int(csr.shape[0]),
            "nnz": int(csr.nnz),
            "nbytes": _graph_nbytes(artifact),
            "node_names": names,
            **meta,
        }
        meta_tmp = entry / (_META_FILE + ".tmp")
        with meta_tmp.open("w") as handle:
            handle.write(
                json.dumps(record, indent=2, default=_canonical)
                + "\n"
            )
            handle.flush()
            os.fsync(handle.fileno())
        meta_tmp.replace(entry / _META_FILE)
        self._fsync_dir(entry)
        if flag is not None and flag.kind == "corrupt":
            # Chaos: garble the persisted artifact the way a torn
            # write would, so recovery paths can be exercised.
            (entry / _ARTIFACT_FILE).write_bytes(b"\x00corrupt")

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-specific
            pass
        finally:
            os.close(fd)

    def _disk_get(self, key: str) -> UndirectedGraph | None:
        entry = self._entry_dir(key)
        path = entry / _ARTIFACT_FILE
        if not path.exists():
            if (entry / _META_FILE).exists():
                # A meta.json without its artifact is the signature
                # of a crash mid-put (or a torn cleanup): drop the
                # orphan so it cannot shadow a future write.
                shutil.rmtree(entry, ignore_errors=True)
                warnings.warn(
                    ExecutionWarning(
                        f"cache entry {key[:16]} had metadata but "
                        "no artifact (orphan from an interrupted "
                        "write); dropped",
                        code="cache_orphan",
                    ),
                    stacklevel=3,
                )
                metric_inc("cache_orphans_dropped_total")
            return None
        try:
            with np.load(path) as loaded:
                shape = tuple(int(v) for v in loaded["shape"])
                csr = sp.csr_array(
                    (
                        loaded["data"],
                        loaded["indices"],
                        loaded["indptr"],
                    ),
                    shape=shape,
                )
            names = None
            meta_path = entry / _META_FILE
            if meta_path.exists():
                names = json.loads(meta_path.read_text()).get(
                    "node_names"
                )
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return None  # treat a corrupt entry as a miss
        return UndirectedGraph(csr, node_names=names, validate=False)

    # ------------------------------------------------------------------
    # Introspection / management (the ``repro cache`` CLI)
    # ------------------------------------------------------------------
    def entries(self) -> list[dict[str, Any]]:
        """Metadata of every disk-tier artifact, oldest first."""
        if self.directory is None or not self.directory.exists():
            return []
        found: list[dict[str, Any]] = []
        for meta_path in sorted(
            self.directory.glob(f"*/*/{_META_FILE}")
        ):
            try:
                record = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            found.append(record)
        found.sort(key=lambda r: r.get("created_unix", 0.0))
        return found

    def stats(self) -> dict[str, Any]:
        """Hit/miss counters plus per-tier sizes."""
        disk = self.entries()
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "memory_entries": len(self._memory),
                "memory_bytes": self._memory_bytes,
                "disk_entries": len(disk),
                "disk_bytes": int(
                    sum(r.get("nbytes", 0) for r in disk)
                ),
                "directory": (
                    str(self.directory) if self.directory else None
                ),
            }

    def clear(self, disk: bool = True) -> int:
        """Drop every entry; returns the number of entries removed."""
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
            self._memory_bytes = 0
            metric_set("cache_bytes", 0)
        if disk and self.directory is not None and self.directory.exists():
            removed += len(self.entries())
            shutil.rmtree(self.directory)
        return removed

    def __repr__(self) -> str:
        tier = f"disk={str(self.directory)!r}" if self.directory else (
            "memory-only"
        )
        return (
            f"ArtifactCache({tier}, entries={len(self._memory)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
