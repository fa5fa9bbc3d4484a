"""Out-of-core CSR storage: memory-mapped matrices built in chunks.

The paper's scalability experiments (fig. 8–9) run on graphs —
Flickr at 1.9M nodes / 22.6M edges, LiveJournal at 5.3M / 77.4M —
whose edge lists do not comfortably fit in RAM next to the working
set of the symmetrization kernels. This module provides the storage
layer that lets the rest of the library stream such graphs from disk:

- :class:`MmapCSR` — a read-only CSR matrix whose ``indptr`` /
  ``indices`` / ``data`` arrays live in three ``.npy`` files opened
  with ``numpy.load(mmap_mode="r")``. Row windows materialize as
  ordinary :class:`scipy.sparse.csr_array` views over the mapped
  buffers, so kernels touch only the pages of the rows they read.
- :class:`MmapCSRBuilder` — an append-only builder that accepts edge
  chunks of any size, spills them to scratch files, and finalizes
  into a canonical (sorted, duplicate-summed) store using O(chunk +
  n_rows) resident memory. The finished store appears atomically:
  everything is written under a ``*.tmp-<pid>`` scratch directory
  and published with a single ``os.replace``, so a crash mid-build
  leaves no partially-written store behind.

Store layout (``<dir>/`` after :meth:`MmapCSRBuilder.finalize`)::

    meta.json     shape, nnz, dtypes — written last, the commit point
    indptr.npy    int32/int64, length n_rows + 1
    indices.npy   int32/int64, capacity >= nnz (meta nnz is canonical)
    data.npy      float64 (or requested dtype), same capacity

``indices.npy`` / ``data.npy`` may carry trailing capacity beyond
``nnz`` when duplicate edges were merged during the build; readers
must slice to ``meta["nnz"]``, which :meth:`MmapCSR.open` does.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.exceptions import StorageError

__all__ = [
    "MmapCSR",
    "MmapCSRBuilder",
    "DEFAULT_CHUNK_EDGES",
]

#: Default edge-chunk size for streaming builds: ~1.5M edges keeps the
#: resident triple buffers near 36 MB while amortizing spill overhead.
DEFAULT_CHUNK_EDGES = 1 << 20

_META_NAME = "meta.json"
_FORMAT = "mmcsr/v1"
_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(n_cols: int, nnz: int) -> np.dtype:
    """int32 when both column ids and indptr offsets fit, else int64."""
    if n_cols <= _INT32_MAX and nnz <= _INT32_MAX:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class MmapCSR:
    """A read-only CSR matrix stored as three memory-mapped ``.npy``
    files plus a ``meta.json`` manifest.

    Instances are cheap handles: opening maps the files lazily (the
    OS pages data in on access) and pickles as just the directory
    path, so worker processes can be handed a store for the cost of a
    short string and re-open it locally.

    Examples
    --------
    >>> import scipy.sparse as sp, tempfile, os
    >>> m = sp.random_array((50, 40), density=0.1, rng=7).tocsr()
    >>> d = os.path.join(tempfile.mkdtemp(), "m")
    >>> store = MmapCSR.from_scipy(m, d)
    >>> (store.to_scipy() != m.astype(store.dtype)).nnz
    0
    >>> store.to_scipy(rows=(10, 20)).shape
    (10, 40)
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        shape: tuple[int, int],
        nnz: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        meta: dict,
    ) -> None:
        self.directory = Path(directory)
        self.shape = shape
        self.nnz = nnz
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.meta = meta

    # -- opening ---------------------------------------------------

    @classmethod
    def open(cls, directory: str | Path) -> MmapCSR:
        """Open an existing store, validating its manifest.

        Raises :class:`~repro.exceptions.StorageError` if the
        directory is missing, incomplete (e.g. a crashed build's
        scratch dir), or inconsistent with its arrays.
        """
        directory = Path(directory)
        meta_path = directory / _META_NAME
        if not meta_path.is_file():
            raise StorageError(
                f"{directory}: not an mmcsr store (missing {_META_NAME})"
            )
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"{meta_path}: unreadable store manifest: {exc}"
            ) from exc
        if meta.get("format") != _FORMAT:
            raise StorageError(
                f"{directory}: unsupported store format "
                f"{meta.get('format')!r} (expected {_FORMAT!r})"
            )
        try:
            n_rows, n_cols = (int(x) for x in meta["shape"])
            nnz = int(meta["nnz"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"{directory}: malformed store manifest: {exc}"
            ) from exc
        arrays = {}
        for name in ("indptr", "indices", "data"):
            path = directory / f"{name}.npy"
            try:
                arrays[name] = np.load(path, mmap_mode="r")
            except (OSError, ValueError) as exc:
                raise StorageError(
                    f"{path}: unreadable store array: {exc}"
                ) from exc
        if arrays["indptr"].shape != (n_rows + 1,):
            raise StorageError(
                f"{directory}: indptr length "
                f"{arrays['indptr'].shape[0]} != n_rows + 1 "
                f"({n_rows + 1})"
            )
        for name in ("indices", "data"):
            if arrays[name].shape[0] < nnz:
                raise StorageError(
                    f"{directory}: {name} capacity "
                    f"{arrays[name].shape[0]} < nnz {nnz}"
                )
        return cls(
            directory,
            shape=(n_rows, n_cols),
            nnz=nnz,
            indptr=arrays["indptr"],
            indices=arrays["indices"][:nnz],
            data=arrays["data"][:nnz],
            meta=meta,
        )

    @classmethod
    def from_scipy(
        cls, matrix: sp.csr_array, directory: str | Path
    ) -> MmapCSR:
        """Persist an in-RAM CSR matrix as a store (atomic publish)."""
        csr = sp.csr_array(matrix).tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        n_rows, n_cols = csr.shape
        idx_dtype = _index_dtype(n_cols, csr.nnz)
        directory = Path(directory)
        tmp = _scratch_dir(directory)
        try:
            np.save(tmp / "indptr.npy", csr.indptr.astype(idx_dtype))
            np.save(tmp / "indices.npy", csr.indices.astype(idx_dtype))
            np.save(tmp / "data.npy", np.asarray(csr.data, dtype=np.float64))
            _publish(tmp, directory, shape=(n_rows, n_cols), nnz=csr.nnz,
                     index_dtype=idx_dtype, n_duplicates=0)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return cls.open(directory)

    # -- views -----------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        """On-disk footprint of the three arrays (logical, not capacity)."""
        return int(
            self.indptr.nbytes + self.nnz * self.indices.dtype.itemsize
            + self.nnz * self.data.dtype.itemsize
        )

    def to_scipy(
        self, rows: tuple[int, int] | None = None
    ) -> sp.csr_array:
        """A :class:`scipy.sparse.csr_array` over the mapped buffers.

        With ``rows=(start, stop)`` only that half-open row window is
        wrapped: the index/data slices are zero-copy views into the
        maps and only the (small) window ``indptr`` is materialized.
        Without ``rows`` the whole matrix is wrapped; scipy keeps the
        buffers as views, so no dense copy is made either way.
        """
        if rows is None:
            start, stop = 0, self.shape[0]
        else:
            start, stop = rows
            if not 0 <= start <= stop <= self.shape[0]:
                raise StorageError(
                    f"row window {rows!r} out of range for "
                    f"{self.shape[0]} rows"
                )
        lo = int(self.indptr[start])
        hi = int(self.indptr[stop])
        window_indptr = np.asarray(
            self.indptr[start : stop + 1], dtype=self.indptr.dtype
        ) - self.indptr[start]
        return sp.csr_array(
            (
                self.data[lo:hi],
                self.indices[lo:hi],
                window_indptr,
            ),
            shape=(stop - start, self.shape[1]),
        )

    def row_blocks(
        self, block_size: int
    ) -> Iterator[tuple[int, int, sp.csr_array]]:
        """Iterate ``(start, stop, window)`` over row blocks.

        Each ``window`` is a :meth:`to_scipy` view of ``block_size``
        rows (the last block may be shorter), so a full scan touches
        each page of the store once, in order.
        """
        if block_size <= 0:
            raise StorageError("block_size must be positive")
        n_rows = self.shape[0]
        for start in range(0, n_rows, block_size):
            stop = min(start + block_size, n_rows)
            yield start, stop, self.to_scipy(rows=(start, stop))

    # -- pickling: workers re-open by path -------------------------

    def __reduce__(self):
        return (MmapCSR.open, (str(self.directory),))

    def __repr__(self) -> str:
        return (
            f"MmapCSR(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype}, directory={str(self.directory)!r})"
        )


def _scratch_dir(directory: Path) -> Path:
    """Create the build scratch dir next to the final location.

    Same filesystem as the destination so the final ``os.replace``
    is an atomic rename, never a copy.
    """
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = directory.parent / f"{directory.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    return tmp


def _publish(
    tmp: Path,
    directory: Path,
    *,
    shape: tuple[int, int],
    nnz: int,
    index_dtype: np.dtype,
    n_duplicates: int,
) -> None:
    """Write the manifest and atomically rename scratch -> final.

    ``meta.json`` is the commit record: it is written (and fsynced)
    before the rename, so a store directory either does not exist or
    is complete. An existing destination is replaced.
    """
    meta = {
        "format": _FORMAT,
        "shape": [int(shape[0]), int(shape[1])],
        "nnz": int(nnz),
        "dtype": "float64",
        "index_dtype": np.dtype(index_dtype).name,
        "n_duplicates_merged": int(n_duplicates),
    }
    meta_path = tmp / _META_NAME
    with meta_path.open("w") as f:
        json.dump(meta, f, indent=2)
        f.flush()
        os.fsync(f.fileno())
    if directory.exists():
        shutil.rmtree(directory)
    os.replace(tmp, directory)


class MmapCSRBuilder:
    """Stream edge chunks to disk and finalize an :class:`MmapCSR`.

    The build is three passes, none of which holds more than one
    chunk (plus O(n_rows) bookkeeping) in RAM:

    1. :meth:`add_chunk` spills each ``(rows, cols, vals)`` triple to
       a scratch ``.npz`` and accumulates per-row edge counts.
    2. :meth:`finalize` turns the counts into a raw ``indptr``,
       then scatters every spilled chunk into place in the
       ``indices`` / ``data`` memmaps using a per-row write cursor.
    3. A block-wise compaction pass sorts each row's columns and
       merges duplicate edges (weights summed, as
       :func:`~repro.graph.io.read_edge_list` documents) in place;
       the merged count is reported via :attr:`n_duplicates`.

    The finished store is published atomically (scratch dir +
    ``os.replace``); aborting — explicitly, via the context manager,
    or by crashing — leaves no partial store at the target path.

    Examples
    --------
    >>> import numpy as np, tempfile, os
    >>> d = os.path.join(tempfile.mkdtemp(), "g")
    >>> with MmapCSRBuilder(d, n_rows=3, n_cols=3) as b:
    ...     b.add_chunk([0, 2, 0], [1, 0, 1], [1.0, 1.0, 2.0])
    ...     store = b.finalize()
    >>> store.to_scipy().toarray()[0]  # duplicate (0, 1) summed
    array([0., 3., 0.])
    >>> b.n_duplicates
    1
    """

    def __init__(
        self,
        directory: str | Path,
        n_rows: int | None = None,
        n_cols: int | None = None,
        square: bool = False,
        block_rows: int = 65536,
    ) -> None:
        self.directory = Path(directory)
        self._declared_rows = n_rows
        self._declared_cols = n_cols
        #: With ``square=True`` and no declared dimensions, both are
        #: inferred as ``max(row id, col id) + 1`` — the adjacency
        #: convention, where an edge list's node universe spans both
        #: endpoint columns.
        self._square = bool(square)
        self._block_rows = int(block_rows)
        self._tmp = _scratch_dir(self.directory)
        self._chunks: list[Path] = []
        self._counts = np.zeros(1024, dtype=np.int64)
        self._max_row = -1
        self._max_col = -1
        self._nnz_raw = 0
        self._finalized = False
        #: Number of duplicate (row, col) entries merged by finalize.
        self.n_duplicates = 0

    # -- pass 1: spill ---------------------------------------------

    def add_chunk(self, rows, cols, vals) -> None:
        """Append a chunk of COO triples (any size, any row order)."""
        if self._finalized:
            raise StorageError("builder already finalized")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise StorageError(
                "rows/cols/vals length mismatch: "
                f"{rows.size}/{cols.size}/{vals.size}"
            )
        if rows.size == 0:
            return
        if rows.min() < 0 or cols.min() < 0:
            raise StorageError("negative node id in edge chunk")
        self._max_row = max(self._max_row, int(rows.max()))
        self._max_col = max(self._max_col, int(cols.max()))
        for name, limit in (
            ("row", self._declared_rows),
            ("col", self._declared_cols),
        ):
            observed = self._max_row if name == "row" else self._max_col
            if limit is not None and observed >= limit:
                raise StorageError(
                    f"{name} id {observed} out of range for declared "
                    f"{'n_rows' if name == 'row' else 'n_cols'}={limit}"
                )
        if self._max_row >= self._counts.size:
            grown = np.zeros(
                max(self._counts.size * 2, self._max_row + 1),
                dtype=np.int64,
            )
            grown[: self._counts.size] = self._counts
            self._counts = grown
        np.add.at(self._counts, rows, 1)
        path = self._tmp / f"chunk-{len(self._chunks):06d}.npz"
        np.savez(path, rows=rows, cols=cols, vals=vals)
        self._chunks.append(path)
        self._nnz_raw += rows.size

    # -- passes 2+3: scatter, compact, publish ---------------------

    def finalize(self) -> MmapCSR:
        """Assemble the canonical store and publish it atomically."""
        if self._finalized:
            raise StorageError("builder already finalized")
        if self._square and self._declared_rows is None:
            inferred = max(self._max_row, self._max_col) + 1
            n_rows = n_cols = max(inferred, 0)
        else:
            n_rows = (
                self._declared_rows
                if self._declared_rows is not None
                else self._max_row + 1
            )
            n_cols = (
                self._declared_cols
                if self._declared_cols is not None
                else max(self._max_col + 1, n_rows)
            )
            if self._square:
                n_cols = n_rows = max(n_rows, n_cols)
        n_rows = max(n_rows, 0)
        n_cols = max(n_cols, 0)
        counts = np.zeros(n_rows, dtype=np.int64)
        observed = min(n_rows, self._counts.size)
        counts[:observed] = self._counts[:observed]
        idx_dtype = _index_dtype(n_cols, self._nnz_raw)

        indptr_raw = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr_raw[1:])
        capacity = max(self._nnz_raw, 1)
        indices = np.lib.format.open_memmap(
            self._tmp / "indices.npy",
            mode="w+",
            dtype=idx_dtype,
            shape=(capacity,),
        )
        data = np.lib.format.open_memmap(
            self._tmp / "data.npy",
            mode="w+",
            dtype=np.float64,
            shape=(capacity,),
        )

        # Pass 2: scatter each spilled chunk into row order. The
        # cursor array tracks the next free slot per row; repeated
        # rows within a chunk get consecutive slots via their
        # occurrence index inside the (stably) row-sorted chunk.
        cursor = indptr_raw[:-1].copy()
        for path in self._chunks:
            with np.load(path) as chunk:
                rows = chunk["rows"]
                cols = chunk["cols"]
                vals = chunk["vals"]
            order = np.argsort(rows, kind="stable")
            r = rows[order]
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            run_lengths = np.diff(np.r_[starts, r.size])
            within = np.arange(r.size) - np.repeat(starts, run_lengths)
            pos = cursor[r] + within
            indices[pos] = cols[order]
            data[pos] = vals[order]
            cursor[r[starts]] += run_lengths
            path.unlink()

        # Pass 3: block-wise compaction. Each block's slab is pulled
        # into RAM, rows are column-sorted, duplicates merged, and
        # the shrunk slab written back at a forward-only cursor
        # (wp <= the block's read offset, so in-place is safe).
        final_counts = np.zeros(n_rows, dtype=np.int64)
        wp = 0
        for r0 in range(0, n_rows, self._block_rows):
            r1 = min(r0 + self._block_rows, n_rows)
            lo, hi = int(indptr_raw[r0]), int(indptr_raw[r1])
            if lo == hi:
                continue
            slab_cols = np.asarray(indices[lo:hi], dtype=np.int64)
            slab_vals = np.array(data[lo:hi])
            rowids = np.repeat(
                np.arange(r0, r1, dtype=np.int64),
                np.diff(indptr_raw[r0 : r1 + 1]),
            )
            order = np.lexsort((slab_cols, rowids))
            rr = rowids[order]
            cc = slab_cols[order]
            keep = np.r_[
                True, (rr[1:] != rr[:-1]) | (cc[1:] != cc[:-1])
            ]
            group_starts = np.flatnonzero(keep)
            summed = np.add.reduceat(slab_vals[order], group_starts)
            k = group_starts.size
            self.n_duplicates += rr.size - k
            indices[wp : wp + k] = cc[group_starts].astype(idx_dtype)
            data[wp : wp + k] = summed
            final_counts[r0:r1] = np.bincount(
                rr[group_starts] - r0, minlength=r1 - r0
            )
            wp += k

        indices.flush()
        data.flush()
        del indices, data
        indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
        np.cumsum(final_counts, out=indptr[1:])
        np.save(self._tmp / "indptr.npy", indptr)
        _publish(
            self._tmp,
            self.directory,
            shape=(n_rows, n_cols),
            nnz=wp,
            index_dtype=idx_dtype,
            n_duplicates=self.n_duplicates,
        )
        self._finalized = True
        return MmapCSR.open(self.directory)

    def abort(self) -> None:
        """Discard the scratch directory; the target path is untouched."""
        if not self._finalized:
            shutil.rmtree(self._tmp, ignore_errors=True)

    def __enter__(self) -> MmapCSRBuilder:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.abort()
