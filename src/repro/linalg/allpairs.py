"""Threshold-aware all-pairs similarity search (§3.6).

The paper's complexity analysis points to Bayardo, Ma & Srikant
("Scaling up all pairs similarity search", WWW 2007) for "curtailing
similarity computations that will provably lead to similarities lower
than the prune threshold". This module implements that idea for the
dot-product similarities the symmetrizations need: given a sparse
row matrix ``R``, compute exactly the entries of ``R Rᵀ`` that are at
least ``threshold`` — *without* materializing the full product.

Both backends share the same prefix-filter pruning guarantee: a row's
*prefix* is the longest leading run of features whose maximum possible
contribution ``sum(prefix values * column max)`` stays below the
threshold, and only the complementary *suffix* is indexed. Any pair
reaching the threshold must then share at least one indexed suffix
feature of its earlier row, so probing the index yields a complete
candidate set; candidates are verified with exact dot products.

``backend="python"`` is the reference oracle: a row-at-a-time loop
over a ``dict[int, list[tuple]]`` inverted index with per-pair merge
joins, kept verbatim for differential testing.

``backend="vectorized"`` (default) is the production engine. It
exploits that the prefix boundaries depend only on the global column
maxima — not on processing order — so the whole suffix index ``I``
can be built upfront as flat NumPy arrays (one segmented-cumsum pass,
no Python loop). Rows are then processed in *blocks*:

1. **Candidate generation**: one sparse product
   ``block @ I[:end].T`` per block; its nonzero pattern, masked to
   strictly-earlier partners, is exactly the candidate set the
   sequential algorithm would probe.
2. **Batched verification**: candidate pairs are verified in batches
   with gathered sparse row selections and one elementwise
   multiply-and-row-sum per batch — no per-pair Python work.
3. Accepted triplets accumulate in growable NumPy buffers
   (:class:`_TripletBuffer`), doubled geometrically like a C++
   vector.

Blocks are independent, so an opt-in ``n_jobs`` fans them out over
worker processes (SciPy's sparse kernels hold the GIL, so threads
cannot overlap them) and merges the per-block triplets exactly;
environments that cannot fork fall back to the serial path. The
fan-out is *out-of-core*: the matrix and its suffix index are spilled
once to :class:`~repro.linalg.mmcsr.MmapCSR` stores and workers
receive only shard descriptors (store paths plus a chunk index — a
few hundred bytes), mapping the rows they need instead of unpickling
whole matrices; accepted triplets are spilled back as per-shard
artifacts the parent concatenates. With an ambient disk
:class:`~repro.engine.cache.ArtifactCache`, spills and finished
shards are content-addressed under ``<cache>/shards/`` and reused on
resume. Workers come from the ambient
:class:`~repro.engine.pool.WorkerPool` when one is installed (so a
sweep shares one pool across points), or a private pool otherwise.

:meth:`repro.symmetrize.DegreeDiscountedSymmetrization` exposes this
through ``apply_pruned`` using the factorizations
``B_d = Y Yᵀ`` with ``Y = Do^-α A Di^-β/2`` and
``C_d = Z Zᵀ`` with ``Z = Di^-β Aᵀ Do^-α/2``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.engine.cache import current_cache
from repro.engine.chaos import chaos
from repro.engine.pool import WorkerPool, current_pool
from repro.exceptions import StorageError, SymmetrizationError
from repro.linalg.mmcsr import MmapCSR
from repro.obs.metrics import (
    metric_inc,
    metric_observe,
    metric_set,
    peak_rss_bytes,
)
from repro.obs.trace import span
from repro.perf.stopwatch import add_counters

__all__ = ["thresholded_gram_matrix", "BACKENDS"]

#: Recognized values for the ``backend`` argument.
BACKENDS = ("vectorized", "python")

#: Rows per block in the vectorized backend (amortizes sparse-product
#: setup while bounding the candidate matrix held at once).
DEFAULT_BLOCK_SIZE = 512

#: Candidate pairs verified per gather batch (bounds the memory of the
#: gathered row selections).
_VERIFY_BATCH = 1 << 16

#: Ceiling on the estimated candidate count materialized by one sparse
#: product. A row block's candidate matrix ``block @ suffixᵀ`` has one
#: entry per (row, earlier-row) pair sharing an indexed feature, which
#: is bounded by row count only through the *column* sizes of the
#: suffix index — a hub column shared by ten thousand rows makes a
#: 4096-row block emit tens of millions of pairs, and the COO
#: expansion of such a product transiently allocates gigabytes.
#: Blocks are therefore split into row spans whose estimated candidate
#: count (sum of suffix column sizes over each row's features, an
#: upper bound on the product nnz) stays under this ceiling, keeping
#: peak memory bounded by the ceiling rather than the graph's hub
#: structure. Output is unaffected: candidates are per-row, so the
#: split changes batching only.
_MAX_BLOCK_CANDIDATES = 4 << 20

#: Relative safety margin on the prefix boundary: the segmented cumsum
#: differs from the oracle's per-row accumulation in the last ULP, so
#: the vectorized backend indexes marginally *more* (never fewer)
#: features than the exact bound requires. Extra candidates are
#: harmless — verification is exact — while a missed index entry could
#: drop a qualifying pair.
_BOUNDARY_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Shared validation


def _validated_csr(rows: sp.csr_array, threshold: float) -> sp.csr_array:
    if threshold <= 0:
        raise SymmetrizationError(
            "thresholded_gram_matrix needs a positive threshold; "
            "use a plain sparse product for threshold 0"
        )
    csr = rows.tocsr()
    if csr.nnz and csr.data.min() < 0:
        raise SymmetrizationError("row values must be non-negative")
    return csr


def _column_maxima(csr: sp.csr_array) -> np.ndarray:
    col_max = np.zeros(csr.shape[1])
    if csr.nnz:
        coo = csr.tocoo()
        np.maximum.at(col_max, coo.col, coo.data)
    return col_max


# ---------------------------------------------------------------------------
# Reference oracle: the row-at-a-time pure-Python engine


def _exact_dot(
    indices_a: np.ndarray,
    data_a: np.ndarray,
    indices_b: np.ndarray,
    data_b: np.ndarray,
) -> float:
    """Sparse dot product of two rows given as (sorted indices, data)."""
    total = 0.0
    ia = ib = 0
    na, nb = indices_a.size, indices_b.size
    while ia < na and ib < nb:
        ca, cb = indices_a[ia], indices_b[ib]
        if ca == cb:
            total += data_a[ia] * data_b[ib]
            ia += 1
            ib += 1
        elif ca < cb:
            ia += 1
        else:
            ib += 1
    return total


def _python_engine(
    csr: sp.csr_array, threshold: float, include_diagonal: bool
) -> sp.csr_array:
    """The WWW'07 inverted-index scheme, one row at a time."""
    n = csr.shape[0]
    col_max = _column_maxima(csr)

    # Inverted index: column -> list of (row id, value); rows append
    # only their suffix features (prefix filtering).
    index: dict[int, list[tuple[int, float]]] = {}
    stored_indices: list[np.ndarray] = []
    stored_data: list[np.ndarray] = []

    out_rows: list[int] = []
    out_cols: list[int] = []
    out_vals: list[float] = []
    n_candidates = 0

    for i in range(n):
        start, end = csr.indptr[i], csr.indptr[i + 1]
        cols_i = csr.indices[start:end]
        vals_i = csr.data[start:end]

        # --- candidate generation + verification --------------------
        candidates: set[int] = set()
        for c, v in zip(cols_i, vals_i):
            postings = index.get(int(c))
            if postings:
                for k, _ in postings:
                    candidates.add(k)
        n_candidates += len(candidates)
        for k in candidates:
            score = _exact_dot(
                cols_i, vals_i, stored_indices[k], stored_data[k]
            )
            if score >= threshold:
                out_rows.append(i)
                out_cols.append(k)
                out_vals.append(score)

        if include_diagonal:
            self_score = float((vals_i**2).sum())
            if self_score >= threshold:
                out_rows.append(i)
                out_cols.append(i)
                out_vals.append(self_score / 2.0)  # symmetrized later

        # --- prefix filtering: find the indexing boundary ------------
        # Largest prefix whose max possible contribution stays below
        # the threshold; only the remaining suffix is indexed.
        stored_indices.append(cols_i)
        stored_data.append(vals_i)
        bound = 0.0
        boundary = 0
        for pos in range(cols_i.size):
            bound += vals_i[pos] * col_max[cols_i[pos]]
            if bound >= threshold:
                boundary = pos
                break
        else:
            boundary = cols_i.size  # whole row is prunable: index none
        for pos in range(boundary, cols_i.size):
            index.setdefault(int(cols_i[pos]), []).append(
                (i, float(vals_i[pos]))
            )

    add_counters(
        "allpairs:python",
        rows=n,
        nnz_in=csr.nnz,
        candidate_pairs=n_candidates,
        kept_pairs=len(out_vals),
        pruned_pairs=n_candidates - len(out_vals),
    )
    metric_inc("allpairs_candidate_pairs_total", n_candidates)
    metric_inc(
        "allpairs_pairs_pruned_total", n_candidates - len(out_vals)
    )
    result = sp.coo_array(
        (out_vals, (out_rows, out_cols)), shape=(n, n)
    ).tocsr()
    return (result + result.T).tocsr()


# ---------------------------------------------------------------------------
# Production engine: blocked, vectorized, optionally parallel


class _TripletBuffer:
    """Growable (row, col, value) COO buffer backed by NumPy arrays.

    Capacity doubles geometrically, so ``extend`` is amortized O(1)
    per element — the array-native replacement for the three Python
    lists the oracle engine appends to.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._rows = np.empty(capacity, dtype=np.int64)
        self._cols = np.empty(capacity, dtype=np.int64)
        self._vals = np.empty(capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._rows.size
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_rows", "_cols", "_vals"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def extend(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """Append a batch of triplets."""
        count = rows.size
        if count == 0:
            return
        self._reserve(count)
        end = self._size + count
        self._rows[self._size : end] = rows
        self._cols[self._size : end] = cols
        self._vals[self._size : end] = vals
        self._size = end

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the filled prefixes (no copy)."""
        return (
            self._rows[: self._size],
            self._cols[: self._size],
            self._vals[: self._size],
        )


def _suffix_index(
    csr: sp.csr_array, col_max: np.ndarray, threshold: float
) -> sp.csr_array:
    """The prefix-filtered inverted index as a sparse matrix.

    Row ``i`` of the result holds exactly the suffix features row
    ``i`` of ``csr`` would post to the inverted index: feature ``p``
    is indexed iff the running bound ``sum_{q<=p} value_q * col_max``
    has reached the threshold at ``p``. The bound is order-independent
    (it only needs the global column maxima), which is what lets the
    whole index be built upfront and the blocks processed in any
    order or in parallel.
    """
    n, d = csr.shape
    if csr.nnz == 0:
        return sp.csr_array((n, d))
    contrib = csr.data * col_max[csr.indices]
    running = np.cumsum(contrib)
    starts = csr.indptr[:-1]
    counts = np.diff(csr.indptr)
    # Per-row cumulative bound: global cumsum minus the total before
    # each row's first element.
    before = np.where(starts > 0, running[np.maximum(starts, 1) - 1], 0.0)
    row_bound = running - np.repeat(before, counts)
    keep = row_bound >= threshold * (1.0 - _BOUNDARY_SLACK)
    kept_per_row = np.bincount(
        np.repeat(np.arange(n), counts)[keep], minlength=n
    )
    indptr = np.concatenate(([0], np.cumsum(kept_per_row)))
    # The kept entries stay in row-major, column-sorted order, so the
    # CSR can be assembled directly without a COO sort.
    return sp.csr_array(
        (csr.data[keep], csr.indices[keep], indptr), shape=(n, d)
    )


def _verify_pairs(
    csr: sp.csr_array,
    left: np.ndarray,
    right: np.ndarray,
    threshold: float,
    out: _TripletBuffer,
) -> None:
    """Exact-score the candidate pairs ``(left[k], right[k])`` and keep
    those reaching the threshold — gathered row selections and one
    elementwise multiply + row-sum per batch."""
    for lo in range(0, left.size, _VERIFY_BATCH):
        sl = slice(lo, lo + _VERIFY_BATCH)
        li, ri = left[sl], right[sl]
        scores = np.asarray(
            csr[li].multiply(csr[ri]).sum(axis=1)
        ).ravel()
        keep = scores >= threshold
        out.extend(li[keep], ri[keep], scores[keep])


def _suffix_column_counts(suffix: sp.csr_array) -> np.ndarray:
    """Entries per column of the suffix index (the posting sizes)."""
    return np.bincount(
        suffix.indices, minlength=suffix.shape[1]
    ).astype(np.int64)


def _row_spans(
    block: sp.csr_array,
    colcount: np.ndarray,
    cap: int,
) -> list[tuple[int, int]]:
    """Split a row block into spans of bounded candidate estimate.

    ``colcount`` holds the suffix index's per-column entry counts, so
    ``sum(colcount[features of row r])`` upper-bounds row ``r``'s
    share of the candidate product's nnz. Greedy accumulation keeps
    each span's estimate under ``cap`` (single rows may exceed it —
    a row's candidates cannot be subdivided). Spans cover the block's
    rows exactly once, in order.
    """
    n_rows = block.shape[0]
    entry_cum = np.concatenate(
        ([0], np.cumsum(colcount[block.indices], dtype=np.int64))
    )
    # Cumulative estimate by row boundary: row_cum[i] covers rows < i.
    row_cum = entry_cum[block.indptr]
    spans: list[tuple[int, int]] = []
    a = 0
    while a < n_rows:
        b = int(
            np.searchsorted(row_cum, row_cum[a] + cap, side="right") - 1
        )
        b = max(b, a + 1)
        spans.append((a, min(b, n_rows)))
        a = b
    return spans


def _candidate_pairs(
    block: sp.csr_array,
    suffix_window: sp.csr_array,
    start: int,
    colcount: np.ndarray,
):
    """Yield ``(left, right)`` candidate-pair arrays for one block.

    The nonzeros of ``block @ suffix_windowᵀ`` are the pairs sharing
    an indexed feature; partners are restricted to strictly-earlier
    rows, which reproduces the sequential probe order exactly. The
    product is materialized one bounded row span at a time (see
    :data:`_MAX_BLOCK_CANDIDATES`), so peak memory tracks the span
    ceiling, not the hub structure of the matrix.
    """
    suffix_t = suffix_window.T
    for a, b in _row_spans(block, colcount, _MAX_BLOCK_CANDIDATES):
        cand = (block[a:b] @ suffix_t).tocoo()
        left = cand.row.astype(np.int64) + start + a
        right = cand.col.astype(np.int64)
        earlier = right < left
        yield left[earlier], right[earlier]


def _process_blocks(
    csr: sp.csr_array,
    suffix: sp.csr_array,
    threshold: float,
    block_starts: list[int],
    block_size: int,
) -> tuple[_TripletBuffer, int]:
    """Run candidate generation + verification for a run of blocks.

    Returns the accepted triplets and the number of candidate pairs
    generated (for the perf counters). Safe to call concurrently: it
    only reads ``csr``/``suffix``.
    """
    out = _TripletBuffer()
    n_candidates = 0
    colcount = _suffix_column_counts(suffix)
    for start in block_starts:
        end = min(start + block_size, csr.shape[0])
        block = csr[start:end]
        if block.nnz == 0:
            continue
        with span(f"gram_block[{start}]") as sp_:
            block_candidates = 0
            kept_before = len(out)
            for left, right in _candidate_pairs(
                block, suffix[:end], start, colcount
            ):
                block_candidates += left.size
                _verify_pairs(csr, left, right, threshold, out)
            n_candidates += block_candidates
            sp_.set(
                rows=end - start,
                candidate_pairs=block_candidates,
                kept_pairs=len(out) - kept_before,
            )
            metric_observe("gram_block_candidates", block_candidates)
    return out, n_candidates


def _chunk_starts(
    n_rows: int, block_size: int, chunk_index: int, n_chunks: int
) -> list[int]:
    """The block starts of one worker chunk, derived from four ints.

    Workers receive ``(chunk_index, n_chunks)`` instead of an explicit
    start list so the pickled payload stays O(1) regardless of graph
    size; chunks interleave (``starts[w::n_chunks]``) to balance the
    denser early blocks (which face fewer earlier partners) across
    workers, exactly as the in-RAM fan-out always has.
    """
    return list(range(0, n_rows, block_size))[chunk_index::n_chunks]


def _content_key(
    csr: sp.csr_array, threshold: float, block_size: int, n_chunks: int
) -> str:
    """Content address of a shard scratch dir: hash of exact inputs.

    ``n_chunks`` is part of the key because shard artifacts are per
    chunk of a specific partition — a run with a different worker
    count must not adopt another partition's shards.
    """
    digest = hashlib.sha256()
    digest.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
    digest.update(np.float64(threshold).tobytes())
    digest.update(np.int64(block_size).tobytes())
    digest.update(np.int64(n_chunks).tobytes())
    for arr in (csr.indptr, csr.indices, csr.data):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:32]


def _shard_scratch(key: str) -> tuple[Path, bool]:
    """Pick the shard spill directory; returns ``(path, ephemeral)``.

    With an ambient disk :class:`~repro.engine.cache.ArtifactCache`
    the scratch lives under ``<cache>/shards/<content-key>`` and
    survives the process, so a resumed run re-opens the spilled
    inputs and any finished shard artifacts instead of recomputing
    them. Without one, a tempdir is used and removed after the merge.
    """
    cache = current_cache()
    if cache is not None and cache.directory is not None:
        directory = cache.directory / "shards" / key
        directory.mkdir(parents=True, exist_ok=True)
        return directory, False
    return Path(tempfile.mkdtemp(prefix="repro-shards-")), True


def _spill_store(csr: sp.csr_array, directory: Path) -> MmapCSR:
    """Persist ``csr`` as an :class:`MmapCSR`, reusing a prior spill."""
    try:
        store = MmapCSR.open(directory)
        if store.shape == tuple(csr.shape) and store.nnz == csr.nnz:
            metric_inc("shard_spills_reused_total")
            return store
    except StorageError:
        pass
    return MmapCSR.from_scipy(csr, directory)


def _save_shard(
    path: Path,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_candidates: int,
) -> None:
    """Write one shard artifact atomically (tmp + rename), so a shard
    file either exists complete or not at all — resumed runs can trust
    any artifact they find."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    np.savez(
        tmp,
        rows=rows,
        cols=cols,
        vals=vals,
        n_candidates=np.int64(n_candidates),
    )
    # np.savez appends .npz to paths without it.
    os.replace(str(tmp) + ".npz", path)


def _shard_worker(spec: dict) -> str:
    """Process-pool task: open the stores named by the descriptor,
    run this chunk's blocks, spill the accepted triplets.

    The payload is a small dict of paths and ints (asserted < 1 KB in
    the tests) — workers map the inputs from disk instead of receiving
    pickled matrices, which is what lets the fan-out scale to graphs
    that never fit in one process's RAM.

    ``chaos_exit`` is the chaos harness's kill-worker lever: the flag
    is decided in the parent (fault plans do not cross process
    boundaries) and makes the worker die the way an OOM kill or
    segfault would — no exception, no return value, just a dead
    process the pool reports as broken.
    """
    if spec.get("chaos_exit"):
        os._exit(1)
    csr_store = MmapCSR.open(spec["csr_path"])
    suffix_store = MmapCSR.open(spec["suffix_path"])
    threshold = spec["threshold"]
    block_size = spec["block_size"]
    n_rows = csr_store.shape[0]
    starts = _chunk_starts(
        n_rows, block_size, spec["chunk_index"], spec["n_chunks"]
    )
    # Full wrap for the verification gathers: scipy keeps the mapped
    # buffers as views, so only the touched rows' pages are resident.
    csr = csr_store.to_scipy()
    colcount = _suffix_column_counts(suffix_store.to_scipy())
    out = _TripletBuffer()
    n_candidates = 0
    for start in starts:
        end = min(start + block_size, n_rows)
        block = csr_store.to_scipy(rows=(start, end))
        if block.nnz == 0:
            continue
        # Same candidate rule (and the same bounded row spans) as
        # _process_blocks. The suffix window is a zero-copy view of
        # the store, so slicing costs O(rows), not O(nnz).
        for left, right in _candidate_pairs(
            block, suffix_store.to_scipy(rows=(0, end)), start, colcount
        ):
            n_candidates += left.size
            _verify_pairs(csr, left, right, threshold, out)
    rows, cols, vals = out.arrays()
    out_path = Path(spec["out_path"])
    _save_shard(out_path, rows, cols, vals, n_candidates)
    return str(out_path)


def _fan_out_shards(
    csr: sp.csr_array,
    suffix: sp.csr_array,
    threshold: float,
    block_starts: list[int],
    block_size: int,
    n_jobs: int,
) -> tuple[_TripletBuffer, int] | None:
    """Run blocks across a process pool via memory-mapped shard
    descriptors; ``None`` if pooling is unavailable (serial fallback).

    The matrix and its suffix index are spilled once to
    :class:`MmapCSR` stores (reused when a prior call already spilled
    identical content under the ambient cache); each worker receives
    only a descriptor — store paths plus ``(chunk_index, n_chunks)``
    — and spills its accepted triplets to a per-shard ``.npz``
    artifact the parent concatenates. Shard artifacts are atomic and
    content-addressed, so an interrupted run resumes by re-opening
    finished shards.

    Crash isolation is the worker pool's: a worker that dies
    mid-chunk (OOM killer, segfault, injected ``kill_worker`` fault)
    loses only its own chunks, which are re-executed *in-process* on
    the in-RAM inputs (blocks are pure functions of shared read-only
    inputs, so re-execution is exact), counted in
    ``worker_crashes_total``. The merge is deterministic — each row
    lands in exactly one chunk, so triplet sets are disjoint and COO
    assembly canonicalizes order.
    """
    n_rows = csr.shape[0]
    workers = min(n_jobs, len(block_starts))
    scratch, ephemeral = _shard_scratch(
        _content_key(csr, threshold, block_size, workers)
    )
    pool = current_pool()
    owned_pool = pool is None
    if pool is None:
        pool = WorkerPool(workers)
    try:
        csr_store = _spill_store(csr, scratch / "rows")
        suffix_store = _spill_store(suffix, scratch / "suffix")
        specs = []
        for index in range(workers):
            flag = chaos("allpairs.worker")
            specs.append(
                {
                    "csr_path": str(csr_store.directory),
                    "suffix_path": str(suffix_store.directory),
                    "threshold": float(threshold),
                    "block_size": int(block_size),
                    "chunk_index": index,
                    "n_chunks": workers,
                    "out_path": str(scratch / f"shard-{index:04d}.npz"),
                    "chaos_exit": (
                        flag is not None and flag.kind == "kill_worker"
                    ),
                }
            )

        def _rerun_in_process(spec: dict) -> str:
            starts = _chunk_starts(
                n_rows, block_size, spec["chunk_index"], spec["n_chunks"]
            )
            out, candidates = _process_blocks(
                csr, suffix, threshold, starts, block_size
            )
            rows, cols, vals = out.arrays()
            _save_shard(
                Path(spec["out_path"]), rows, cols, vals, candidates
            )
            return spec["out_path"]

        todo = [
            spec
            for spec in specs
            if not Path(spec["out_path"]).exists()
        ]
        if len(todo) < len(specs):
            metric_inc(
                "shard_results_reused_total", len(specs) - len(todo)
            )
        if todo:
            results = pool.run(
                _shard_worker, todo, fallback=_rerun_in_process
            )
            if results is None:
                return None
        merged = _TripletBuffer()
        n_candidates = 0
        bytes_spilled = 0
        for spec in specs:
            path = Path(spec["out_path"])
            bytes_spilled += path.stat().st_size
            with np.load(path) as shard:
                merged.extend(
                    shard["rows"], shard["cols"], shard["vals"]
                )
                n_candidates += int(shard["n_candidates"])
        metric_set("shard_count", len(specs))
        metric_inc("shard_bytes_spilled", bytes_spilled)
        metric_set("peak_rss_bytes", peak_rss_bytes())
        return merged, n_candidates
    finally:
        if owned_pool:
            pool.close()
        if ephemeral:
            shutil.rmtree(scratch, ignore_errors=True)


def _vectorized_engine(
    csr: sp.csr_array,
    threshold: float,
    include_diagonal: bool,
    block_size: int,
    n_jobs: int | None,
) -> sp.csr_array:
    """Blocked array-native engine; see the module docstring."""
    n = csr.shape[0]
    with span("suffix_index") as sp_:
        col_max = _column_maxima(csr)
        suffix = _suffix_index(csr, col_max, threshold)
        sp_.set(indexed_nnz=suffix.nnz, nnz_in=csr.nnz)

    block_starts = list(range(0, n, block_size))
    merged: tuple[_TripletBuffer, int] | None = None
    if n_jobs is not None and n_jobs > 1 and len(block_starts) > 1:
        merged = _fan_out_shards(
            csr, suffix, threshold, block_starts, block_size, n_jobs
        )
    if merged is None:
        merged = _process_blocks(
            csr, suffix, threshold, block_starts, block_size
        )
    buffer, n_candidates = merged
    out_rows, out_cols, out_vals = buffer.arrays()

    if include_diagonal and csr.nnz:
        counts = np.diff(csr.indptr)
        self_scores = np.zeros(n)
        nonempty = np.flatnonzero(counts)
        if nonempty.size:
            self_scores[nonempty] = np.add.reduceat(
                csr.data**2, csr.indptr[nonempty]
            )
        keep = np.flatnonzero(self_scores >= threshold)
        # Halved here because the final symmetrization below doubles
        # the diagonal (matching the oracle's convention).
        out_rows = np.concatenate((out_rows, keep))
        out_cols = np.concatenate((out_cols, keep))
        out_vals = np.concatenate((out_vals, self_scores[keep] / 2.0))

    add_counters(
        "allpairs:vectorized",
        rows=n,
        nnz_in=csr.nnz,
        indexed_nnz=suffix.nnz,
        candidate_pairs=n_candidates,
        kept_pairs=len(buffer),
        pruned_pairs=n_candidates - len(buffer),
    )
    metric_inc("allpairs_candidate_pairs_total", n_candidates)
    metric_inc(
        "allpairs_pairs_pruned_total", n_candidates - len(buffer)
    )
    result = sp.coo_array(
        (out_vals, (out_rows, out_cols)), shape=(n, n)
    ).tocsr()
    return (result + result.T).tocsr()


# ---------------------------------------------------------------------------
# Public entry point


def thresholded_gram_matrix(
    rows: sp.csr_array,
    threshold: float,
    include_diagonal: bool = False,
    backend: str = "vectorized",
    block_size: int = DEFAULT_BLOCK_SIZE,
    n_jobs: int | None = None,
) -> sp.csr_array:
    """Entries of ``rows @ rows.T`` that are ``>= threshold``.

    Parameters
    ----------
    rows:
        Sparse ``(n, d)`` matrix with non-negative values (the
        symmetrizations' scaled rows are non-negative by
        construction).
    threshold:
        Positive similarity cut-off. The result is exact: it contains
        every off-diagonal pair with dot product at least
        ``threshold`` and nothing below it.
    include_diagonal:
        Also emit the self-similarities (row norms squared).
    backend:
        ``"vectorized"`` (default) — the blocked array-native engine;
        ``"python"`` — the row-at-a-time reference oracle. Both apply
        the same prefix-filter pruning and produce the same result
        (sparsity patterns may differ only for pairs whose similarity
        ties the threshold to within floating-point rounding).
    block_size:
        Rows per block in the vectorized backend.
    n_jobs:
        Fan blocks out over this many threads (vectorized backend
        only; ``None``/``1`` runs serially). Results are merged
        exactly, so the output is independent of ``n_jobs``.

    Returns
    -------
    Symmetric CSR ``(n, n)`` matrix.

    Notes
    -----
    The §3.6 point is the *candidate pruning* (pairs whose similarity
    provably falls below the threshold are never scored), implemented
    via prefix filtering in both backends. For small thresholds it
    degrades gracefully toward a sparse matrix product.
    """
    csr = _validated_csr(rows, threshold)
    if backend == "vectorized":
        if block_size < 1:
            raise SymmetrizationError("block_size must be >= 1")
        with span("allpairs:vectorized") as sp_:
            result = _vectorized_engine(
                csr, threshold, include_diagonal, block_size, n_jobs
            )
            sp_.set(
                rows=csr.shape[0],
                threshold=threshold,
                nnz_out=result.nnz,
            )
        return result
    if backend == "python":
        with span("allpairs:python") as sp_:
            result = _python_engine(csr, threshold, include_diagonal)
            sp_.set(
                rows=csr.shape[0],
                threshold=threshold,
                nnz_out=result.nnz,
            )
        return result
    raise SymmetrizationError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )
