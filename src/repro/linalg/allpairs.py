"""Threshold-aware all-pairs similarity search (§3.6).

The paper's complexity analysis points to Bayardo, Ma & Srikant
("Scaling up all pairs similarity search", WWW 2007) for "curtailing
similarity computations that will provably lead to similarities lower
than the prune threshold". This module implements that idea for the
dot-product similarities the symmetrizations need: given a sparse
row matrix ``R``, compute exactly the entries of ``R Rᵀ`` that are at
least ``threshold`` — *without* materializing the full product.

Both backends share the same prefix-filter pruning guarantee: a row's
*prefix* is a set of features whose maximum possible contribution
``sum(prefix values * column max)`` stays below the threshold, and
only the complementary *suffix* is indexed. Any pair reaching the
threshold must then share at least one indexed suffix feature of its
earlier row, so probing the index yields a complete candidate set;
candidates are verified with exact dot products.

``backend="python"`` is the reference oracle: a row-at-a-time loop
over a ``dict[int, list[tuple]]`` inverted index with per-pair merge
joins, kept verbatim for differential testing. Its prefix is each
row's leading features in column-id order.

``backend="vectorized"`` (default) is the production engine. It
exploits that the prefix boundaries depend only on global column
statistics — not on processing order — so the whole suffix index
``I`` can be built upfront as flat NumPy arrays (one sort and one
segmented-cumsum pass, no Python loop). Each row's prefix is taken in
decreasing column-frequency order (the AllPairs order), so the
most-shared features stay unindexed and the posting lists that make
candidates stay short. Rows are then processed in *blocks*:

1. **Candidate generation**: one sparse product
   ``block @ I[:end].T`` per block; its nonzero pattern, masked to
   strictly-earlier partners, is exactly the candidate set the
   sequential algorithm would probe.
2. **Partial-score bound**: each product entry is the candidate's
   score over the partner's indexed suffix. Adding a bound on what
   the partner's unindexed prefix can still contribute —
   ``min(prefix column-max bound, ‖probe on prefix columns‖₂ ·
   ‖prefix‖₂)`` (L2AP, Anastasiu & Karypis, ICDE 2014) — drops
   candidates that provably stay below the threshold without scoring
   them. Prefixes only hold *prefix columns* (columns some row leaves
   unindexed, the few most shared ones), so by Cauchy–Schwarz the
   probe's norm over those columns suffices, and it is never larger
   than the whole row's.
3. **Batched verification**: surviving pairs are verified in batches
   with gathered sparse row selections and one elementwise
   multiply-and-row-sum per batch — no per-pair Python work. Each
   batch gathers at most :data:`_GATHER_BUDGET` row entries, so a
   batch of hub rows stays as small as a batch of short ones.
4. Accepted triplets accumulate in growable NumPy buffers
   (:class:`_TripletBuffer`), doubled geometrically like a C++
   vector.

Blocks are independent, so an opt-in ``n_jobs`` fans them out over
worker processes (SciPy's sparse kernels hold the GIL, so threads
cannot overlap them) and merges the per-block triplets exactly;
environments that cannot fork fall back to the serial path. The
fan-out is *out-of-core*: the matrix, its suffix index and the
per-row prefix bounds are spilled once to disk
(:class:`~repro.linalg.mmcsr.MmapCSR` stores plus one ``.npy``) and
workers receive only shard descriptors (paths plus a chunk index — a
few hundred bytes), mapping the rows they need instead of unpickling
whole matrices; accepted triplets are spilled back as per-shard
artifacts the parent concatenates. With an ambient disk
:class:`~repro.engine.cache.ArtifactCache`, spills and finished
shards are content-addressed under ``<cache>/shards/`` and reused on
resume. Workers come from the ambient
:class:`~repro.engine.pool.WorkerPool` when one is installed (so a
sweep shares one pool across points), or a private pool otherwise.

:meth:`repro.symmetrize.DegreeDiscountedSymmetrization` exposes this
through ``apply_pruned``, which searches the stacked factor
``W = [Y | Z]`` once: ``U_d = B_d + C_d = W Wᵀ`` with
``Y = Do^-α A Di^-β/2`` and ``Z = Di^-β Aᵀ Do^-α/2``.
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

#: Row entries gathered per verification batch: both rows' nnz,
#: summed over the batch's pairs. Counting entries rather than pairs
#: bounds the gathered row selections (and their elementwise product)
#: on hub rows too; a single pair above the budget runs alone. Scores
#: are per pair, so batch edges change no output byte.
_GATHER_BUDGET = 1 << 21

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

#: Relative safety margin on the vectorized backend's two bounds — the
#: prefix boundary and the partial-score drop: both compare a
#: floating-point sum against ``threshold * (1 - _BOUNDARY_SLACK)``,
#: so a pair whose exact score rounds a few ULPs either side of the
#: threshold is still indexed and still verified. Extra candidates
#: are harmless — verification is exact — while a missed index entry
#: or a wrongly dropped candidate could lose a qualifying pair.
_BOUNDARY_SLACK = 1e-9

#: Layout tag hashed into every shard scratch key. Bump it whenever
#: what a shard dir holds changes meaning (index order, bound arrays,
#: the counts a shard result carries), so a dir written by an older
#: layout under a persistent cache is never adopted.
_SHARD_LAYOUT = b"allpairs-shards/v3: probe norm on prefix columns"


# ---------------------------------------------------------------------------
# Shared helpers


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
    np.maximum.at(col_max, csr.indices, csr.data)
    return col_max


def _count_pairs(
    stage: str,
    *,
    rows: int,
    nnz_in: int,
    candidates: int,
    verified: int,
    kept: int,
    **extra: int,
) -> None:
    """Record an engine's pair funnel: generated by the candidate
    product ≥ scored exactly ≥ kept."""
    add_counters(
        stage,
        rows=rows,
        nnz_in=nnz_in,
        **extra,
        candidate_pairs=candidates,
        verified_pairs=verified,
        kept_pairs=kept,
        pruned_pairs=candidates - kept,
    )
    metric_inc("allpairs_candidate_pairs_total", candidates)
    metric_inc("allpairs_pairs_verified_total", verified)
    metric_inc("allpairs_pairs_pruned_total", candidates - kept)


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
) -> tuple[sp.csr_array, int]:
    """The WWW'07 inverted-index scheme, one row at a time; returns
    the result and the number of pairs scored exactly."""
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

    # The oracle scores every candidate: verified == generated.
    _count_pairs(
        "allpairs:python",
        rows=n,
        nnz_in=csr.nnz,
        candidates=n_candidates,
        verified=n_candidates,
        kept=len(out_vals),
    )
    result = sp.coo_array(
        (out_vals, (out_rows, out_cols)), shape=(n, n)
    ).tocsr()
    return (result + result.T).tocsr(), n_candidates


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
) -> tuple[sp.csr_array, np.ndarray]:
    """The prefix-filtered inverted index, and the per-row bounds on
    what each row's unindexed prefix can still contribute.

    Each row's features are walked in decreasing column frequency
    (ties by column id), and feature ``p`` is indexed iff the running
    bound ``sum_{q up to p} value_q * col_max`` has reached the
    threshold at ``p`` — so the unindexed prefix holds the row's most
    shared features. The suffix matrix keeps the original column ids
    and order. The bound only needs global column statistics, not
    processing order, which is what lets the whole index be built
    upfront and the blocks processed in any order or in parallel.

    The second result is a ``(3, n)`` array: per row, an upper bound
    on the prefix's column-max bound ``sum(prefix values * col_max)``,
    the prefix's ℓ2 norm, and the row's ℓ2 norm over *prefix columns*
    — the columns left unindexed in at least one row, which hold every
    row's prefix (see :func:`_candidate_pairs`).
    """
    n, d = csr.shape
    bounds = np.zeros((3, n))
    if csr.nnz == 0:
        return sp.csr_array((n, d)), bounds
    counts = np.diff(csr.indptr)
    starts = csr.indptr[:-1]
    nonempty = np.flatnonzero(counts)
    by_freq = np.argsort(
        -np.bincount(csr.indices, minlength=d), kind="stable"
    ).astype(csr.indices.dtype)
    rank = np.empty(d, dtype=csr.indices.dtype)
    rank[by_freq] = np.arange(d)
    # Relabel columns by frequency rank and let SciPy sort each row in
    # place: the entries then sit in prefix order, with no global
    # permutation array.
    ranked = sp.csr_array(
        (csr.data.copy(), rank[csr.indices], csr.indptr.copy()),
        shape=(n, d),
    )
    ranked.sort_indices()
    # Per-row cumulative bound: global cumsum minus the total before
    # each row's first element.
    bound = col_max[by_freq][ranked.indices]
    bound *= ranked.data
    np.cumsum(bound, out=bound)
    # That cumsum rounds relative to the global total, so each per-row
    # bound is off by at most (longest row + 2)·ε·total. Adding it
    # leaves a feature unindexed only when its exact bound is certainly
    # below the threshold.
    slack = (counts.max() + 2) * np.finfo(np.float64).eps * bound[-1]
    before = np.where(starts > 0, bound[np.maximum(starts, 1) - 1], 0.0)
    bound -= np.repeat(before, counts)
    bound += slack
    indexed = bound >= threshold * (1.0 - _BOUNDARY_SLACK)
    # The running bound never decreases along a row, so each row's
    # unindexed prefix is a leading run, and its last (error-padded)
    # bound bounds the prefix's total.
    prefix_len = np.zeros(n, dtype=np.int64)
    prefix_len[nonempty] = np.add.reduceat(
        ~indexed, starts[nonempty], dtype=np.int64
    )
    has_prefix = np.flatnonzero(prefix_len)
    last = starts[has_prefix] + prefix_len[has_prefix] - 1
    bounds[0, has_prefix] = bound[last]
    del bound
    squares = ranked.data * ranked.data
    # Prefix columns (by rank): those with an unindexed entry. Every
    # unindexed entry sits on one, so zeroing the other columns first
    # still leaves the prefix entries for row 1.
    prefix_cols = np.zeros(d, dtype=bool)
    prefix_cols[ranked.indices[~indexed]] = True
    squares[~prefix_cols[ranked.indices]] = 0.0
    bounds[2, nonempty] = np.sqrt(np.add.reduceat(squares, starts[nonempty]))
    squares[indexed] = 0.0
    bounds[1, nonempty] = np.sqrt(np.add.reduceat(squares, starts[nonempty]))
    del squares
    # Back to original column ids and order for the index itself.
    suffix = sp.csr_array(
        (
            ranked.data[indexed],
            by_freq[ranked.indices[indexed]],
            np.concatenate(([0], np.cumsum(counts - prefix_len))),
        ),
        shape=(n, d),
    )
    suffix.sort_indices()
    return suffix, bounds


def _budget_spans(cum: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Split items ``0 .. cum.size - 2`` into consecutive spans whose
    cost ``cum[b] - cum[a]`` stays within ``cap``.

    ``cum`` is the running cost with a leading 0. Greedy accumulation
    keeps each span under ``cap``; a single item above it forms a span
    alone. Spans cover every item exactly once, in order.
    """
    n_items = cum.size - 1
    spans: list[tuple[int, int]] = []
    a = 0
    while a < n_items:
        b = int(np.searchsorted(cum, cum[a] + cap, side="right") - 1)
        b = max(b, a + 1)
        spans.append((a, min(b, n_items)))
        a = b
    return spans


def _gather_batches(
    indptr: np.ndarray, left: np.ndarray, right: np.ndarray
) -> list[slice]:
    """Slices of the pair arrays ``(left, right)`` whose gathered rows
    — both rows' entries, summed over the slice — stay within
    :data:`_GATHER_BUDGET`; shared by verification and
    ``apply_pruned``'s re-score."""
    cost = (indptr[left + 1] - indptr[left]) + (
        indptr[right + 1] - indptr[right]
    )
    cum = np.concatenate(([0], np.cumsum(cost, dtype=np.int64)))
    return [slice(a, b) for a, b in _budget_spans(cum, _GATHER_BUDGET)]


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
    for sl in _gather_batches(csr.indptr, left, right):
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
    share of the candidate product's nnz. Each span's estimate stays
    under ``cap`` (single rows may exceed it — a row's candidates
    cannot be subdivided); see :func:`_budget_spans`.
    """
    entry_cum = np.concatenate(
        ([0], np.cumsum(colcount[block.indices], dtype=np.int64))
    )
    # Cumulative estimate by row boundary: entry i covers rows < i.
    return _budget_spans(entry_cum[block.indptr], cap)


def _candidate_pairs(
    block: sp.csr_array,
    suffix_window: sp.csr_array,
    start: int,
    colcount: np.ndarray,
    bounds: np.ndarray,
    threshold: float,
):
    """Yield ``(generated, left, right)`` for one block: the number of
    candidate pairs the product generated and the pairs left to verify.

    The nonzeros of ``block @ suffix_windowᵀ`` are the pairs sharing
    an indexed feature; partners are restricted to strictly-earlier
    rows, which reproduces the sequential probe order exactly. The
    product is materialized one bounded row span at a time (see
    :data:`_MAX_BLOCK_CANDIDATES`), so peak memory tracks the span
    ceiling, not the hub structure of the matrix.

    Each product entry is the pair's *partial score*: the probe row
    dotted with the partner's indexed suffix. The partner's unindexed
    prefix lies on prefix columns, so it adds at most ``min(prefix
    column-max bound, ‖probe on prefix columns‖₂ · ‖prefix‖₂)``
    (``bounds``, from :func:`_suffix_index`; Cauchy–Schwarz), and a
    pair whose partial score plus that bound stays below the threshold
    is dropped unscored.
    """
    suffix_t = suffix_window.T
    prefix_bound, prefix_norm, probe_norm = bounds
    floor = threshold * (1.0 - _BOUNDARY_SLACK)
    for a, b in _row_spans(block, colcount, _MAX_BLOCK_CANDIDATES):
        cand = (block[a:b] @ suffix_t).tocoo()
        left = cand.row.astype(np.int64) + start + a
        right = cand.col.astype(np.int64)
        earlier = right < left
        left, right = left[earlier], right[earlier]
        reach = cand.data[earlier] + np.minimum(
            prefix_bound[right], probe_norm[left] * prefix_norm[right]
        )
        keep = reach >= floor
        yield left.size, left[keep], right[keep]


def _process_blocks(
    csr: sp.csr_array,
    suffix: sp.csr_array,
    bounds: np.ndarray,
    threshold: float,
    block_starts: list[int],
    block_size: int,
) -> tuple[_TripletBuffer, int, int]:
    """Run candidate generation + verification for a run of blocks.

    Returns the accepted triplets, the number of candidate pairs
    generated and the number verified (for the perf counters). Safe
    to call concurrently: it only reads its inputs.
    """
    out = _TripletBuffer()
    n_candidates = n_verified = 0
    colcount = _suffix_column_counts(suffix)
    for start in block_starts:
        end = min(start + block_size, csr.shape[0])
        block = csr[start:end]
        if block.nnz == 0:
            continue
        with span(f"gram_block[{start}]") as sp_:
            generated = verified = 0
            kept_before = len(out)
            for n_pairs, left, right in _candidate_pairs(
                block, suffix[:end], start, colcount, bounds, threshold
            ):
                generated += n_pairs
                verified += left.size
                _verify_pairs(csr, left, right, threshold, out)
            n_candidates += generated
            n_verified += verified
            sp_.set(
                rows=end - start,
                candidate_pairs=generated,
                verified_pairs=verified,
                kept_pairs=len(out) - kept_before,
            )
            metric_observe("gram_block_candidates", generated)
    return out, n_candidates, n_verified


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
    count must not adopt another partition's shards; the
    :data:`_SHARD_LAYOUT` tag keeps dirs of an older layout out.
    """
    digest = hashlib.sha256(_SHARD_LAYOUT)
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


def _spill_bounds(bounds: np.ndarray, path: Path) -> None:
    """Write the per-row prefix bounds atomically (tmp + rename), so
    workers never map a half-written file."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}.npy")
    np.save(tmp, bounds)
    os.replace(tmp, path)


def _save_shard(
    path: Path, out: _TripletBuffer, n_candidates: int, n_verified: int
) -> None:
    """Write one shard artifact atomically (tmp + rename), so a shard
    file either exists complete or not at all — resumed runs can trust
    any artifact they find."""
    rows, cols, vals = out.arrays()
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    np.savez(
        tmp,
        rows=rows,
        cols=cols,
        vals=vals,
        n_candidates=np.int64(n_candidates),
        n_verified=np.int64(n_verified),
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
    bounds = np.load(spec["bounds_path"], mmap_mode="r")
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
    n_candidates = n_verified = 0
    for start in starts:
        end = min(start + block_size, n_rows)
        block = csr_store.to_scipy(rows=(start, end))
        if block.nnz == 0:
            continue
        # Same candidate rule, bound and bounded row spans as
        # _process_blocks. The suffix window is a zero-copy view of
        # the store, so slicing costs O(rows), not O(nnz).
        for n_pairs, left, right in _candidate_pairs(
            block,
            suffix_store.to_scipy(rows=(0, end)),
            start,
            colcount,
            bounds,
            threshold,
        ):
            n_candidates += n_pairs
            n_verified += left.size
            _verify_pairs(csr, left, right, threshold, out)
    out_path = Path(spec["out_path"])
    _save_shard(out_path, out, n_candidates, n_verified)
    return str(out_path)


def _fan_out_shards(
    csr: sp.csr_array,
    suffix: sp.csr_array,
    bounds: np.ndarray,
    threshold: float,
    block_starts: list[int],
    block_size: int,
    n_jobs: int,
) -> tuple[_TripletBuffer, int, int] | None:
    """Run blocks across a process pool via memory-mapped shard
    descriptors; ``None`` if pooling is unavailable (serial fallback).

    The matrix and its suffix index are spilled once to
    :class:`MmapCSR` stores (reused when a prior call already spilled
    identical content under the ambient cache) and the prefix bounds
    to one ``.npy``; each worker receives only a descriptor — paths
    plus ``(chunk_index, n_chunks)`` — and spills its accepted
    triplets to a per-shard ``.npz`` artifact the parent
    concatenates. Shard artifacts are atomic and content-addressed,
    so an interrupted run resumes by re-opening finished shards.

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
        bounds_path = scratch / "bounds.npy"
        _spill_bounds(bounds, bounds_path)
        specs = []
        for index in range(workers):
            flag = chaos("allpairs.worker")
            specs.append(
                {
                    "csr_path": str(csr_store.directory),
                    "suffix_path": str(suffix_store.directory),
                    "bounds_path": str(bounds_path),
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
            out, candidates, verified = _process_blocks(
                csr, suffix, bounds, threshold, starts, block_size
            )
            _save_shard(Path(spec["out_path"]), out, candidates, verified)
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
        n_candidates = n_verified = 0
        bytes_spilled = 0
        for spec in specs:
            path = Path(spec["out_path"])
            bytes_spilled += path.stat().st_size
            with np.load(path) as shard:
                merged.extend(
                    shard["rows"], shard["cols"], shard["vals"]
                )
                n_candidates += int(shard["n_candidates"])
                n_verified += int(shard["n_verified"])
        metric_set("shard_count", len(specs))
        metric_inc("shard_bytes_spilled", bytes_spilled)
        metric_set("peak_rss_bytes", peak_rss_bytes())
        return merged, n_candidates, n_verified
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
) -> tuple[sp.csr_array, int]:
    """Blocked array-native engine; see the module docstring. Returns
    the result and the number of pairs scored exactly."""
    n = csr.shape[0]
    with span("suffix_index") as sp_:
        col_max = _column_maxima(csr)
        suffix, bounds = _suffix_index(csr, col_max, threshold)
        sp_.set(indexed_nnz=suffix.nnz, nnz_in=csr.nnz)

    block_starts = list(range(0, n, block_size))
    merged: tuple[_TripletBuffer, int, int] | None = None
    if n_jobs is not None and n_jobs > 1 and len(block_starts) > 1:
        merged = _fan_out_shards(
            csr, suffix, bounds, threshold, block_starts, block_size, n_jobs
        )
    if merged is None:
        merged = _process_blocks(
            csr, suffix, bounds, threshold, block_starts, block_size
        )
    buffer, n_candidates, n_verified = merged
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

    _count_pairs(
        "allpairs:vectorized",
        rows=n,
        nnz_in=csr.nnz,
        candidates=n_candidates,
        verified=n_verified,
        kept=len(buffer),
        indexed_nnz=suffix.nnz,
    )
    result = sp.coo_array(
        (out_vals, (out_rows, out_cols)), shape=(n, n)
    ).tocsr()
    return (result + result.T).tocsr(), n_verified


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
        prefix-filter pruning and produce the same result (sparsity
        patterns may differ only for pairs whose similarity ties the
        threshold to within floating-point rounding).
    block_size:
        Rows per block in the vectorized backend.
    n_jobs:
        Fan blocks out over this many worker processes (vectorized
        backend only; ``None``/``1`` runs serially). Results are
        merged exactly, so the output is independent of ``n_jobs``.

    Returns
    -------
    Symmetric CSR ``(n, n)`` matrix.

    Notes
    -----
    The §3.6 point is the *candidate pruning* (pairs whose similarity
    provably falls below the threshold are never scored), implemented
    via prefix filtering in both backends and, in the vectorized one,
    a partial-score bound before verification. For small thresholds
    it degrades gracefully toward a sparse matrix product.
    """
    return _gram_search(
        rows, threshold, include_diagonal, backend, block_size, n_jobs
    )[0]


def _gram_search(
    rows: sp.csr_array,
    threshold: float,
    include_diagonal: bool,
    backend: str,
    block_size: int,
    n_jobs: int | None,
) -> tuple[sp.csr_array, int]:
    """:func:`thresholded_gram_matrix`, plus the number of off-diagonal
    pairs the engine scored exactly (what its threshold cut is out of)."""
    csr = _validated_csr(rows, threshold)
    if backend == "vectorized":
        if block_size < 1:
            raise SymmetrizationError("block_size must be >= 1")
        engine = _vectorized_engine
        args = (csr, threshold, include_diagonal, block_size, n_jobs)
    elif backend == "python":
        engine = _python_engine
        args = (csr, threshold, include_diagonal)
    else:
        raise SymmetrizationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    with span(f"allpairs:{backend}") as sp_:
        result, n_scored = engine(*args)
        sp_.set(
            rows=csr.shape[0],
            threshold=threshold,
            nnz_out=result.nnz,
        )
    return result, n_scored
