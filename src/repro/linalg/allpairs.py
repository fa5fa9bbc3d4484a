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
segmented-cumsum pass, no Python loop), together with each row's
unindexed prefix ``P``. Each row's prefix is
taken in decreasing column-frequency order (the AllPairs order), so
the most-shared features stay unindexed and the posting lists that
make candidates stay short. Rows are then processed in *blocks*,
and each candidate pair goes through one funnel:

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
   them. Prefixes only hold *prefix columns* (the columns some row
   leaves unindexed), so by Cauchy–Schwarz the probe's norm over
   those columns suffices, and it is never larger than the whole
   row's.
3. **Prefix gate**: the product entry already holds the pair's score
   over the partner's suffix, so only the probe's dot product with
   ``P[partner]`` is left to add. Each batch (at most
   :data:`_GATHER_BUDGET` gathered entries) lays its probes' entries
   on prefix columns out as a dense table and reads it at every
   ``P`` entry of their partners. Pairs whose gate score stays below
   the threshold (minus a rounding pad) are dropped.
4. **Exact score**: :func:`thresholded_gram_matrix` scores the
   gate's survivors once from both whole rows, gathered and
   multiplied elementwise, each pair's products summed in stored
   order by ``np.add.reduceat`` — the arithmetic of
   ``csr.sum(axis=1)``. ``apply_pruned`` re-scores them instead, in
   ``apply``'s own arithmetic (:func:`pruned_pairs`).

Blocks only read shared inputs, so :func:`_process_blocks` is safe to
call concurrently; the kernel walks them serially.

:meth:`repro.symmetrize.DegreeDiscountedSymmetrization` exposes this
through ``apply_pruned``, which searches the stacked factor
``W = [Y | Z]`` once: ``U_d = B_d + C_d = W Wᵀ`` with
``Y = Do^-α A Di^-β/2`` and ``Z = Di^-β Aᵀ Do^-α/2``, and uses the
search only to find the pairs it re-scores.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SymmetrizationError
from repro.linalg.sparse_utils import prune_mask
from repro.obs.metrics import metric_inc, metric_observe
from repro.obs.trace import span

__all__ = ["thresholded_gram_matrix", "BACKENDS"]

#: Recognized values for the ``backend`` argument.
BACKENDS = ("vectorized", "python")

#: Rows per block in the vectorized backend (amortizes sparse-product
#: setup while bounding the candidate matrix held at once).
DEFAULT_BLOCK_SIZE = 512

#: Row entries gathered per batch by the prefix gate, the exact score
#: and :func:`pruned_pairs`: both rows' nnz, summed over the batch's
#: pairs. Counting entries rather than pairs bounds the gathered row
#: selections (and their elementwise product) on hub rows too; a
#: single pair above the budget runs alone. Scores are per pair, so
#: batch edges change no output byte.
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

#: Cells of the prefix gate's dense probe table (float64, so 512 KB):
#: probes whose table rows would not fit are done in several groups.
#: A larger table saves a few NumPy calls per batch, but it stays
#: resident after the batch and raises the process's peak RSS.
_TABLE_CELLS = 1 << 16

#: Relative safety margin on the vectorized backend's bounds — the
#: prefix boundary, the partial-score drop and the prefix gate: each
#: compares a floating-point sum against ``threshold * (1 -
#: _BOUNDARY_SLACK)``, so a pair whose exact score rounds a few ULPs
#: either side of the threshold is still indexed and still scored.
#: Extra candidates are harmless — the exact score decides — while a
#: missed index entry or a wrongly dropped candidate could lose a
#: qualifying pair.
_BOUNDARY_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Shared helpers


def _validated_csr(rows: sp.csr_array, threshold: float) -> sp.csr_array:
    if threshold <= 0:
        raise SymmetrizationError(
            "thresholded_gram_matrix needs a positive threshold; "
            "use a plain sparse product for threshold 0"
        )
    csr = rows.tocsr()
    if not csr.has_canonical_format:
        # Both engines assume sorted rows without duplicates (the
        # oracle's merge join misses the others). Canonicalize a copy.
        csr = csr.copy()
        csr.sum_duplicates()
    if csr.nnz and not np.isfinite(csr.data).all():
        raise SymmetrizationError("row values must be finite")
    if csr.nnz and csr.data.min() < 0:
        raise SymmetrizationError("row values must be non-negative")
    return csr


def _column_maxima(csr: sp.csr_array) -> np.ndarray:
    col_max = np.zeros(csr.shape[1])
    np.maximum.at(col_max, csr.indices, csr.data)
    return col_max


class _Found(NamedTuple):
    """An engine's surviving pairs ``(left[k], right[k])`` — probe row
    and partner row — and the pair funnel's counts.

    ``values`` holds the pairs' exact scores when the engine already
    kept them (the oracle), and ``None`` for the prefix gate's
    survivors, which still await a score.
    """

    left: np.ndarray
    right: np.ndarray
    values: np.ndarray | None
    candidates: int
    verified: int
    scored: int


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


def _python_engine(csr: sp.csr_array, threshold: float) -> _Found:
    """The WWW'07 inverted-index scheme, one row at a time; every
    candidate is scored, so its funnel counts are all equal."""
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

    return _Found(
        np.asarray(out_rows, dtype=np.int64),
        np.asarray(out_cols, dtype=np.int64),
        np.asarray(out_vals, dtype=np.float64),
        n_candidates,
        n_candidates,
        n_candidates,
    )


# ---------------------------------------------------------------------------
# Production engine: blocked and vectorized


class _Index(NamedTuple):
    """What :func:`_suffix_index` builds: the indexed suffixes, the
    per-row prefix bounds and the unindexed prefixes ``P``."""

    suffix: sp.csr_array
    bounds: np.ndarray
    prefix: sp.csr_array


def _suffix_index(
    csr: sp.csr_array, col_max: np.ndarray, threshold: float
) -> _Index:
    """The prefix-filtered inverted index, the per-row bounds on what
    each row's unindexed prefix can still contribute, and the
    unindexed prefixes themselves.

    Each row's features are walked in decreasing column frequency
    (ties by column id), and feature ``p`` is indexed iff the running
    bound ``sum_{q up to p} value_q * col_max`` has reached the
    threshold at ``p`` — so the unindexed prefix holds the row's most
    shared features. The suffix matrix keeps the original column ids
    and order. The bound only needs global column statistics, not
    processing order, which is what lets the whole index be built
    upfront and the blocks processed in any order or in parallel.

    ``bounds`` is a ``(3, n)`` array: per row, an upper bound on the
    prefix's column-max bound ``sum(prefix values * col_max)``, the
    prefix's ℓ2 norm, and the row's ℓ2 norm over *prefix columns* —
    the columns left unindexed in at least one row, which hold every
    row's prefix (see :func:`_candidate_pairs`). ``prefix`` holds each
    row's unindexed entries in original column ids and order, so a
    pair's full score is its suffix score plus ``csr[probe] ·
    prefix[partner]``, which only reads the probe on prefix columns.
    """
    n, d = csr.shape
    bounds = np.zeros((3, n))
    if csr.nnz == 0:
        empty = sp.csr_array((n, d))
        return _Index(empty, bounds, empty)
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
    # Ranks are distinct within a row, so an entry is in its row's
    # prefix iff its rank is at most that of the row's last prefix
    # entry.
    last_rank = np.full(n, -1, dtype=rank.dtype)
    last_rank[has_prefix] = ranked.indices[last]
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
    del squares, ranked, indexed
    # Both matrices keep csr's own column ids and order.
    in_prefix = rank[csr.indices] <= np.repeat(last_rank, counts)
    return _Index(
        _masked(csr, ~in_prefix), bounds, _masked(csr, in_prefix)
    )


def _masked(csr: sp.csr_array, mask: np.ndarray) -> sp.csr_array:
    """The entries of ``csr`` under ``mask``, in their rows and order."""
    # take() on the kept positions: boolean indexing costs several
    # times more on masks without long runs.
    kept = np.flatnonzero(mask)
    return sp.csr_array(
        (
            csr.data.take(kept),
            csr.indices.take(kept),
            np.searchsorted(kept, csr.indptr).astype(csr.indptr.dtype),
        ),
        shape=csr.shape,
    )


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
    indptr: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    right_indptr: np.ndarray | None = None,
) -> list[slice]:
    """Slices of the pair arrays ``(left, right)`` whose gathered rows
    — ``left`` rows of the matrix with ``indptr`` and ``right`` rows of
    the one with ``right_indptr`` (the same matrix by default), summed
    over the slice — stay within :data:`_GATHER_BUDGET` entries."""
    if right_indptr is None:
        right_indptr = indptr
    cost = (indptr[left + 1] - indptr[left]) + (
        right_indptr[right + 1] - right_indptr[right]
    )
    cum = np.concatenate(([0], np.cumsum(cost, dtype=np.int64)))
    return [slice(a, b) for a, b in _budget_spans(cum, _GATHER_BUDGET)]


def _score_and_keep(
    csr: sp.csr_array,
    left: np.ndarray,
    right: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact-score the pairs ``(left[k], right[k])`` and keep those
    reaching ``threshold`` — both rows gathered once per batch and
    multiplied elementwise, each pair's products summed as
    ``csr.sum(axis=1)`` sums a row, no per-pair Python work."""
    values = np.empty(left.size)
    for sl in _gather_batches(csr.indptr, left, right):
        values[sl] = csr[left[sl]].multiply(csr[right[sl]]).sum(axis=1)
    kept = np.flatnonzero(values >= threshold)
    return left.take(kept), right.take(kept), values.take(kept)


def pruned_pairs(
    lhs: sp.csr_array,
    rt_values: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    threshold: float,
) -> sp.csr_array:
    """The entries of ``U = Σ_t L_t @ R_t`` at ``(left, right)`` and at
    ``(right, left)`` that :func:`~repro.linalg.sparse_utils
    .prune_matrix` keeps at ``threshold``, as a canonical ``(n, n)``
    CSR matrix.

    ``lhs`` holds the ``(n, n)`` factors ``L_t`` side by side (term
    ``t`` on columns ``[t·n, (t+1)·n)``) with sorted rows, and
    ``rt_values`` the ``R_tᵀ`` on its stored pattern. Entries take the
    arithmetic of SciPy's ``L_t @ R_t`` summed term by term, which
    :meth:`~repro.symmetrize.Symmetrization.apply` prunes: per term
    the products ``L_t[i, k] · R_tᵀ[j, k]`` over the shared columns
    ``k``, ascending, are summed sequentially by a CSR mat-vec
    (``reduceat`` and ``.sum`` sum pairwise and round differently),
    then the terms' sums left to right. Both orientations are scored:
    their roundings of one similarity can fall either side of the
    threshold. Batches gather at most :data:`_GATHER_BUDGET` entries.
    """
    n = lhs.shape[0]
    n_terms = lhs.shape[1] // max(n, 1)
    # The pattern with each entry's stored position + 1 as its value.
    at = sp.csr_array(
        (np.arange(1.0, lhs.nnz + 1), lhs.indices, lhs.indptr),
        shape=lhs.shape,
    )
    degree = np.diff(lhs.indptr)
    cum = np.zeros(left.size + 1, dtype=np.int64)
    np.cumsum(degree[left] + degree[right], out=cum[1:])
    forward = np.empty(left.size)
    backward = np.empty(left.size)
    spans = _budget_spans(cum, _GATHER_BUDGET)
    ones = np.ones(max((cum[b] - cum[a] for a, b in spans), default=0))
    for a, b in spans:
        partner = at[right[a:b]]
        # Each pair's common columns, ascending, at their positions in
        # the probe's row, then looked up in the partner's.
        mine = at[left[a:b]].multiply(
            sp.csr_array(
                (ones[: partner.nnz], partner.indices, partner.indptr),
                shape=partner.shape,
            )
        )
        p_i = mine.data.astype(np.int64) - 1
        pair = np.repeat(np.arange(b - a), np.diff(mine.indptr))
        p_j = partner[pair, mine.indices].astype(np.int64) - 1
        # Each (pair, term) run of common columns is contiguous.
        run = pair * n_terms + mine.indices // n
        lengths = np.bincount(run, minlength=(b - a) * n_terms)
        sums = _sequential_sums(
            np.concatenate(
                (
                    lhs.data[p_i] * rt_values[p_j],
                    lhs.data[p_j] * rt_values[p_i],
                )
            ),
            np.concatenate((lengths, lengths)),
        ).reshape(2, b - a, n_terms)
        forward[a:b], backward[a:b] = sums[..., 0]
        for t in range(1, n_terms):
            forward[a:b] += sums[0, :, t]
            backward[a:b] += sums[1, :, t]
    fwd = prune_mask(forward, threshold)
    bwd = prune_mask(backward, threshold)
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows = np.concatenate((left[fwd], right[bwd])).astype(dtype)
    cols = np.concatenate((right[fwd], left[bwd])).astype(dtype)
    values = np.concatenate((forward[fwd], backward[bwd]))
    del forward, backward
    return sp.coo_array((values, (rows, cols)), shape=(n, n)).tocsr()


def _sequential_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per run of ``lengths`` consecutive ``values``, ``0 + v_0 + v_1 +
    …`` added in order: SciPy's CSR mat-vec with ones, which sums as
    its sparse product accumulates an entry."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    rows = sp.csr_array(
        (values, np.zeros(values.size, dtype=np.int64), indptr),
        shape=(lengths.size, 1),
    )
    return rows @ np.ones(1)


class _GateScratch:
    """What the prefix gate reuses across batches: which columns are
    prefix columns, and a column map and a table that are all zeros
    between batches, so a batch neither allocates nor clears whole
    arrays."""

    def __init__(self, prefix: sp.csr_array) -> None:
        self.prefix_cols = np.zeros(prefix.shape[1], dtype=bool)
        self.prefix_cols[prefix.indices] = True
        self.slot = np.zeros(prefix.shape[1], dtype=np.int64)
        self._table = np.zeros(0)

    def zeros(self, size: int) -> np.ndarray:
        if self._table.size < size:
            self._table = np.zeros(size)
        return self._table[:size]


def _ragged(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the entries of ``rows`` (concatenated, each row in
    stored order) in a CSR matrix with ``indptr``, each row's entry
    count, and where each row's run starts among the positions."""
    counts = indptr[rows + 1] - indptr[rows]
    runs = np.cumsum(counts) - counts
    total = int(runs[-1] + counts[-1]) if rows.size else 0
    positions = np.arange(total) + np.repeat(indptr[rows] - runs, counts)
    return positions, counts, runs


def _firsts(left: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``left`` starts."""
    first = np.empty(left.size, dtype=bool)
    first[:1] = True
    np.not_equal(left[1:], left[:-1], out=first[1:])
    return first


def _prefix_gate(
    csr: sp.csr_array,
    prefix: sp.csr_array,
    left: np.ndarray,
    right: np.ndarray,
    partial: np.ndarray,
    floor: float,
    scratch: _GateScratch,
) -> tuple[np.ndarray, int]:
    """Positions of the pairs whose suffix score ``partial`` plus
    ``csr[left] · prefix[right]`` reaches ``floor``, and the row
    entries gathered to decide it.

    ``left`` is sorted (pairs come row by row from the candidate
    product). Pairs whose partial score already reaches ``floor``, or
    whose partner has no unindexed prefix, need no gather. The others
    are batched under :data:`_GATHER_BUDGET` gathered entries: each
    pair's prefix row, and each probe's row once.
    """
    score = partial.copy()
    p_counts = prefix.indptr[right + 1] - prefix.indptr[right]
    todo = np.flatnonzero((partial < floor) & (p_counts > 0))
    left, right = left.take(todo), right.take(todo)
    cost = p_counts.take(todo)
    cost += _firsts(left) * (csr.indptr[left + 1] - csr.indptr[left])
    cum = np.concatenate(([0], np.cumsum(cost, dtype=np.int64)))
    gathered = 0
    for a, b in _budget_spans(cum, _GATHER_BUDGET):
        gathered += _add_prefix_scores(
            score, todo[a:b], left[a:b], right[a:b], csr, prefix, scratch
        )
    return np.flatnonzero(score >= floor), gathered


def _add_prefix_scores(
    score: np.ndarray,
    pairs: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    csr: sp.csr_array,
    prefix: sp.csr_array,
    scratch: _GateScratch,
) -> int:
    """Add ``csr[left] · prefix[right]`` to ``score[pairs]``; returns
    the row entries gathered. ``left`` is sorted.

    The probes' rows on prefix columns are laid out as a dense table
    over the columns they use, :data:`_TABLE_CELLS` cells at a time,
    and each ``prefix[right]`` entry reads its cell.
    """
    first = _firsts(left)
    probes = left[first]
    q_pos, q_counts, _ = _ragged(csr.indptr, probes)
    n_gathered = q_pos.size
    on_prefix = np.flatnonzero(scratch.prefix_cols[csr.indices.take(q_pos)])
    q_pos = q_pos.take(on_prefix)
    q_row = np.repeat(np.arange(probes.size), q_counts).take(on_prefix)
    q_cols = csr.indices.take(q_pos)
    cols = np.sort(q_cols)
    cols = cols[np.flatnonzero(np.diff(cols, prepend=-1))]
    # Column 0 of each table row stays 0: prefix entries on columns
    # none of these probes holds read it.
    width = cols.size + 1
    slot = scratch.slot
    slot[cols] = np.arange(1, width)
    q_cells = slot[q_cols]
    q_vals = csr.data.take(q_pos)
    p_pos, p_counts, runs = _ragged(prefix.indptr, right)
    p_row = np.repeat(np.cumsum(first) - 1, p_counts)
    p_cells = slot[prefix.indices.take(p_pos)]
    slot[cols] = 0
    products = np.empty(p_pos.size)
    # Probes in groups whose table rows fit the cell budget; both the
    # table entries and the reads are sorted by probe.
    group = max(1, _TABLE_CELLS // width)
    table = scratch.zeros(min(group, probes.size) * width)
    edges = np.arange(0, probes.size + group, group)
    q_cut = np.searchsorted(q_row, edges)
    p_cut = np.searchsorted(p_row, edges)
    for g in range(edges.size - 1):
        qa, qb, pa, pb = q_cut[g], q_cut[g + 1], p_cut[g], p_cut[g + 1]
        cells = (q_row[qa:qb] - edges[g]) * width + q_cells[qa:qb]
        table[cells] = q_vals[qa:qb]
        products[pa:pb] = table.take(
            (p_row[pa:pb] - edges[g]) * width + p_cells[pa:pb]
        )
        table[cells] = 0.0
    products *= prefix.data.take(p_pos)
    score[pairs] += np.add.reduceat(products, runs)
    return n_gathered + p_pos.size


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
    """Yield ``(generated, left, right, partial)`` for one block: the
    number of candidate pairs the product generated, the pairs left
    after the partial-score bound and their partial scores.

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
        left = cand.row.astype(np.int64)
        left += start + a
        right = cand.col.astype(np.int64)
        earlier = np.flatnonzero(right < left)
        left, right = left.take(earlier), right.take(earlier)
        partial = cand.data.take(earlier)
        reach = partial + np.minimum(
            prefix_bound[right], probe_norm[left] * prefix_norm[right]
        )
        keep = np.flatnonzero(reach >= floor)
        yield (
            earlier.size,
            left.take(keep),
            right.take(keep),
            partial.take(keep),
        )


def _row_window(csr: sp.csr_array, start: int, stop: int) -> sp.csr_array:
    """Rows ``start:stop`` as a CSR over views of ``csr``'s index and
    data arrays (O(rows), not O(nnz) like SciPy's slicing copy)."""
    lo, hi = csr.indptr[start], csr.indptr[stop]
    return sp.csr_array(
        (
            csr.data[lo:hi],
            csr.indices[lo:hi],
            csr.indptr[start : stop + 1] - lo,
        ),
        shape=(stop - start, csr.shape[1]),
    )


def _process_blocks(
    csr: sp.csr_array,
    index: _Index,
    threshold: float,
    block_size: int,
) -> _Found:
    """Run candidate generation, the bound and the prefix gate over
    every row block; returns the gate's survivors, not yet scored.

    The gate compares against ``threshold`` padded like
    :func:`_suffix_index`'s boundary: it sums a pair's products in
    another order than the exact score, and for non-negative terms
    the two sums differ by at most ``(longest row)·ε`` relative, so no
    pair the exact score keeps is dropped. Safe to call concurrently:
    it only reads its inputs.
    """
    n = csr.shape[0]
    longest = int(np.diff(csr.indptr).max()) if n else 0
    gate_floor = threshold * (
        1.0 - _BOUNDARY_SLACK - (longest + 2) * np.finfo(np.float64).eps
    )
    lefts: list[np.ndarray] = []
    rights: list[np.ndarray] = []
    n_candidates = n_verified = 0
    colcount = _suffix_column_counts(index.suffix)
    scratch = _GateScratch(index.prefix)
    for start in range(0, n, block_size):
        end = min(start + block_size, n)
        block = _row_window(csr, start, end)
        if block.nnz == 0:
            continue
        with span(f"gram_block[{start}]") as sp_:
            generated = verified = scored = gathered = 0
            for n_pairs, left, right, partial in _candidate_pairs(
                block,
                _row_window(index.suffix, 0, end),
                start,
                colcount,
                index.bounds,
                threshold,
            ):
                generated += n_pairs
                verified += left.size
                passed, entries = _prefix_gate(
                    csr,
                    index.prefix,
                    left,
                    right,
                    partial,
                    gate_floor,
                    scratch,
                )
                gathered += entries
                scored += passed.size
                lefts.append(left.take(passed))
                rights.append(right.take(passed))
            n_candidates += generated
            n_verified += verified
            sp_.set(
                rows=end - start,
                candidate_pairs=generated,
                verified_pairs=verified,
                scored_pairs=scored,
                gathered_entries=gathered,
            )
            metric_observe("gram_block_candidates", generated)
    left = np.concatenate(lefts) if lefts else np.empty(0, np.int64)
    right = np.concatenate(rights) if rights else np.empty(0, np.int64)
    return _Found(left, right, None, n_candidates, n_verified, left.size)


def _vectorized_engine(
    csr: sp.csr_array, threshold: float, block_size: int
) -> _Found:
    """Blocked array-native engine; see the module docstring. Returns
    the prefix gate's survivors, not yet scored."""
    with span("suffix_index") as sp_:
        col_max = _column_maxima(csr)
        index = _suffix_index(csr, col_max, threshold)
        sp_.set(indexed_nnz=index.suffix.nnz, nnz_in=csr.nnz)
    return _process_blocks(csr, index, threshold, block_size)


# ---------------------------------------------------------------------------
# Entry points


def thresholded_gram_matrix(
    rows: sp.csr_array,
    threshold: float,
    backend: str = "vectorized",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> sp.csr_array:
    """Off-diagonal entries of ``rows @ rows.T`` that are ``>= threshold``.

    Parameters
    ----------
    rows:
        Sparse ``(n, d)`` matrix with finite, non-negative values (the
        symmetrizations' scaled rows are non-negative by
        construction). Duplicate entries are summed and rows sorted on
        a copy.
    threshold:
        Positive similarity cut-off. The result is exact: it contains
        every off-diagonal pair with dot product at least
        ``threshold`` and nothing below it.
    backend:
        ``"vectorized"`` (default) — the blocked array-native engine;
        ``"python"`` — the row-at-a-time reference oracle. Both apply
        prefix-filter pruning and produce the same result (sparsity
        patterns may differ only for pairs whose similarity ties the
        threshold to within floating-point rounding).
    block_size:
        Rows per block in the vectorized backend.

    Returns
    -------
    Symmetric CSR ``(n, n)`` matrix.

    Notes
    -----
    The §3.6 point is the *candidate pruning* (pairs whose similarity
    provably falls below the threshold are never scored), implemented
    via prefix filtering in both backends and, in the vectorized one,
    a partial-score bound and a prefix gate before the exact score.
    For small thresholds it degrades gracefully toward a sparse matrix
    product.
    """
    csr = _validated_csr(rows, threshold)
    with span(f"allpairs:{backend}") as sp_:
        found = _search(csr, threshold, backend, block_size)
        if found.values is None:
            left, right, values = _score_and_keep(
                csr, found.left, found.right, threshold
            )
        else:
            left, right, values = found.left, found.right, found.values
        count_funnel(found, left.size)
        n = csr.shape[0]
        result = sp.coo_array((values, (left, right)), shape=(n, n)).tocsr()
        result = (result + result.T).tocsr()
        sp_.set(rows=csr.shape[0], threshold=threshold, nnz_out=result.nnz)
    return result


def _search(
    csr: sp.csr_array,
    threshold: float,
    backend: str,
    block_size: int,
) -> _Found:
    """Run one engine on a matrix that passed ``_validated_csr``; returns
    its surviving pairs, scored only by the oracle."""
    if backend == "vectorized":
        if block_size < 1:
            raise SymmetrizationError("block_size must be >= 1")
        return _vectorized_engine(csr, threshold, block_size)
    if backend == "python":
        return _python_engine(csr, threshold)
    raise SymmetrizationError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )


def count_funnel(found: _Found, kept: int) -> None:
    """Count a search's pair funnel, ending in the ``kept`` pairs:
    generated by the candidate product ≥ verified (left after the
    bound) ≥ scored exactly (left after the prefix gate) ≥ kept."""
    metric_inc("allpairs_candidate_pairs_total", found.candidates)
    metric_inc("allpairs_pairs_verified_total", found.verified)
    metric_inc("allpairs_pairs_scored_total", found.scored)
    metric_inc("allpairs_pairs_pruned_total", found.candidates - kept)
