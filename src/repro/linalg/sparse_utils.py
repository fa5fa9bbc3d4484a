"""CSR matrix utilities: normalization, scaling, pruning, top-k.

These operations are the building blocks of the symmetrizations:
degree scaling implements the ``D^-alpha`` factors of Eq. 6–8, pruning
implements §3.5, and top-k extraction regenerates Table 5 (the
top-weighted edges of each symmetrized Wikipedia graph).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError, SymmetrizationError

__all__ = [
    "TIE_RTOL",
    "row_normalize",
    "degree_scale",
    "degree_power",
    "prune_matrix",
    "prune_mask",
    "drop_diagonal",
    "symmetric_average",
    "top_k_entries",
    "sample_rows_similarity",
]

#: Relative tolerance for threshold comparisons: a value within
#: ``threshold * TIE_RTOL`` below the threshold counts as a tie and is
#: kept. A similarity meant to equal the threshold — one of the graph's
#: own similarities, or a threshold computed from the degrees — lands
#: a few ULPs either side of it once summed in floating point, so an
#: exact comparison would drop such a tie or keep it by rounding luck.
TIE_RTOL = 1e-12


def row_normalize(matrix: sp.csr_array) -> sp.csr_array:
    """Scale each row to sum to 1 (zero rows stay zero)."""
    csr = matrix.tocsr()
    sums = np.asarray(csr.sum(axis=1)).ravel()
    inv = np.divide(
        1.0, sums, out=np.zeros_like(sums), where=sums != 0
    )
    return (sp.diags_array(inv) @ csr).tocsr()


def degree_power(degrees: np.ndarray, exponent: float) -> np.ndarray:
    """Element-wise ``degrees ** -exponent`` with 0 ** -x defined as 0.

    This is the convention the degree-discounted symmetrization needs:
    a node with zero out-degree contributes nothing to out-link
    similarity, so its scaling factor is immaterial and set to zero to
    avoid division by zero.

    An ``exponent`` of 0 returns an indicator of non-zero degree (nodes
    with no links still must not contribute).
    """
    deg = np.asarray(degrees, dtype=np.float64)
    if np.any(deg < 0):
        raise SymmetrizationError("degrees must be non-negative")
    out = np.zeros_like(deg)
    nz = deg > 0
    out[nz] = deg[nz] ** (-exponent)
    return out


def degree_scale(
    matrix: sp.csr_array,
    row_factors: np.ndarray | None = None,
    col_factors: np.ndarray | None = None,
) -> sp.csr_array:
    """Compute ``diag(row_factors) @ M @ diag(col_factors)`` sparsely."""
    csr = matrix.tocsr()
    if row_factors is not None:
        row_factors = np.asarray(row_factors, dtype=np.float64)
        if row_factors.size != csr.shape[0]:
            raise GraphError("row_factors length mismatch")
        csr = sp.diags_array(row_factors).tocsr() @ csr
    if col_factors is not None:
        col_factors = np.asarray(col_factors, dtype=np.float64)
        if col_factors.size != csr.shape[1]:
            raise GraphError("col_factors length mismatch")
        csr = csr @ sp.diags_array(col_factors).tocsr()
    return csr.tocsr()


def prune_matrix(
    matrix: sp.csr_array,
    threshold: float,
    keep_diagonal: bool = False,
) -> sp.csr_array:
    """Drop entries with value strictly below ``threshold`` (§3.5).

    Values within a relative tolerance of :data:`TIE_RTOL` below the
    threshold count as ties and are kept (:func:`prune_mask`), so a
    similarity that ties the threshold is kept whichever way its last
    bits rounded.

    A threshold of 0 only removes explicit zeros. With
    ``keep_diagonal=True`` diagonal entries survive regardless of value
    (useful when self-similarities carry bookkeeping information).

    One compress of the kept entries; rows are re-sorted and
    duplicates summed only when the kept entries are not canonical.
    Above threshold 0 the result is a canonical ``csr_array``.
    """
    if threshold < 0:
        raise SymmetrizationError("prune threshold must be >= 0")
    csr = matrix.tocsr()
    if threshold == 0:
        csr = csr.copy()
        csr.eliminate_zeros()
        return csr
    keep = prune_mask(csr.data, threshold)
    if keep_diagonal:
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        keep |= csr.indices == rows
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        return sp.csr_array(csr.shape, dtype=csr.dtype)
    # 64-bit indices stay 64-bit; shapes or entry counts past 32 bits
    # need them.
    dtype = np.int32
    if csr.indices.dtype != np.int32 or (
        max(*csr.shape, kept.size) > np.iinfo(np.int32).max
    ):
        dtype = np.int64
    pruned = sp.csr_array(
        (
            csr.data.take(kept),
            csr.indices.take(kept).astype(dtype, copy=False),
            np.searchsorted(kept, csr.indptr).astype(dtype, copy=False),
        ),
        shape=csr.shape,
    )
    if not pruned.has_canonical_format:
        pruned.sum_duplicates()
    if keep_diagonal:
        # Zeros the diagonal rule kept (or duplicates that cancelled)
        # leave only now: a result of such zeros alone keeps the
        # input's index dtype, not an empty matrix's 32-bit one.
        pruned.eliminate_zeros()
    return pruned


def prune_mask(values: np.ndarray, threshold: float) -> np.ndarray:
    """Which ``values`` :func:`prune_matrix` keeps at a positive
    ``threshold``: those at least ``threshold · (1 − TIE_RTOL)``."""
    return values >= threshold * (1.0 - TIE_RTOL)


def drop_diagonal(matrix: sp.csr_array) -> sp.csr_array:
    """``matrix`` without its diagonal and its stored zeros, canonical.

    One CSR compress with the bytes of the ``tolil()`` →
    ``setdiag(0)`` → ``tocsr()`` → ``eliminate_zeros()`` round trip
    (including its 32-bit indices while they fit), without LIL's
    per-row Python loop.
    """
    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    kept = np.flatnonzero((csr.indices != rows) & (csr.data != 0))
    dtype = np.int32
    if max(csr.shape[1], kept.size) > np.iinfo(np.int32).max:
        dtype = np.int64
    return sp.csr_array(
        (
            csr.data.take(kept),
            csr.indices.take(kept).astype(dtype, copy=False),
            np.searchsorted(kept, csr.indptr).astype(dtype, copy=False),
        ),
        shape=csr.shape,
    )


def symmetric_average(
    matrix: sp.csr_array, drop_self_loops: bool = True
) -> sp.csr_array:
    """``(M + Mᵀ) · 0.5`` of a pruned similarity ``M`` (without its
    diagonal unless ``drop_self_loops`` is off), which cleans the tiny
    asymmetries of floating-point products: the last step of
    ``apply`` and ``apply_pruned``, in :func:`drop_diagonal`'s index
    dtype."""
    if drop_self_loops:
        matrix = drop_diagonal(matrix)
    return ((matrix + matrix.T) * 0.5).tocsr()


def top_k_entries(
    matrix: sp.csr_array,
    k: int,
    upper_triangle_only: bool = True,
    exclude_diagonal: bool = True,
) -> list[tuple[int, int, float]]:
    """The ``k`` largest entries of a sparse matrix as ``(i, j, value)``.

    With the defaults, symmetric matrices report each undirected edge
    once and self-similarities are skipped — the form of Table 5.
    Entries are returned in descending value order.
    """
    if k < 0:
        raise GraphError("k must be >= 0")
    coo = matrix.tocoo()
    mask = np.ones(coo.nnz, dtype=bool)
    if exclude_diagonal:
        mask &= coo.row != coo.col
    if upper_triangle_only:
        mask &= coo.row <= coo.col
    rows, cols, vals = coo.row[mask], coo.col[mask], coo.data[mask]
    if vals.size == 0 or k == 0:
        return []
    k = min(k, vals.size)
    top = np.argpartition(vals, -k)[-k:]
    order = top[np.argsort(vals[top])[::-1]]
    return [
        (int(rows[t]), int(cols[t]), float(vals[t])) for t in order
    ]


def sample_rows_similarity(
    matrix: sp.csr_array,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Nonzero values from a random sample of rows of a matrix.

    This is the §5.3.1 threshold-selection primitive: "compute all the
    similarities corresponding to a small random sample of the nodes,
    and choose a prune threshold such that the average degree when this
    threshold is applied to the random sample approximates the final
    average degree that the user desires." The returned values are the
    sampled similarities; threshold selection on them lives in
    :func:`repro.symmetrize.pruning.choose_threshold_for_degree`.
    """
    csr = matrix.tocsr()
    n = csr.shape[0]
    if n == 0:
        return np.array([], dtype=np.float64)
    n_samples = min(max(1, n_samples), n)
    sample = rng.choice(n, size=n_samples, replace=False)
    chunks = [
        csr.data[csr.indptr[i]: csr.indptr[i + 1]] for i in sample
    ]
    if not chunks:
        return np.array([], dtype=np.float64)
    return np.concatenate(chunks) if chunks else np.array([])
