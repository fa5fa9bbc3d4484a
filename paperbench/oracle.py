"""Independent reference for the degree-discounted symmetrization.

Computes ``U_d = Do^-1/2 A Di^-1/2 Aᵀ Do^-1/2 + Di^-1/2 Aᵀ Do^-1/2 A
Di^-1/2`` (Eq. 8 with alpha = beta = 1/2) with plain SciPy products and
prunes it at a threshold. It shares no code with the package under
test, so it checks both the full-matrix path and the all-pairs fast
path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Pairs whose similarity is this close (relative) to the threshold may
#: land on either side of it, depending on summation order.
TIE_BAND = 1e-9

#: Relative tolerance for the similarity values of kept pairs.
VALUE_RTOL = 1e-9


def _inv_sqrt(degrees: np.ndarray) -> np.ndarray:
    out = np.zeros_like(degrees, dtype=np.float64)
    nz = degrees > 0
    out[nz] = 1.0 / np.sqrt(degrees[nz])
    return out


def similarity(adjacency: sp.sparray) -> sp.csr_array:
    """The unpruned ``U_d`` of a directed adjacency matrix."""
    a = sp.csr_array(adjacency, dtype=np.float64)
    do = sp.diags_array(_inv_sqrt(np.asarray(a.sum(axis=1)).ravel()))
    di = sp.diags_array(_inv_sqrt(np.asarray(a.sum(axis=0)).ravel()))
    coupling = do @ a @ di @ a.T @ do
    cocitation = di @ a.T @ do @ a @ di
    return sp.csr_array(coupling + cocitation)


def _upper(matrix: sp.sparray) -> tuple[np.ndarray, np.ndarray]:
    """Strict upper triangle as (row * n + col keys, values), sorted."""
    coo = sp.triu(sp.coo_array(matrix), k=1).tocoo()
    keep = coo.data != 0
    keys = coo.row[keep].astype(np.int64) * matrix.shape[0] + coo.col[keep]
    order = np.argsort(keys)
    return keys[order], coo.data[keep][order]


class Similarity:
    """The upper-triangle ``U_d`` values of one graph, sorted, to bound
    the edge count of its pruning at any threshold."""

    def __init__(self, adjacency: sp.sparray) -> None:
        self.values = np.sort(_upper(similarity(adjacency))[1])

    def edge_count_range(self, threshold: float) -> tuple[int, int]:
        """Fewest and most edges a correct pruning at ``threshold``
        keeps: the pairs clearly above it, and those plus the ties."""
        n = self.values.size
        low = n - np.searchsorted(self.values, threshold * (1 + TIE_BAND))
        high = n - np.searchsorted(self.values, threshold * (1 - TIE_BAND))
        return int(low), int(high)


def check_pruned(
    adjacency: sp.sparray, threshold: float, output: sp.sparray
) -> list[str]:
    """Differences between ``output`` and ``U_d`` pruned at ``threshold``.

    ``output`` is the symmetrized adjacency the program produced. Every
    pair clearly above the threshold must be present with the reference
    value, and no pair clearly below it may be present. Returns a list
    of problems, empty when the output is correct.
    """
    ref_keys, ref_vals = _upper(similarity(adjacency))
    out_keys, out_vals = _upper(output)
    problems = []
    if output.shape != adjacency.shape:
        return [f"shape {output.shape} != {adjacency.shape}"]
    asym = abs(sp.csr_array(output) - sp.csr_array(output).T)
    if asym.nnz and asym.max() > VALUE_RTOL * abs(output).max():
        problems.append("output is not symmetric")
    must = ref_keys[ref_vals >= threshold * (1 + TIE_BAND)]
    may = ref_keys[ref_vals >= threshold * (1 - TIE_BAND)]
    missing = np.setdiff1d(must, out_keys, assume_unique=True)
    extra = np.setdiff1d(out_keys, may, assume_unique=True)
    if missing.size:
        problems.append(f"{missing.size} pair(s) above threshold missing")
    if extra.size:
        problems.append(f"{extra.size} pair(s) below threshold kept")
    common, ref_at, out_at = np.intersect1d(
        ref_keys, out_keys, assume_unique=True, return_indices=True
    )
    if common.size and not np.allclose(
        out_vals[out_at], ref_vals[ref_at], rtol=VALUE_RTOL, atol=0.0
    ):
        problems.append("similarity values differ from the reference")
    return problems
