"""Degree-discounted symmetrization (§3.4, Eq. 6–8) — the paper's
main contribution.

The bibliometric similarity of two nodes is discounted by their own
degrees and by the degrees of the shared neighbours:

- When ``i`` and ``j`` both point to ``k``, the event is less
  informative the more *other* nodes also point to ``k`` — so the
  contribution is divided by ``D_i(k)^beta`` (Figure 3a).
- Sharing an out-link counts for less when ``i`` or ``j`` has many
  out-links anyway — so the similarity is divided by
  ``D_o(i)^alpha * D_o(j)^alpha`` (Figure 3b).

The degree-discounted bibliographic coupling (Eq. 6) and co-citation
(Eq. 7) matrices are::

    B_d = Do^-alpha  A  Di^-beta  Aᵀ Do^-alpha
    C_d = Di^-beta   Aᵀ Do^-alpha A  Di^-beta

and the final similarity is ``U_d = B_d + C_d`` (Eq. 8). The paper
finds ``alpha = beta = 0.5`` best (§5.5, Table 4) — equivalent to
L2-normalizing raw dot-products, i.e. cosine-style similarity — with
full-degree discounting (exponent 1) an excessive penalty and 0.25 or
log-degree insufficient.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SymmetrizationError
from repro.graph.digraph import DirectedGraph
from repro.linalg.sparse_utils import TIE_RTOL, degree_power
from repro.symmetrize.base import (
    Symmetrization,
    register_symmetrization,
    sum_of_parts,
)

__all__ = ["DegreeDiscountedSymmetrization", "TIE_RTOL"]


@register_symmetrization("degree_discounted")
class DegreeDiscountedSymmetrization(Symmetrization):
    """``U_d = Do^-a A Di^-b Aᵀ Do^-a + Di^-b Aᵀ Do^-a A Di^-b`` (Eq. 8).

    Parameters
    ----------
    alpha:
        Out-degree discount exponent. Also accepts the string
        ``"log"`` for the IDF-style ``1 / log(1 + d)`` discount the
        paper evaluates in Table 4.
    beta:
        In-degree discount exponent (same convention).
    include_coupling, include_cocitation:
        Ablation switches for ``B_d`` and ``C_d`` individually.
    weighted_degrees:
        Use weighted degrees (sums of edge weights) rather than edge
        counts. For the 0/1 graphs of the paper both are identical;
        weighted is the natural generalization and the default.

    Examples
    --------
    >>> from repro.graph import DirectedGraph
    >>> g = DirectedGraph.from_edges([(0, 2), (1, 2)], n_nodes=3)
    >>> u = DegreeDiscountedSymmetrization().apply(g)
    >>> round(u.edge_weight(0, 1), 3)  # 1/sqrt(1*1)/2 = 0.5
    0.5
    """

    def __init__(
        self,
        alpha: float | str = 0.5,
        beta: float | str = 0.5,
        include_coupling: bool = True,
        include_cocitation: bool = True,
        weighted_degrees: bool = True,
    ) -> None:
        for name, value in (("alpha", alpha), ("beta", beta)):
            if isinstance(value, str):
                if value != "log":
                    raise SymmetrizationError(
                        f"{name} must be a number or 'log', got {value!r}"
                    )
            elif value < 0:
                raise SymmetrizationError(f"{name} must be >= 0")
        if not (include_coupling or include_cocitation):
            raise SymmetrizationError(
                "at least one of coupling/co-citation must be included"
            )
        self.alpha = alpha
        self.beta = beta
        self.include_coupling = bool(include_coupling)
        self.include_cocitation = bool(include_cocitation)
        self.weighted_degrees = bool(weighted_degrees)

    @staticmethod
    def _discount(degrees: np.ndarray, exponent: float | str) -> np.ndarray:
        """``d^-exponent`` (or ``1/log(1+d)`` for "log"), with 0 -> 0."""
        if exponent == "log":
            deg = np.asarray(degrees, dtype=np.float64)
            out = np.zeros_like(deg)
            nz = deg > 0
            out[nz] = 1.0 / np.log1p(deg[nz])
            return out
        return degree_power(degrees, float(exponent))

    def compute_matrix(self, graph: DirectedGraph) -> sp.csr_array:
        terms = self.product_terms(graph)
        if self.include_cocitation:
            # C_d's product runs column-oriented, which stores its rows
            # sorted; the stored order of the sum depends on it (its
            # values do not).
            left, right = terms[-1]
            terms[-1] = (left.tocsc(), right)
        return sum_of_parts([(left @ right).tocsr() for left, right in terms])

    def product_terms(
        self, graph: DirectedGraph
    ) -> list[tuple[sp.csr_array, sp.csr_array]]:
        """``(X, (Do^-α A)ᵀ)`` for ``B_d`` and ``((A Di^-β)ᵀ,
        Do^-α (A Di^-β))`` for ``C_d``, as included, with
        ``X = (Do^-α A) Di^-β``. Each factor is built by SciPy's
        diagonal products in the association written, which fixes the
        last bits of its weighted entries."""
        adj = graph.adjacency.tocsr()
        d_out = graph.out_degrees(weighted=self.weighted_degrees)
        d_in = graph.in_degrees(weighted=self.weighted_degrees)
        out_disc = sp.diags_array(self._discount(d_out, self.alpha)).tocsr()
        in_disc = sp.diags_array(self._discount(d_in, self.beta)).tocsr()
        terms = []
        if self.include_coupling:
            left = (out_disc @ adj).tocsr()
            terms.append(((left @ in_disc).tocsr(), left.T.tocsr()))
        if self.include_cocitation:
            right = (adj @ in_disc).tocsr()
            terms.append((right.T.tocsr(), (out_disc @ right).tocsr()))
        return terms

    def pruning_factors(
        self, graph: DirectedGraph
    ) -> list[sp.csr_array]:
        """The square-root factors of the §3.6 fast path.

        Returns ``Y`` with ``B_d = Y Yᵀ`` (when coupling is included)
        and ``Z`` with ``C_d = Z Zᵀ`` (when co-citation is included);
        :meth:`apply_pruned` searches them stacked side by side.
        Exposed so tests and the scale bench can check the pruned
        output against a plain sparse product of the same factors.
        """
        n = graph.n_nodes
        return [
            sp.csr_array(
                (data, indices.copy(), indptr.copy()), shape=(n, n)
            )
            for indptr, indices, data in self._factor_arrays(graph)
        ]

    def _factor_arrays(
        self, graph: DirectedGraph
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """CSR arrays ``(indptr, indices, data)`` of ``Y = Do^-α A
        Di^-β/2`` and ``Z = Di^-β Aᵀ Do^-α/2``, as included.

        Each is an elementwise scaling of the stored entries of ``A``
        or ``Aᵀ``, ``(d[row] * a) * d'[col]``: the multiplication
        order of SciPy's diagonal products ``diag @ A @ diag``, whose
        bytes (sorted indices, zero products dropped, the adjacency's
        index dtype) these arrays reproduce.
        """
        if isinstance(self.alpha, str) or isinstance(self.beta, str):
            raise SymmetrizationError(
                "apply_pruned requires numeric alpha/beta"
            )
        adj = graph.adjacency.tocsr()
        d_out = graph.out_degrees(weighted=self.weighted_degrees)
        d_in = graph.in_degrees(weighted=self.weighted_degrees)
        alpha, beta = float(self.alpha), float(self.beta)
        factors = []
        if self.include_coupling:
            factors.append(
                _scaled(
                    adj,
                    self._discount(d_out, alpha),
                    self._discount(d_in, beta / 2.0),
                )
            )
        if self.include_cocitation:
            factors.append(
                _scaled(
                    adj.T.tocsr(),
                    self._discount(d_in, beta),
                    self._discount(d_out, alpha / 2.0),
                )
            )
        return factors

    def _stacked_factor(
        self, graph: DirectedGraph
    ) -> tuple[sp.csr_array, np.ndarray]:
        """``W = [Y | Z]`` (or the one included factor) and the column
        range of each factor inside it.

        Each row of ``W`` is the factors' rows laid side by side, so
        ``W``'s bytes equal ``sp.hstack(pruning_factors(graph),
        format="csr")``; the factors' arrays are written into ``W`` in
        one pass and not kept.
        """
        n = graph.n_nodes
        factors = self._factor_arrays(graph)
        ends = np.arange(len(factors) + 1, dtype=np.int64) * n
        counts = [np.diff(indptr) for indptr, _, _ in factors]
        nnz = sum(indices.size for _, indices, _ in factors)
        dtype = np.result_type(*(indptr for indptr, _, _ in factors))
        if max(nnz, int(ends[-1]) - 1) > np.iinfo(np.int32).max:
            dtype = np.int64
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(sum(counts), out=indptr[1:])
        indices = np.empty(nnz, dtype=dtype)
        data = np.empty(nnz)
        # Next free slot of each W row, advanced past each factor.
        offset = indptr[:-1].astype(np.int64)
        for (f_indptr, f_indices, f_data), count, col0 in zip(
            factors, counts, ends
        ):
            dest = np.arange(f_indices.size) + np.repeat(
                offset - f_indptr[:-1], count
            )
            indices[dest] = f_indices + col0
            data[dest] = f_data
            offset += count
        stacked = sp.csr_array(
            (data, indices, indptr), shape=(n, int(ends[-1]))
        )
        return stacked, ends

    def apply_pruned(
        self,
        graph: DirectedGraph,
        threshold: float,
        backend: str = "vectorized",
        block_size: int | None = None,
        n_jobs: int | None = None,
    ):
        """Compute the symmetrized graph *directly at* a prune
        threshold, never materializing the full similarity matrix.

        Uses the §3.6 idea (Bayardo et al.'s threshold-aware all-pairs
        similarity) via the factorizations ``B_d = Y Yᵀ`` with
        ``Y = Do^-α A Di^-β/2`` and ``C_d = Z Zᵀ`` with
        ``Z = Di^-β Aᵀ Do^-α/2``: the stacked factor ``W = [Y | Z]``
        has ``W Wᵀ = B_d + C_d = U_d``, so one all-pairs search of
        ``W`` finds every pair reaching the threshold. The search runs
        ``2 · TIE_RTOL`` below the keep level; the pairs left after
        its prefix gate are then scored exactly once per factor (both
        rows of ``W`` gathered and multiplied once, each factor's
        column range summed, ``Y`` then ``Z``) and kept at
        ``threshold · (1 − TIE_RTOL)``. Every row gather is batched by
        gathered entries, not pairs, so hub rows cannot blow up a
        batch.

        Requires numeric ``alpha``/``beta`` (the ``"log"`` discount
        has no symmetric square-root factorization) and a positive
        threshold. ``backend``/``block_size``/``n_jobs`` are forwarded
        to :func:`~repro.linalg.allpairs.thresholded_gram_matrix`'s
        engines (``block_size=None`` means its default, and a
        ``block_size`` below 1 raises :class:`SymmetrizationError`);
        with ``n_jobs > 1`` the search and the exact score run in
        worker processes (``W`` is spilled to memory-mapped CSR stores
        and workers receive shard descriptors, not matrices). ``W``,
        its suffix index and the merged output are still built in
        this process, so peak RSS grows with the graph either way.
        Output matches ``apply(graph, threshold=threshold)``
        edge-for-edge. Shared entries differ by a few ULP, because the
        two paths sum in other orders: at most 3 on the paper-prune
        graphs, 9 on other power-law graphs and 13 on Wikipedia-like
        graphs, as measured. The final filter uses a relative
        tolerance of ``1e-12``, so pairs whose similarity ties the
        threshold exactly land on the *keep* side in both paths
        instead of falling either way with summation order.
        """
        from repro.graph.ugraph import UndirectedGraph
        from repro.linalg.allpairs import (
            DEFAULT_BLOCK_SIZE,
            _search,
            _select,
            _symmetric,
            _validated_csr,
        )
        from repro.obs.metrics import (
            metric_inc,
            metric_set,
            peak_rss_bytes,
        )
        from repro.obs.trace import span

        if threshold <= 0:
            raise SymmetrizationError(
                "apply_pruned requires a positive threshold; "
                "use apply() for threshold 0"
            )
        with span("symmetrize:degree_discounted_pruned") as root:
            root.set(
                threshold=threshold,
                backend=backend,
                n_nodes=graph.n_nodes,
                nnz_in=graph.adjacency.nnz,
            )
            with span("pruning_factors"):
                stacked, ends = self._stacked_factor(graph)
            # The gate and the per-factor scores below sum in other
            # orders than apply()'s products and can differ in the last
            # bits; searching TIE_RTOL below the keep level's own
            # tolerance keeps every pair the keep level could keep.
            search = threshold * (1.0 - 2.0 * TIE_RTOL)
            keep_level = threshold * (1.0 - TIE_RTOL)
            csr = _validated_csr(stacked, search)
            with span(f"allpairs:{backend}") as sp_:
                found = _search(
                    csr,
                    search,
                    backend,
                    DEFAULT_BLOCK_SIZE if block_size is None else block_size,
                    n_jobs,
                    ends,
                    keep_level,
                )
                sp_.set(rows=csr.shape[0], threshold=search)
            with span("verify_candidates") as sp_:
                left, right, values = _select(csr, found, ends, keep_level)
                n_kept = int(left.size)
                sp_.set(candidate_pairs=found.scored, kept_pairs=n_kept)
            # Every pair the threshold cut after scoring it: the gate
            # scores each verified pair in full (suffix plus prefix).
            metric_inc("edges_pruned_total", found.verified - n_kept)
            total = _symmetric(graph.n_nodes, left, right, values)
            root.set(nnz_out=total.nnz)
            metric_set("symmetrize_nnz_out", total.nnz)
            metric_set("peak_rss_bytes", peak_rss_bytes())
        return UndirectedGraph(
            total, node_names=graph.node_names, validate=False
        )

    def __repr__(self) -> str:
        return (
            f"DegreeDiscountedSymmetrization(alpha={self.alpha!r}, "
            f"beta={self.beta!r})"
        )


def _scaled(
    csr: sp.csr_array, row_scale: np.ndarray, col_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of ``diag(row_scale) @ csr @ diag(col_scale)``, each
    stored entry ``(row_scale[row] * a) * col_scale[col]``; products
    that round to zero are dropped, as SciPy's sparse product drops
    them. The index arrays may be ``csr``'s own."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    data = row_scale[rows] * csr.data
    data *= col_scale[csr.indices]
    if data.all():
        return csr.indptr, csr.indices, data
    nonzero = data != 0
    indptr = np.zeros_like(csr.indptr)
    np.cumsum(
        np.bincount(rows[nonzero], minlength=csr.shape[0]), out=indptr[1:]
    )
    return indptr, csr.indices[nonzero], data[nonzero]
