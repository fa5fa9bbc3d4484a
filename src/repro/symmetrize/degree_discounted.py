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
from repro.symmetrize.base import Symmetrization, register_symmetrization

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
        adj = graph.adjacency.tocsr()
        d_out = graph.out_degrees(weighted=self.weighted_degrees)
        d_in = graph.in_degrees(weighted=self.weighted_degrees)
        out_disc = sp.diags_array(self._discount(d_out, self.alpha)).tocsr()
        in_disc = sp.diags_array(self._discount(d_in, self.beta)).tocsr()

        # Shared factors: X = Do^-a A Di^-b appears in both terms
        # (B_d = X (Do^-a A)ᵀ... expanded explicitly for clarity).
        a_scaled = (out_disc @ adj @ in_disc).tocsr()  # Do^-a A Di^-b
        parts = []
        if self.include_coupling:
            # B_d = Do^-a A Di^-b Aᵀ Do^-a = a_scaled @ (Do^-a A)ᵀ
            left = (out_disc @ adj).tocsr()
            parts.append((a_scaled @ left.T).tocsr())
        if self.include_cocitation:
            # C_d = Di^-b Aᵀ Do^-a A Di^-b = (A Di^-b)ᵀ @ a_scaled...
            right = (adj @ in_disc).tocsr()
            parts.append((right.T @ (out_disc @ right)).tocsr())
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total.tocsr()

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
        if isinstance(self.alpha, str) or isinstance(self.beta, str):
            raise SymmetrizationError(
                "apply_pruned requires numeric alpha/beta"
            )
        adj = graph.adjacency.tocsr()
        d_out = graph.out_degrees(weighted=self.weighted_degrees)
        d_in = graph.in_degrees(weighted=self.weighted_degrees)
        out_a = sp.diags_array(
            self._discount(d_out, float(self.alpha))
        ).tocsr()
        out_half = sp.diags_array(
            self._discount(d_out, float(self.alpha) / 2.0)
        ).tocsr()
        in_b = sp.diags_array(
            self._discount(d_in, float(self.beta))
        ).tocsr()
        in_half = sp.diags_array(
            self._discount(d_in, float(self.beta) / 2.0)
        ).tocsr()
        factors = []
        if self.include_coupling:
            factors.append((out_a @ adj @ in_half).tocsr())
        if self.include_cocitation:
            factors.append(
                (in_b @ adj.T.tocsr() @ out_half).tocsr()
            )
        return factors

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
        ``2 · TIE_RTOL`` below the keep level; its few surviving pairs
        are then re-scored per factor (gathered rows of ``W``, each
        factor's column range multiplied elementwise and row-summed,
        ``Y`` then ``Z``) and filtered exactly. The search's
        verification and this re-score gather rows in batches capped
        by gathered entries, not pairs, so hub rows cannot blow up a
        batch.

        Requires numeric ``alpha``/``beta`` (the ``"log"`` discount
        has no symmetric square-root factorization) and a positive
        threshold. ``backend``/``block_size``/``n_jobs`` are forwarded
        to :func:`~repro.linalg.allpairs.thresholded_gram_matrix`
        (``block_size=None`` means its default, and a ``block_size``
        below 1 raises :class:`SymmetrizationError`);
        with ``n_jobs > 1`` the search runs through the out-of-core
        row-block shard fan-out (``W`` is spilled to memory-mapped CSR
        stores and workers receive shard descriptors, not matrices),
        so peak RSS stays bounded by the block size rather than the
        factor size.
        Output matches ``apply(graph, threshold=threshold)``
        edge-for-edge: shared entries agree to ~1 ULP, and the final
        filter uses a relative tolerance of ``1e-12`` so pairs whose
        similarity ties the threshold exactly land on the *keep* side
        in both paths instead of falling either way with summation
        order.
        """
        from repro.graph.ugraph import UndirectedGraph
        from repro.linalg.allpairs import (
            DEFAULT_BLOCK_SIZE,
            _gather_batches,
            _gram_search,
        )
        from repro.obs.metrics import (
            metric_inc,
            metric_set,
            peak_rss_bytes,
        )
        from repro.obs.trace import span
        from repro.perf.stopwatch import add_counters

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
                factors = self.pruning_factors(graph)
                # Column range of each factor inside W; the factors
                # themselves are dropped so only W stays resident.
                ends = np.cumsum([0] + [f.shape[1] for f in factors])
                stacked = sp.hstack(factors, format="csr")
                del factors
            # The search's W-products sum in another order than the
            # per-factor scores below and can differ in the last bits;
            # searching TIE_RTOL below the keep level's own tolerance
            # keeps every pair the final filter could keep.
            found, n_scored = _gram_search(
                stacked,
                threshold * (1.0 - 2.0 * TIE_RTOL),
                include_diagonal=False,
                backend=backend,
                block_size=(
                    DEFAULT_BLOCK_SIZE if block_size is None else block_size
                ),
                n_jobs=n_jobs,
            )
            # Each unordered pair is verified once (strict upper
            # triangle; the diagonal never enters).
            with span("verify_candidates") as sp_:
                pairs = sp.triu(found, k=1).tocoo()
                left = pairs.row.astype(np.int64)
                right = pairs.col.astype(np.int64)
                values = np.zeros(left.size)
                for sl in _gather_batches(stacked.indptr, left, right):
                    rows_l, rows_r = stacked[left[sl]], stacked[right[sl]]
                    for a, b in zip(ends[:-1], ends[1:]):
                        values[sl] += np.asarray(
                            rows_l[:, a:b]
                            .multiply(rows_r[:, a:b])
                            .sum(axis=1)
                        ).ravel()
                # Relative tolerance so threshold ties survive in this
                # path exactly as they do in apply()'s prune_matrix
                # cut, regardless of floating-point summation order.
                keep = values >= threshold * (1.0 - TIE_RTOL)
                n_kept = int(keep.sum())
                sp_.set(candidate_pairs=int(left.size), kept_pairs=n_kept)
            add_counters(
                "apply_pruned:degree_discounted",
                candidate_pairs=left.size,
                kept_pairs=n_kept,
                pruned_pairs=int(left.size - n_kept),
            )
            # Every pair the threshold cut after scoring it: in the
            # search's verification or in the filter above.
            metric_inc("edges_pruned_total", int(n_scored - n_kept))
            total = sp.coo_array(
                (values[keep], (left[keep], right[keep])),
                shape=(graph.n_nodes, graph.n_nodes),
            ).tocsr()
            total = (total + total.T).tocsr()
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
