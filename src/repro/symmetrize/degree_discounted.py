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

from typing import NamedTuple

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
        last bits of its weighted entries; :meth:`_factor_terms`
        computes the same bits for :meth:`apply_pruned`."""
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
            for data, indices, indptr in map(
                _nonzero, self._factor_terms(graph)
            )
        ]

    def _factor_terms(self, graph: DirectedGraph) -> list["_Term"]:
        """``B_d`` on the stored pattern of ``A`` and ``C_d`` on that of
        ``Aᵀ``, as included, with the values of :meth:`product_terms`'
        ``L`` and ``Rᵀ`` and of the square-root factor there.

        Each entry is ``(d[row] * a) * d'[col]``, the multiplications of
        SciPy's diagonal products in the association
        :meth:`product_terms` writes, so the values are its factors'
        bits. A product that rounds to zero stays stored, adding
        nothing to a sum; :func:`_nonzero` drops it from ``Y``/``Z``.
        """
        if isinstance(self.alpha, str) or isinstance(self.beta, str):
            raise SymmetrizationError(
                "apply_pruned requires numeric alpha/beta"
            )
        adj = graph.adjacency.tocsr()
        d_o = graph.out_degrees(weighted=self.weighted_degrees)
        d_i = graph.in_degrees(weighted=self.weighted_degrees)
        alpha, beta = float(self.alpha), float(self.beta)
        out_disc = self._discount(d_o, alpha)
        in_disc = self._discount(d_i, beta)
        terms = []
        if self.include_coupling:
            # Do^-α A is Rᵀ; L scales it by Di^-β, Y by Di^-β/2.
            half = self._discount(d_i, beta / 2)
            terms.append(_term(adj, out_disc, in_disc, half, True))
        if self.include_cocitation:
            # Di^-β Aᵀ is L; Rᵀ scales it by Do^-α, Z by Do^-α/2.
            half = self._discount(d_o, alpha / 2)
            terms.append(_term(adj.T.tocsr(), in_disc, out_disc, half, False))
        return terms

    def _stacked_factor(
        self, graph: DirectedGraph
    ) -> tuple["_Term", sp.csr_array]:
        """:meth:`_factor_terms` laid side by side, and ``W = [Y | Z]``.

        Term ``t`` takes columns ``[t·n, (t+1)·n)`` of one ``(n,
        terms·n)`` pattern, each row the terms' rows in order, with all
        three value arrays moved along in one pass. ``W`` is its
        nonzero square-root values, so its bytes equal
        ``sp.hstack(pruning_factors(graph), format="csr")``.
        """
        n = graph.n_nodes
        terms = self._factor_terms(graph)
        counts = [np.diff(term.indptr) for term in terms]
        nnz = sum(term.indices.size for term in terms)
        width = len(terms) * n
        dtype = np.result_type(*(term.indptr for term in terms))
        if max(nnz, width - 1) > np.iinfo(np.int32).max:
            dtype = np.int64
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(sum(counts), out=indptr[1:])
        indices = np.empty(nnz, dtype=dtype)
        values = [np.empty(nnz) for _ in range(3)]
        # Next free slot of each row, advanced past each term.
        offset = indptr[:-1].astype(np.int64)
        for k, (term, count) in enumerate(zip(terms, counts)):
            dest = np.arange(term.indices.size) + np.repeat(
                offset - term.indptr[:-1], count
            )
            indices[dest] = term.indices + np.int64(k * n)
            for out, part in zip(values, term[2:]):
                out[dest] = part
            offset += count
        stacked = _Term(indptr, indices, *values)
        return stacked, sp.csr_array(_nonzero(stacked), shape=(n, width))

    def apply_pruned(
        self,
        graph: DirectedGraph,
        threshold: float,
        backend: str = "vectorized",
        block_size: int | None = None,
    ):
        """``apply(graph, threshold=threshold)``, byte for byte, through
        the §3.6 kernel, which never materializes the full similarity
        matrix.

        Uses the §3.6 idea (Bayardo et al.'s threshold-aware all-pairs
        similarity) via the factorizations ``B_d = Y Yᵀ`` with
        ``Y = Do^-α A Di^-β/2`` and ``C_d = Z Zᵀ`` with
        ``Z = Di^-β Aᵀ Do^-α/2``: the stacked factor ``W = [Y | Z]``
        has ``W Wᵀ = B_d + C_d = U_d``, so one all-pairs search of
        ``W``, run ``2 · TIE_RTOL`` below the threshold, finds every
        pair either orientation of ``apply``'s ``U_d`` could keep. The
        pairs the prefix gate leaves are re-scored from
        :meth:`product_terms`' factors in ``apply``'s arithmetic
        (:func:`~repro.linalg.allpairs.pruned_pairs`) and finished by
        ``apply``'s last step (:func:`~repro.linalg.sparse_utils
        .symmetric_average`), after ``apply``'s input validation.
        Where a sum of the factors' products may overflow (see
        :func:`_may_overflow`), the call is ``apply``'s, which raises
        or repairs the non-finite similarities.

        Requires numeric ``alpha``/``beta`` (the ``"log"`` discount
        has no symmetric square-root factorization) and a positive
        threshold. ``backend``/``block_size`` are forwarded to
        :func:`~repro.linalg.allpairs.thresholded_gram_matrix`'s
        engines (``block_size=None`` means its default, and a
        ``block_size`` below 1 raises :class:`SymmetrizationError`).
        """
        from repro.graph.ugraph import UndirectedGraph
        from repro.linalg.allpairs import (
            DEFAULT_BLOCK_SIZE,
            _search,
            _validated_csr,
            count_funnel,
            pruned_pairs,
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
        graph = self._validated_input(graph)
        n = graph.n_nodes
        with span("symmetrize:degree_discounted_pruned") as root:
            root.set(
                threshold=threshold,
                backend=backend,
                n_nodes=n,
                nnz_in=graph.adjacency.nnz,
            )
            with span("pruning_factors"):
                terms, stacked = self._stacked_factor(graph)
            if _may_overflow(terms, stacked):
                return self.apply(graph, threshold)
            # The search sums each pair's products in another order
            # than apply()'s products; 2·TIE_RTOL below the threshold
            # it keeps every pair prune_matrix's rule could keep.
            search = threshold * (1.0 - 2.0 * TIE_RTOL)
            csr = _validated_csr(stacked, search)
            del stacked
            with span(f"allpairs:{backend}") as sp_:
                found = _search(
                    csr,
                    search,
                    backend,
                    DEFAULT_BLOCK_SIZE if block_size is None else block_size,
                )
                sp_.set(rows=csr.shape[0], threshold=search)
            with span("verify_candidates") as verify:
                kept = pruned_pairs(
                    sp.csr_array(
                        (terms.left, terms.indices, terms.indptr),
                        shape=csr.shape,
                    ),
                    terms.right,
                    found.left,
                    found.right,
                    threshold,
                )
            total = self._averaged(kept, drop_self_loops=True)
            n_kept = total.nnz // 2
            verify.set(candidate_pairs=found.scored, kept_pairs=n_kept)
            count_funnel(found, n_kept)
            # Every pair the threshold cut after scoring it: the gate
            # scores each verified pair in full (suffix plus prefix).
            metric_inc("edges_pruned_total", found.verified - n_kept)
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


class _Term(NamedTuple):
    """One product term of ``U_d`` on a stored pattern ``(indptr,
    indices)``: the values of :meth:`~DegreeDiscountedSymmetrization
    .product_terms`' ``L`` and ``Rᵀ`` there, and of the square-root
    factor (``Y`` or ``Z``)."""

    indptr: np.ndarray
    indices: np.ndarray
    left: np.ndarray
    right: np.ndarray
    half: np.ndarray


def _term(
    csr: sp.csr_array,
    row_scale: np.ndarray,
    col_scale: np.ndarray,
    half_scale: np.ndarray,
    scaled_left: bool,
) -> _Term:
    """The term on ``csr``'s pattern whose base values are
    ``row_scale[row] * a``: one of ``L``/``Rᵀ`` is the base, the other
    (``L`` when ``scaled_left``) the base times ``col_scale[col]``, and
    the square-root factor the base times ``half_scale[col]``."""
    base = np.repeat(row_scale, np.diff(csr.indptr)) * csr.data
    scaled = base * col_scale[csr.indices]
    left, right = (scaled, base) if scaled_left else (base, scaled)
    half = base * half_scale[csr.indices]
    return _Term(csr.indptr, csr.indices, left, right, half)


def _may_overflow(terms: _Term, stacked: sp.csr_array) -> bool:
    """Whether a sum of ``U``'s products may overflow: ``L`` or ``Rᵀ``
    holds a non-finite value, or twice ``Σ_ik W_ik · max_j W_jk`` is
    not finite. That total bounds every pair's score and every running
    bound the search forms, and the factor of two covers the rounding
    of any summation order."""
    from repro.linalg.allpairs import _column_maxima

    with np.errstate(over="ignore", invalid="ignore"):
        total = stacked.data @ _column_maxima(stacked)[stacked.indices]
        return not (
            np.isfinite(terms.left).all()
            and np.isfinite(terms.right).all()
            and np.isfinite(2.0 * total)
        )


def _nonzero(term: _Term) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of ``term``'s square-root factor
    without the products that rounded to zero, as SciPy's sparse
    product drops them. The index arrays may be the pattern's own."""
    data = term.half
    if data.all():
        return data, term.indices, term.indptr
    nonzero = data != 0
    kept_before = np.zeros(data.size + 1, dtype=term.indptr.dtype)
    np.cumsum(nonzero, out=kept_before[1:])
    return data[nonzero], term.indices[nonzero], kept_before[term.indptr]
