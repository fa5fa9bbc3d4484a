"""Unit tests for the symmetrization base/registry/façade."""

import numpy as np
import pytest

from repro.exceptions import SymmetrizationError
from repro.graph import DirectedGraph, UndirectedGraph
from repro.symmetrize import (
    BibliometricSymmetrization,
    DegreeDiscountedSymmetrization,
    NaiveSymmetrization,
    RandomWalkSymmetrization,
    Symmetrization,
    available_symmetrizations,
    get_symmetrization,
    symmetrize,
)


class TestRegistry:
    def test_all_four_registered(self):
        names = available_symmetrizations()
        for expected in (
            "naive",
            "random_walk",
            "bibliometric",
            "degree_discounted",
        ):
            assert expected in names

    def test_get_by_name(self):
        assert isinstance(get_symmetrization("naive"), NaiveSymmetrization)
        assert isinstance(
            get_symmetrization("bibliometric"), BibliometricSymmetrization
        )

    def test_aliases(self):
        assert isinstance(get_symmetrization("a+at"), NaiveSymmetrization)
        assert isinstance(
            get_symmetrization("rw"), RandomWalkSymmetrization
        )
        assert isinstance(
            get_symmetrization("dd"), DegreeDiscountedSymmetrization
        )
        assert isinstance(
            get_symmetrization("bib"), BibliometricSymmetrization
        )

    def test_case_insensitive(self):
        assert isinstance(
            get_symmetrization("NAIVE"), NaiveSymmetrization
        )

    def test_unknown_name(self):
        with pytest.raises(SymmetrizationError, match="unknown"):
            get_symmetrization("nope")

    def test_params_forwarded(self):
        sym = get_symmetrization("degree_discounted", alpha=0.25)
        assert sym.alpha == 0.25

    def test_names_set_on_classes(self):
        assert NaiveSymmetrization.name == "naive"
        assert DegreeDiscountedSymmetrization.name == "degree_discounted"


class TestFacade:
    def test_symmetrize_by_name(self, triangle_digraph):
        u = symmetrize(triangle_digraph, "naive")
        assert isinstance(u, UndirectedGraph)
        assert u.n_edges == 3

    def test_symmetrize_with_instance(self, triangle_digraph):
        u = symmetrize(triangle_digraph, NaiveSymmetrization())
        assert u.n_edges == 3

    def test_instance_plus_params_rejected(self, triangle_digraph):
        with pytest.raises(SymmetrizationError, match="parameters"):
            symmetrize(triangle_digraph, NaiveSymmetrization(), alpha=1)

    def test_threshold_forwarded(self, two_fans_digraph):
        dense = symmetrize(two_fans_digraph, "bibliometric")
        pruned = symmetrize(two_fans_digraph, "bibliometric", threshold=2.0)
        assert pruned.n_edges < dense.n_edges

    def test_rejects_undirected_input(self, small_weighted_ugraph):
        with pytest.raises(SymmetrizationError, match="DirectedGraph"):
            symmetrize(small_weighted_ugraph, "naive")


class TestApplyContract:
    @pytest.mark.parametrize(
        "name", ["naive", "random_walk", "bibliometric", "degree_discounted"]
    )
    def test_output_is_symmetric(self, name, two_fans_digraph):
        u = symmetrize(two_fans_digraph, name)
        diff = abs(u.adjacency - u.adjacency.T)
        assert diff.max() if diff.nnz else 0.0 == 0.0

    @pytest.mark.parametrize(
        "name", ["naive", "random_walk", "bibliometric", "degree_discounted"]
    )
    def test_output_nonnegative(self, name, two_fans_digraph):
        u = symmetrize(two_fans_digraph, name)
        if u.adjacency.nnz:
            assert u.adjacency.data.min() >= 0

    @pytest.mark.parametrize(
        "name", ["naive", "bibliometric", "degree_discounted"]
    )
    def test_no_self_loops_by_default(self, name, two_fans_digraph):
        u = symmetrize(two_fans_digraph, name)
        assert u.adjacency.diagonal().sum() == 0.0

    def test_self_loops_kept_on_request(self, two_fans_digraph):
        sym = BibliometricSymmetrization()
        u = sym.apply(two_fans_digraph, drop_self_loops=False)
        assert u.adjacency.diagonal().sum() > 0

    def test_node_names_carried_over(self):
        g = DirectedGraph.from_edges(
            [(0, 1)], n_nodes=2, node_names=["x", "y"]
        )
        u = symmetrize(g, "naive")
        assert u.node_names == ["x", "y"]

    def test_callable_shorthand(self, triangle_digraph):
        sym = NaiveSymmetrization()
        assert sym(triangle_digraph) == sym.apply(triangle_digraph)

    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Symmetrization()  # type: ignore[abstract]

    @pytest.mark.parametrize(
        "name", ["naive", "random_walk", "bibliometric", "degree_discounted"]
    )
    @pytest.mark.parametrize("threshold", [0.0, 0.05])
    def test_output_bytes_equal_lil_self_loop_drop(self, name, threshold):
        """``apply`` drops self-loops with one CSR compress; its bytes,
        index dtypes included, equal the ``tolil`` → ``setdiag(0)`` →
        ``tocsr`` → ``eliminate_zeros`` round trip it replaced, kept
        here as the oracle."""
        from repro.datasets import make_wikipedia_like
        from repro.graph.generators import power_law_digraph
        from repro.linalg.sparse_utils import prune_matrix

        graphs = [
            power_law_digraph(300, np.random.default_rng(seed))
            for seed in (0, 1)
        ]
        graphs.append(
            make_wikipedia_like(n_nodes=400, n_categories=8, seed=3).graph
        )
        sym = get_symmetrization(name)
        for graph in graphs:
            matrix = sym.compute_matrix(graph).tocsr()
            if threshold > 0:
                matrix = prune_matrix(matrix, threshold)
            lil = matrix.tolil()
            lil.setdiag(0.0)
            matrix = lil.tocsr()
            matrix.eliminate_zeros()
            expected = ((matrix + matrix.T) * 0.5).tocsr()
            got = sym.apply(graph, threshold=threshold).adjacency
            for part in ("indptr", "indices", "data"):
                g, e = getattr(got, part), getattr(expected, part)
                assert g.dtype == e.dtype
                assert g.tobytes() == e.tobytes()
