"""Unit tests for the symmetrization base/registry/façade."""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

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
from repro.symmetrize import base
from tests.conftest import PEAK_KB


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


class TestRowSpanRoute:
    """``apply(threshold > 0)`` on methods with product terms prunes
    ``Σ L[a:b] @ R`` one row span at a time (the span budget is
    patched down so that small graphs take several spans)."""

    @staticmethod
    def _whole(sym, graph, threshold, drop_self_loops=True):
        from repro.linalg.sparse_utils import drop_diagonal, prune_matrix

        matrix = prune_matrix(sym.compute_matrix(graph).tocsr(), threshold)
        if drop_self_loops:
            matrix = drop_diagonal(matrix)
        return ((matrix + matrix.T) * 0.5).tocsr()

    @staticmethod
    def _assert_same(got, want):
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            g, w = getattr(got, part), getattr(want, part)
            assert g.dtype == w.dtype, part
            assert g.tobytes() == w.tobytes(), part

    @pytest.mark.parametrize("cls", [
        DegreeDiscountedSymmetrization, BibliometricSymmetrization,
    ])
    @pytest.mark.parametrize("n_nodes", [0, 1, 6])
    @pytest.mark.parametrize("drop_self_loops", [True, False])
    def test_empty_and_edgeless_graphs(self, cls, n_nodes, drop_self_loops):
        """No rows at all is one empty span (not a stack of none)."""
        graph = DirectedGraph(
            sp.csr_array((n_nodes, n_nodes)), validate=False
        )
        sym = cls()
        want = self._whole(sym, graph, 0.5, drop_self_loops)
        for budget in (1, base._SPAN_TERMS):
            with mock.patch.object(base, "_SPAN_TERMS", budget):
                got = sym.apply(
                    graph, threshold=0.5, drop_self_loops=drop_self_loops
                ).adjacency
            self._assert_same(got, want)

    def test_spans_are_traced_with_their_sizes(self):
        """Each row span gets a ``compute_matrix`` and a ``prune``
        span; the ``symmetrize:*`` span records how many there were
        and the most raw entries one held."""

        from repro.datasets import make_wikipedia_like
        from repro.obs import tracing

        graph = make_wikipedia_like(n_nodes=400, n_categories=8, seed=3).graph
        sym = DegreeDiscountedSymmetrization()
        with mock.patch.object(base, "_SPAN_TERMS", 4096), tracing() as tr:
            u = sym.apply(graph, threshold=0.05)
        root = tr.roots[0]
        assert root.name == "symmetrize:degree_discounted"
        names = [child.name for child in root.children]
        n_spans = root.attributes["row_spans"]
        assert n_spans > 3
        assert names == ["compute_matrix", "prune"] * n_spans
        computed = root.children[::2]
        assert sum(c.attributes["rows"] for c in computed) == graph.n_nodes
        raw = [c.attributes["nnz_raw"] for c in computed]
        assert sum(raw) == root.attributes["nnz_raw"]
        assert max(raw) == root.attributes["row_span_nnz_max"]
        kept = sum(c.attributes["nnz_out"] for c in root.children[1::2])
        assert kept == self._whole(sym, graph, 0.05, False).nnz
        self._assert_same(u.adjacency, self._whole(sym, graph, 0.05))

    def test_whole_matrix_methods_report_one_span(self):
        from repro.obs import tracing

        graph = DirectedGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        with tracing() as tr:
            NaiveSymmetrization().apply(graph, threshold=0.5)
        root = tr.roots[0]
        assert [c.name for c in root.children] == ["compute_matrix", "prune"]
        assert root.attributes["row_spans"] == 1
        assert root.attributes["row_span_nnz_max"] == root.attributes[
            "nnz_raw"
        ]

    @staticmethod
    def _overflowing_graph():
        """Weights whose products overflow: every row of the
        bibliometric ``U`` holds infinities."""
        edges = [(i, (i + 1) % 6, 1e200) for i in range(6)]
        edges += [(i, (i + 2) % 6, 1e200) for i in range(6)]
        return DirectedGraph.from_edges(edges, n_nodes=6)

    def test_lenient_repair_warns_once_per_call(self):
        """Bad spans are repaired one by one but reported like the
        whole matrix: one degenerate-output warning and one repair
        warning counting every dropped entry."""

        from repro.exceptions import DegenerateGraphWarning
        from repro.validate import lenient

        graph = self._overflowing_graph()
        sym = BibliometricSymmetrization()
        full = sym.compute_matrix(graph)
        n_bad = int((~np.isfinite(full.data)).sum())
        assert n_bad > 6
        with lenient(), mock.patch.object(base, "_SPAN_TERMS", 1):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = sym.apply(graph, threshold=1.0).adjacency
        assert len(caught) == 2, [str(w.message) for w in caught]
        degenerate, repaired = caught
        assert issubclass(degenerate.category, DegenerateGraphWarning)
        assert "non-finite or negative" in str(degenerate.message)
        assert str(repaired.message) == (
            f"repaired_weights: dropped {n_bad} non-finite or negative "
            "edge weight(s)"
        )
        assert np.isfinite(got.data).all()
        with lenient(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = sym.apply(graph, threshold=0.0).adjacency
        assert got.nnz == (want.data >= 1.0).sum()

    def test_strict_bad_span_raises(self):
        with pytest.raises(SymmetrizationError, match="non-finite"):
            BibliometricSymmetrization().apply(
                self._overflowing_graph(), threshold=1.0
            )


@pytest.mark.scale_smoke
def test_wikipedia_like_10k_prunes_under_256_mb():
    """The 10k Wikipedia-like graph at ``t = 0.03``, which ran out of
    memory when ``apply`` built the whole ``U_d`` (~100M entries)
    first, keeps its 91,154 edges with the process peaking under
    256 MB."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    pytest.importorskip("resource")
    script = (
        PEAK_KB
        + "from repro.datasets import make_wikipedia_like\n"
        "from repro.symmetrize import DegreeDiscountedSymmetrization\n"
        "g = make_wikipedia_like(n_nodes=10000, n_categories=100, "
        "seed=0).graph\n"
        "u = DegreeDiscountedSymmetrization().apply(g, threshold=0.03)\n"
        "print(u.n_edges, peak_kb())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    n_edges, peak_kb = map(int, proc.stdout.split())
    assert n_edges == 91_154
    assert peak_kb < 256 * 1024, f"peak RSS {peak_kb // 1024} MB"


@pytest.mark.parametrize(
    "coupling, cocitation", [(True, True), (False, True), (True, False)]
)
@pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.25, 1.0)])
def test_degree_discounted_compute_matrix_keeps_stored_order(
    coupling, cocitation, alpha, beta
):
    """``compute_matrix``, derived from ``product_terms``, stores ``U``
    as the explicit products did — ``C_d`` multiplied column-oriented,
    kept here as the oracle — on a weighted graph, where the factors'
    association shows in the last bits."""

    from repro.graph.generators import power_law_digraph

    rng = np.random.default_rng(4)
    base = power_law_digraph(250, rng).adjacency
    weighted = sp.csr_array(
        (rng.uniform(0.1, 5.0, base.nnz), base.indices, base.indptr),
        shape=base.shape,
    )
    graph = DirectedGraph(weighted)
    sym = DegreeDiscountedSymmetrization(
        alpha=alpha,
        beta=beta,
        include_coupling=coupling,
        include_cocitation=cocitation,
    )
    adj = graph.adjacency.tocsr()
    d_out, d_in = graph.out_degrees(weighted=True), graph.in_degrees(True)
    out_disc = sp.diags_array(sym._discount(d_out, alpha))
    in_disc = sp.diags_array(sym._discount(d_in, beta))
    out_disc, in_disc = out_disc.tocsr(), in_disc.tocsr()
    parts = []
    if coupling:
        left = (out_disc @ adj).tocsr()
        parts.append(((out_disc @ adj @ in_disc).tocsr() @ left.T).tocsr())
    if cocitation:
        right = (adj @ in_disc).tocsr()
        parts.append((right.T @ (out_disc @ right)).tocsr())
    want = parts[0] if len(parts) == 1 else (parts[0] + parts[1]).tocsr()
    got = sym.compute_matrix(graph)
    for part in ("indptr", "indices", "data"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype, part
        assert g.tobytes() == w.tobytes(), part
