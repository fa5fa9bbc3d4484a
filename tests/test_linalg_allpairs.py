"""Unit tests for :mod:`repro.linalg.allpairs` (§3.6) and the
``apply_pruned`` fast path of the degree-discounted symmetrization.

The vectorized backend is held to the oracle standard: on every
corpus matrix its sparsity pattern must be *bit-identical* to the
pure-Python reference engine's.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SymmetrizationError
from repro.graph.generators import power_law_digraph
from repro.linalg.allpairs import BACKENDS, thresholded_gram_matrix
from repro.linalg.sparse_utils import prune_matrix
from repro.symmetrize import DegreeDiscountedSymmetrization

#: The backends every correctness test runs under, with the ids
#: (``<backend>-None``) these tests are reported under, so their
#: results stay comparable across runs of the suite.
ENGINES = [
    pytest.param("python", id="python-None"),
    pytest.param("vectorized", id="vectorized-None"),
]


def _dense_reference(rows, threshold):
    full = (rows @ rows.T).tocsr()
    lil = full.tolil()
    lil.setdiag(0.0)
    return prune_matrix(lil.tocsr(), threshold)


def _assert_same_pattern(a, b):
    """Bit-identical CSR sparsity patterns (and matching values)."""
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.allclose(a.data, b.data, rtol=1e-12, atol=1e-14)


class TestThresholdedGram:
    @pytest.mark.parametrize("backend", ENGINES)
    def test_matches_dense_product(self, rng, backend):
        rows = sp.random_array(
            (30, 15), density=0.3, rng=rng, format="csr"
        )
        result = thresholded_gram_matrix(rows, 0.2, backend=backend)
        expected = _dense_reference(rows, 0.2)
        assert abs(result - expected).max() < 1e-12 if (
            (result - expected).nnz
        ) else True
        assert result.nnz == expected.nnz

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_high_threshold_empty(self, rng, backend):
        rows = sp.random_array(
            (10, 5), density=0.3, rng=rng, format="csr"
        )
        result = thresholded_gram_matrix(rows, 1e6, backend=backend)
        assert result.nnz == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_symmetric_output(self, rng, backend):
        rows = sp.random_array(
            (20, 10), density=0.4, rng=rng, format="csr"
        )
        result = thresholded_gram_matrix(rows, 0.1, backend=backend)
        assert abs(result - result.T).nnz == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_diagonal_excluded_by_default(self, backend):
        rows = sp.csr_array(np.eye(3))
        result = thresholded_gram_matrix(rows, 0.5, backend=backend)
        assert result.diagonal().sum() == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exact_pair_value(self, backend):
        rows = sp.csr_array(
            np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
        )
        result = thresholded_gram_matrix(rows, 1.0, backend=backend)
        assert result[[0], [1]] == 3.0

    def test_rejects_zero_threshold(self):
        with pytest.raises(SymmetrizationError, match="positive"):
            thresholded_gram_matrix(sp.csr_array((2, 2)), 0.0)

    def test_rejects_negative_values(self):
        with pytest.raises(SymmetrizationError, match="non-negative"):
            thresholded_gram_matrix(
                sp.csr_array(np.array([[-1.0]])), 0.5
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, backend, bad):
        # A NaN compares false against every bound and used to drop
        # its pairs silently; an inf passed straight through.
        rows = sp.csr_array(np.array([[1.0, bad], [1.0, 1.0]]))
        with pytest.raises(SymmetrizationError, match="finite"):
            thresholded_gram_matrix(rows, 0.5, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_entries_match_dense(self, backend):
        """Rows with duplicate (and so unsorted) column entries are
        summed like ``toarray()`` sums them, in both engines, and the
        caller's matrix is left as it was."""
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n, d, per_row = 12, 5, 4
            indices = rng.integers(0, d, n * per_row)
            data = np.ceil(rng.random(n * per_row) * 8) / 8
            indptr = np.arange(0, n * per_row + 1, per_row)
            rows = sp.csr_array((data, indices, indptr), shape=(n, d))
            before = [a.copy() for a in (rows.indptr, rows.indices, rows.data)]
            result = thresholded_gram_matrix(rows, 0.4, backend=backend)
            dense = rows.toarray()
            expected = dense @ dense.T
            np.fill_diagonal(expected, 0.0)
            expected[expected < 0.4] = 0.0
            assert np.array_equal(result.toarray(), expected)
            after = (rows.indptr, rows.indices, rows.data)
            assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_rejects_unknown_backend(self):
        with pytest.raises(SymmetrizationError, match="backend"):
            thresholded_gram_matrix(
                sp.csr_array((2, 2)), 0.5, backend="cuda"
            )

    def test_rejects_bad_block_size(self):
        with pytest.raises(SymmetrizationError, match="block_size"):
            thresholded_gram_matrix(
                sp.csr_array((2, 2)), 0.5, block_size=0
            )

    @pytest.mark.parametrize("backend", ENGINES)
    @pytest.mark.parametrize(
        "empty_rows",
        [
            (),  # no empty rows
            (0, 1),  # leading empties
            (5, 9),  # trailing empty
            (0, 3, 4, 9),  # mixed, including a full empty block
        ],
    )
    def test_empty_row_edge_cases(self, rng, backend, empty_rows):
        dense = rng.random((10, 6)) * (rng.random((10, 6)) < 0.5)
        dense[list(empty_rows), :] = 0.0
        rows = sp.csr_array(dense)
        result = thresholded_gram_matrix(
            rows, 0.3, backend=backend, block_size=3
        )
        _assert_same_pattern(result, _dense_reference(rows, 0.3))

    @pytest.mark.parametrize("backend", ENGINES)
    def test_all_rows_prunable(self, backend):
        # Every row's total possible contribution stays below the
        # threshold, so nothing is ever indexed and the result is
        # empty — the prefix filter's degenerate extreme.
        rows = sp.csr_array(np.full((8, 4), 0.01))
        result = thresholded_gram_matrix(
            rows, 10.0, backend=backend, block_size=2
        )
        assert result.nnz == 0

    def test_all_empty_matrix(self):
        for backend in BACKENDS:
            result = thresholded_gram_matrix(
                sp.csr_array((6, 4)), 0.5, backend=backend
            )
            assert result.shape == (6, 6)
            assert result.nnz == 0

    @pytest.mark.parametrize("block_size", [1, 3, 64, 512])
    def test_block_size_invariance(self, rng, block_size):
        rows = sp.random_array(
            (40, 12), density=0.35, rng=rng, format="csr"
        )
        reference = thresholded_gram_matrix(rows, 0.25, backend="python")
        result = thresholded_gram_matrix(
            rows, 0.25, backend="vectorized", block_size=block_size
        )
        _assert_same_pattern(result, reference)

    @given(st.integers(0, 1_000_000), st.floats(0.05, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_dense(self, seed, threshold):
        rng = np.random.default_rng(seed)
        rows = sp.random_array(
            (15, 8), density=0.4, rng=rng, format="csr"
        )
        oracle = thresholded_gram_matrix(
            rows, threshold, backend="python"
        )
        expected = _dense_reference(rows, threshold)
        diff = (oracle - expected).tocsr()
        diff.eliminate_zeros()
        assert abs(diff).max() < 1e-9 if diff.nnz else True
        assert oracle.nnz == expected.nnz
        # The production engine must reproduce the oracle's sparsity
        # pattern bit for bit.
        vectorized = thresholded_gram_matrix(
            rows, threshold, backend="vectorized", block_size=4
        )
        _assert_same_pattern(vectorized, oracle)


class TestCandidateBudget:
    """The per-span candidate cap and the per-batch gather budget must
    not change any output byte."""

    @staticmethod
    def _hub_matrix(rng):
        # A few dense "hub" columns shared by most rows make the
        # candidate count per block explode, forcing span splits.
        base = sp.random_array(
            (300, 40), density=0.05, rng=rng, format="csr"
        )
        hubs = sp.random_array(
            (300, 3), density=0.9, rng=rng, format="csr"
        )
        rows = sp.hstack([base, hubs]).tocsr()
        rows.sum_duplicates()
        rows.sort_indices()
        rows.data = np.abs(rows.data) + 0.01
        return rows

    def test_tiny_cap_is_byte_identical(self, rng, monkeypatch):
        import repro.linalg.allpairs as allpairs

        rows = self._hub_matrix(rng)
        reference = thresholded_gram_matrix(
            rows, 0.2, backend="vectorized", block_size=64
        )
        monkeypatch.setattr(allpairs, "_MAX_BLOCK_CANDIDATES", 64)
        # About 25 pairs per verification batch: ~1,600 batch edges.
        monkeypatch.setattr(allpairs, "_GATHER_BUDGET", 256)
        capped = thresholded_gram_matrix(
            rows, 0.2, backend="vectorized", block_size=64
        )
        assert capped.indptr.tobytes() == reference.indptr.tobytes()
        assert capped.indices.tobytes() == reference.indices.tobytes()
        assert capped.data.tobytes() == reference.data.tobytes()

    def test_row_spans_respect_budget_and_progress(self, rng):
        from repro.linalg.allpairs import (
            _row_spans,
            _suffix_column_counts,
        )

        rows = self._hub_matrix(rng)
        colcount = _suffix_column_counts(rows)
        spans = _row_spans(rows, colcount, cap=500)
        # Spans partition [0, n_rows) in order.
        assert spans[0][0] == 0
        assert spans[-1][1] == rows.shape[0]
        for (_, b_prev), (a_next, _) in zip(spans, spans[1:]):
            assert b_prev == a_next
        # Each multi-row span stays under the estimate budget.
        entry_cum = np.concatenate(
            ([0], np.cumsum(colcount[rows.indices], dtype=np.int64))
        )
        row_cum = entry_cum[rows.indptr]
        for a, b in spans:
            if b - a > 1:
                assert row_cum[b] - row_cum[a] <= 500

    @pytest.mark.parametrize("budget", [1, 40, 300, 1 << 21])
    def test_gather_batches_respect_budget_and_progress(
        self, rng, monkeypatch, budget
    ):
        import repro.linalg.allpairs as allpairs

        rows = self._hub_matrix(rng)
        left = rng.integers(1, rows.shape[0], 500)
        right = rng.integers(0, left)
        monkeypatch.setattr(allpairs, "_GATHER_BUDGET", budget)
        batches = allpairs._gather_batches(rows.indptr, left, right)
        # Batches partition the pairs in order.
        assert batches[0].start == 0
        assert batches[-1].stop == left.size
        for prev, nxt in zip(batches, batches[1:]):
            assert prev.stop == nxt.start
        # Each multi-pair batch gathers at most the budget's entries.
        sizes = np.diff(rows.indptr)
        for sl in batches:
            gathered = int(sizes[left[sl]].sum() + sizes[right[sl]].sum())
            assert sl.stop - sl.start == 1 or gathered <= budget
        assert allpairs._gather_batches(
            rows.indptr, left[:0], right[:0]
        ) == []


def _assert_same_bytes(got, want):
    """Equal CSR arrays, byte for byte, index dtypes included."""
    for part in ("indptr", "indices", "data"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype, part
        assert g.tobytes() == w.tobytes(), part


class TestApplyPruned:
    def test_matches_apply(self, rng):
        g = power_law_digraph(120, rng)
        sym = DegreeDiscountedSymmetrization()
        for threshold in (0.05, 0.15):
            _assert_same_bytes(
                sym.apply_pruned(g, threshold=threshold).adjacency,
                sym.apply(g, threshold=threshold).adjacency,
            )

    @pytest.mark.parametrize("backend", ENGINES)
    def test_backends_agree(self, rng, backend):
        g = power_law_digraph(100, rng)
        sym = DegreeDiscountedSymmetrization()
        reference = sym.apply_pruned(g, 0.1, backend="python")
        other = sym.apply_pruned(g, 0.1, backend=backend)
        diff = abs(reference.adjacency - other.adjacency).tocsr()
        assert (diff.max() if diff.nnz else 0.0) < 1e-12

    def test_coupling_only_variant(self, rng):
        g = power_law_digraph(80, rng)
        sym = DegreeDiscountedSymmetrization(include_cocitation=False)
        _assert_same_bytes(
            sym.apply_pruned(g, threshold=0.1).adjacency,
            sym.apply(g, threshold=0.1).adjacency,
        )

    def test_pruning_factors_square(self, rng):
        # Y Yᵀ + Z Zᵀ must reproduce the full similarity matrix.
        g = power_law_digraph(60, rng)
        sym = DegreeDiscountedSymmetrization()
        factors = sym.pruning_factors(g)
        assert len(factors) == 2
        total = sum((Y @ Y.T).toarray() for Y in factors)
        expected = sym.compute_matrix(g).toarray()
        assert np.allclose(total, expected, atol=1e-12)

    def test_rejects_zero_threshold(self, triangle_digraph):
        with pytest.raises(SymmetrizationError, match="positive"):
            DegreeDiscountedSymmetrization().apply_pruned(
                triangle_digraph, 0.0
            )

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_rejects_bad_block_size(self, triangle_digraph, block_size):
        # 0 is a size, not "unset": only None selects the default.
        with pytest.raises(SymmetrizationError, match="block_size"):
            DegreeDiscountedSymmetrization().apply_pruned(
                triangle_digraph, 0.1, block_size=block_size
            )

    def test_rejects_log_discount(self, triangle_digraph):
        with pytest.raises(SymmetrizationError, match="numeric"):
            DegreeDiscountedSymmetrization(alpha="log").apply_pruned(
                triangle_digraph, 0.1
            )

    def test_validates_input_like_apply(self):
        """A NaN weight fails ``apply``'s input validation in strict
        mode; in lenient mode both routes repair it alike (the
        Hypothesis differential covers that)."""
        from repro.graph import DirectedGraph

        adjacency = sp.coo_array(
            (np.array([1.0, np.nan, 1.0]), ([0, 1, 2], [1, 2, 1])),
            shape=(3, 3),
        ).tocsr()
        graph = DirectedGraph(adjacency, validate=False)
        with pytest.raises(SymmetrizationError, match="invalid input"):
            DegreeDiscountedSymmetrization().apply_pruned(graph, 0.1)

    @staticmethod
    def _overflow_graph(name):
        """A graph whose product sums overflow with α = β = 0. On
        ``three_edges`` ``U``'s (0, 1) pair is inf. On ``fan_in`` 100
        sources link to nodes 100 and 101: ``U`` is finite (at most
        1.0e308), but its factors' bound total is not."""
        from repro.graph import DirectedGraph

        if name == "three_edges":
            return DirectedGraph.from_edges(
                [(0, 2, 1e300), (1, 2, 1e300), (3, 2, 1.0)], n_nodes=4
            )
        return DirectedGraph.from_edges(
            [(i, t, 1e153) for i in range(100) for t in (100, 101)],
            n_nodes=102,
        )

    @pytest.mark.parametrize("name", ["three_edges", "fan_in"])
    def test_overflow_raises_or_repairs_like_apply(self, name):
        import warnings

        from repro.validate import lenient

        graph = self._overflow_graph(name)
        sym = DegreeDiscountedSymmetrization(alpha=0, beta=0)
        for route in (sym.apply, sym.apply_pruned):
            with pytest.raises(SymmetrizationError, match="non-finite"):
                route(graph, 0.1)
        with lenient(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = sym.apply(graph, 0.1).adjacency
            got = sym.apply_pruned(graph, 0.1).adjacency
        assert want.nnz and np.isfinite(want.data).all()
        _assert_same_bytes(got, want)

    def test_preserves_node_names(self):
        from repro.graph import DirectedGraph

        g = DirectedGraph.from_edges(
            [(0, 2), (1, 2)], n_nodes=3, node_names=["a", "b", "c"]
        )
        out = DegreeDiscountedSymmetrization().apply_pruned(g, 0.1)
        assert out.node_names == ["a", "b", "c"]

    def test_no_self_loops(self, rng):
        g = power_law_digraph(60, rng)
        out = DegreeDiscountedSymmetrization().apply_pruned(g, 0.05)
        assert out.adjacency.diagonal().sum() == 0.0

    @pytest.mark.parametrize(
        "n_nodes,seed,threshold,digests",
        [
            (
                300,
                14,
                0.1,
                (
                    "7eae64883557e3f7f88e78d93b535b53"
                    "d7cd1a87fd20498584128a0f67a6e16f",
                    "3a09cdac49eb31bf2c5a5409f3805155"
                    "9d631844187ba8c39194f30c22c9bc24",
                    "31c347acb7b858e15467047aeffae422"
                    "923ac1536a4c7aa6db05ba003e8a9f83",
                ),
            ),
            (
                900,
                2026,
                0.2,
                (
                    "7e164c19fb298cd5ae8df0bd3827371f"
                    "76db7ed6f153a35186e44b1d0278405d",
                    "6ac07c8d4758db644f8245038fb2b9ec"
                    "3ad80b5b3d7b0e5afbad53ac02a51bbd",
                    "44597d50ece9dbbe4232bab0194cfa8b"
                    "1e837fa02417aba5591c3a7dd01bb931",
                ),
            ),
        ],
    )
    def test_output_bytes_pinned(self, n_nodes, seed, threshold, digests):
        """indptr/indices/data sha256 digests of ``apply(graph,
        threshold)``, recorded from ``apply``'s row-span route: bounds,
        search order and stacking may change how ``apply_pruned`` finds
        pairs, never an output byte."""
        import hashlib

        graph = power_law_digraph(n_nodes, np.random.default_rng(seed))
        out = DegreeDiscountedSymmetrization().apply_pruned(
            graph, threshold
        ).adjacency
        got = tuple(
            hashlib.sha256(part.tobytes()).hexdigest()
            for part in (out.indptr, out.indices, out.data)
        )
        assert got == digests

    def test_tiny_gather_budget_is_byte_identical(self, monkeypatch):
        """A 1-entry gather budget (one pair per batch, in the search's
        verification and in the re-score) keeps every output byte."""
        import repro.linalg.allpairs as allpairs

        graph = power_law_digraph(300, np.random.default_rng(14))
        sym = DegreeDiscountedSymmetrization()
        reference = sym.apply_pruned(graph, 0.1).adjacency
        monkeypatch.setattr(allpairs, "_GATHER_BUDGET", 1)
        tiny = sym.apply_pruned(graph, 0.1).adjacency
        for part in ("indptr", "indices", "data"):
            assert (
                getattr(tiny, part).tobytes()
                == getattr(reference, part).tobytes()
            )

    def test_pair_funnel_pinned(self):
        """The tighter partial-score bound scores at most a third of
        the pairs the whole-row probe norm did, while the candidate
        product, which the bound does not touch, stays put. Both
        counts were 56,534 and 21,642 before the bound was tightened."""
        import scipy.sparse as sp

        from repro.obs import metrics_active

        graph = power_law_digraph(
            2000, np.random.default_rng(1), d_max=100
        )
        stacked = sp.hstack(
            DegreeDiscountedSymmetrization().pruning_factors(graph),
            format="csr",
        )
        with metrics_active() as reg:
            thresholded_gram_matrix(stacked, 0.2)
        assert reg.counters["allpairs_candidate_pairs_total"] == 56_534
        assert reg.counters["allpairs_pairs_verified_total"] <= 21_642 // 3

    #: sha256 of ``apply(graph, 0.05)``'s indptr/indices/data on the
    #: serve-jobs graph ``make_wikipedia_like(1000, 16, seed=40)``,
    #: recorded from ``apply``'s row-span route (17,094 stored entries,
    #: int32 indices).
    SERVE_JOBS_DIGESTS = (
        "ce8b3f6fcaa91ceb4ec1647ecc371e2df28ecd35f1a8e0af2d8cd3cb04394ac7",
        "f9a04a367b1d567efe59a1d3dfea328154c5045c0aac5c63a30a47a79e835e5d",
        "c9513fd26d3cb6fc9c4d007ca4a455b28fea761da14eb1d3380dc286e9f8d2e8",
    )

    @pytest.fixture(scope="class")
    def serve_jobs_graph(self):
        from repro.datasets import make_wikipedia_like

        return make_wikipedia_like(
            n_nodes=1000, n_categories=16, seed=40
        ).graph

    @staticmethod
    def _digests(matrix):
        import hashlib

        return tuple(
            hashlib.sha256(part.tobytes()).hexdigest()
            for part in (matrix.indptr, matrix.indices, matrix.data)
        )

    def test_output_bytes_pinned_on_serve_jobs_graph(self, serve_jobs_graph):
        """A hub-heavy graph, where most verified pairs fail the prefix
        gate and the kept pairs are scored over rows of thousands of
        entries."""
        out = DegreeDiscountedSymmetrization().apply_pruned(
            serve_jobs_graph, 0.05
        ).adjacency
        assert out.nnz == 17_094
        assert self._digests(out) == self.SERVE_JOBS_DIGESTS

    def test_funnel_and_block_spans(self):
        """Candidates ≥ verified (after the bound) ≥ scored (after the
        prefix gate) ≥ kept, in the metrics and the per-block spans,
        which also report the gate's gathered row entries. On the 2k
        power-law graph of the funnel pin the gate leaves 451 of the
        6,402 verified pairs (as many as before the gate) to score
        exactly, and 447 are kept."""
        from repro.obs import Tracer, metrics_active, tracing

        graph = power_law_digraph(
            2000, np.random.default_rng(1), d_max=100
        )
        stacked = sp.hstack(
            DegreeDiscountedSymmetrization().pruning_factors(graph),
            format="csr",
        )
        tracer = Tracer()
        with metrics_active() as reg, tracing(tracer):
            out = thresholded_gram_matrix(stacked, 0.2)
        metrics = reg.counters
        candidates = metrics["allpairs_candidate_pairs_total"]
        verified = metrics["allpairs_pairs_verified_total"]
        scored = metrics["allpairs_pairs_scored_total"]
        kept = out.nnz // 2
        assert candidates > verified > scored >= kept > 0
        assert (verified, scored, kept) == (6_402, 451, 447)
        blocks = [
            node
            for node in tracer.as_dict()["spans"][0]["children"]
            if node["name"].startswith("gram_block")
        ]
        assert len(blocks) == 4
        for field, total in (
            ("candidate_pairs", candidates),
            ("verified_pairs", verified),
            ("scored_pairs", scored),
        ):
            assert sum(b["attributes"][field] for b in blocks) == total
        gathered = [b["attributes"]["gathered_entries"] for b in blocks]
        assert all(g >= 0 for g in gathered) and sum(gathered) > 0

    def test_hub_rows_gather_in_bounded_memory(self):
        """Verification batches are budgeted in gathered entries, so
        hub rows of thousands of entries cannot inflate a batch: on a
        Wikipedia-like graph with hubs, the peak RSS of a subprocess
        may grow by less than 400 MB during ``apply_pruned`` (about
        900 MB when batches were counted in pairs)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from tests.conftest import PEAK_KB

        pytest.importorskip("resource")
        script = (
            PEAK_KB
            + "from repro.datasets import make_wikipedia_like\n"
            "from repro.symmetrize import "
            "DegreeDiscountedSymmetrization\n"
            "g = make_wikipedia_like(n_nodes=3000, n_categories=30, "
            "seed=0).graph\n"
            "before = peak_kb()\n"
            "DegreeDiscountedSymmetrization().apply_pruned(g, 0.03)\n"
            "print(peak_kb() - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(__file__).resolve().parents[1],
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        growth_kb = int(proc.stdout.strip())
        assert growth_kb < 400 * 1024, (
            f"apply_pruned grew peak RSS by {growth_kb // 1024} MB"
        )


    @pytest.mark.parametrize(
        "method, threshold",
        [("DegreeDiscountedSymmetrization", 0.03),
         ("BibliometricSymmetrization", 9.0)],
    )
    def test_apply_prunes_row_spans_in_bounded_memory(
        self, method, threshold
    ):
        """``apply(threshold)`` prunes the similarity product one row
        span at a time, so on the same graph it may grow a
        subprocess's peak RSS by less than 64 MB (about 350 MB when it
        built the whole ``U`` first). Bibliometric's integer threshold
        keeps a similar edge count (about 62k and 50k edges)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from tests.conftest import PEAK_KB

        pytest.importorskip("resource")
        script = (
            PEAK_KB
            + "from repro.datasets import make_wikipedia_like\n"
            f"from repro.symmetrize import {method}\n"
            "g = make_wikipedia_like(n_nodes=3000, n_categories=30, "
            "seed=0).graph\n"
            "before = peak_kb()\n"
            f"u = {method}().apply(g, threshold={threshold})\n"
            "print(peak_kb() - before, u.n_edges)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(__file__).resolve().parents[1],
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        growth_kb, n_edges = map(int, proc.stdout.split())
        assert n_edges > 40_000
        assert growth_kb < 64 * 1024, (
            f"apply grew peak RSS by {growth_kb // 1024} MB"
        )


def test_apply_pruned_equals_apply_at_paper_density(tmp_path):
    """The kernel returns ``apply``'s bytes and index dtypes at the
    paper's operating point: ``power_law_mmcsr(20k, seed 0,
    d_max=100)`` at ``t = 0.03`` with 4096-row blocks, about 1.06M
    stored entries."""
    from repro.graph.generators import power_law_mmcsr

    graph = power_law_mmcsr(
        20_000, tmp_path / "graph.mmcsr", np.random.default_rng(0),
        d_max=100,
    )
    sym = DegreeDiscountedSymmetrization()
    kernel = sym.apply_pruned(graph, 0.03, block_size=4096).adjacency
    assert kernel.nnz == 1_059_052
    _assert_same_bytes(kernel, sym.apply(graph, 0.03).adjacency)
