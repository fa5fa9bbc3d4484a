"""Stage counts on the one instrumentation channel: the span
attributes and metrics that say where a run's time and pairs went."""

import scipy.sparse as sp

from repro.graph.generators import power_law_digraph
from repro.linalg.allpairs import thresholded_gram_matrix
from repro.obs import Span, metrics_active
from repro.pipeline.pipeline import SymmetrizeClusterPipeline
from repro.symmetrize import DegreeDiscountedSymmetrization


class TestInstrumentationHooks:
    def test_pipeline_reports_stages(self, rng):
        g = power_law_digraph(80, rng)
        pipe = SymmetrizeClusterPipeline(
            "degree_discounted", "mlrmcl", threshold=0.05
        )
        result = pipe.run(g, trace=True)
        root = Span.from_dict(result.trace["spans"][0])
        sym = root.find("symmetrize:degree_discounted")
        assert sym.attributes["nnz_in"] == g.adjacency.nnz
        assert (
            sym.attributes["nnz_out"] == result.symmetrized.adjacency.nnz
        )
        cluster = root.find("cluster:mlrmcl")
        assert (
            cluster.attributes["n_clusters"]
            == result.clustering.n_clusters
        )
        assert (
            cluster.attributes["nnz_in"]
            == result.symmetrized.adjacency.nnz
        )

    def test_allpairs_counters_flow_to_metrics(self, rng):
        rows = sp.random_array(
            (30, 10), density=0.4, rng=rng, format="csr"
        )
        with metrics_active() as reg:
            out = thresholded_gram_matrix(rows, 0.2, backend="vectorized")
        counts = reg.counters
        candidates = counts["allpairs_candidate_pairs_total"]
        kept = out.nnz // 2
        assert kept <= counts["allpairs_pairs_verified_total"] <= candidates
        assert counts["allpairs_pairs_pruned_total"] == candidates - kept

        # On the stacked degree-discounted factor of a power-law graph
        # the partial-score bound drops candidates before verification
        # and verification drops more: both inequalities are strict.
        g = power_law_digraph(400, rng)
        stacked = sp.hstack(
            DegreeDiscountedSymmetrization().pruning_factors(g),
            format="csr",
        )
        with metrics_active() as reg:
            out = thresholded_gram_matrix(stacked, 0.2, block_size=64)
        counts = reg.counters
        candidates = counts["allpairs_candidate_pairs_total"]
        kept = candidates - counts["allpairs_pairs_pruned_total"]
        assert kept == out.nnz // 2 > 0
        assert kept < counts["allpairs_pairs_verified_total"] < candidates
