"""Fault-injection sweep: the degenerate corpus vs the full pipeline.

Every test here enforces the hardening contract: a pathological input
either raises a *typed* :class:`repro.exceptions.ReproError`, or is
repaired-with-warnings into a valid clustering. Any bare scipy/numpy
exception escaping a sweep fails the test outright.

The ``fault_smoke`` marker tags the subset that tier-1 CI runs on
every commit (``pytest -m fault_smoke``); the unmarked tests extend
the sweep to the full symmetrization x clusterer matrix.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest

from repro.datasets import degenerate_case, degenerate_corpus
from repro.exceptions import (
    ClusteringError,
    ReproError,
    ReproWarning,
    SymmetrizationError,
    ValidationError,
)
from repro.pipeline import PipelineWarning, SymmetrizeClusterPipeline
from repro.symmetrize import (
    DegreeDiscountedSymmetrization,
    get_symmetrization,
)
from repro.validate import lenient, repair_graph

CORPUS = degenerate_corpus()
CASE_IDS = [c.name for c in CORPUS]
SYMMETRIZATIONS = (
    "naive",
    "random_walk",
    "bibliometric",
    "degree_discounted",
)
CLUSTERERS = ("mlrmcl", "spectral")

# Exact strict-mode outcome per corpus case for the random-walk +
# MLR-MCL pipeline; ``None`` means the run must succeed.
STRICT_PIPELINE_EXPECT: dict[str, type[ReproError] | None] = {
    "empty": ClusteringError,
    "single_node": SymmetrizationError,
    "single_self_loop": None,
    "all_dangling": SymmetrizationError,
    "self_loop_only": None,
    "star_hub_out": None,
    "star_hub_in": None,
    "duplicate_heavy": None,
    "nan_weight": ValidationError,
    "inf_weight": ValidationError,
    "negative_weight": ValidationError,
    "disconnected_with_singletons": None,
    "near_threshold_tie": None,
    "reciprocal_pair": None,
}


@contextlib.contextmanager
def _quiet():
    """Silence ReproWarnings inside a sweep (they are the point of
    lenient mode, not noise the test run should print)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReproWarning)
        yield


def assert_valid_symmetrized(u) -> None:
    """The output contract: square, symmetric, finite, non-negative,
    zero-diagonal adjacency."""
    adj = u.adjacency
    assert adj.shape == (u.n_nodes, u.n_nodes)
    if adj.nnz:
        assert np.all(np.isfinite(adj.data))
        assert adj.data.min() >= 0.0
        asym = abs(adj - adj.T)
        assert (asym.max() if asym.nnz else 0.0) == 0.0
        assert adj.diagonal().max() == 0.0


def assert_valid_clustering(clustering, n_nodes: int) -> None:
    labels = clustering.labels
    assert labels.shape == (n_nodes,)
    if n_nodes:
        assert labels.min() >= 0
        assert labels.max() == clustering.n_clusters - 1
        assert clustering.sizes.sum() == n_nodes


# ---------------------------------------------------------------------------
# Stage-1 sweep: every symmetrization on every corpus graph
# ---------------------------------------------------------------------------


@pytest.mark.fault_smoke
@pytest.mark.parametrize("name", SYMMETRIZATIONS)
@pytest.mark.parametrize("case", CORPUS, ids=CASE_IDS)
def test_strict_apply_typed_error_or_valid(case, name):
    """Strict mode: a corpus graph either raises a typed ReproError or
    symmetrizes into a valid undirected graph. Nothing else."""
    sym = get_symmetrization(name)
    with _quiet():
        try:
            u = sym.apply(case.build())
        except ReproError:
            return
    assert_valid_symmetrized(u)


@pytest.mark.fault_smoke
@pytest.mark.parametrize("name", SYMMETRIZATIONS)
@pytest.mark.parametrize("case", CORPUS, ids=CASE_IDS)
def test_lenient_apply_always_valid(case, name):
    """Lenient mode never raises for any corpus graph: malformed
    weights are repaired, degenerate structure downgraded to
    warnings."""
    sym = get_symmetrization(name)
    with lenient(), _quiet():
        u = sym.apply(case.build())
    assert_valid_symmetrized(u)


@pytest.mark.parametrize("name", SYMMETRIZATIONS)
def test_strict_apply_rejects_malformed_weights(name):
    """validate=False construction cannot smuggle NaN/inf/negative
    weights past a strict symmetrization."""
    sym = get_symmetrization(name)
    for case_name in ("nan_weight", "inf_weight", "negative_weight"):
        with pytest.raises(SymmetrizationError, match="invalid input"):
            sym.apply(degenerate_case(case_name).build())


def test_random_walk_all_dangling_strict_raises():
    """Satellite: P = 0 must not silently produce an all-zero
    symmetrization in strict mode."""
    g = degenerate_case("all_dangling").build()
    with pytest.raises(SymmetrizationError, match="dangling"):
        get_symmetrization("random_walk").apply(g)


def test_random_walk_all_dangling_lenient_warns():
    g = degenerate_case("all_dangling").build()
    with lenient(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        u = get_symmetrization("random_walk").apply(g)
    assert u.adjacency.nnz == 0
    codes = {
        getattr(w.message, "code", None)
        for w in caught
        if isinstance(w.message, ReproWarning)
    }
    assert "all_dangling" in codes


# ---------------------------------------------------------------------------
# Full-matrix sweep: corpus x symmetrization x pruning x clusterer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clusterer", CLUSTERERS)
@pytest.mark.parametrize("name", SYMMETRIZATIONS)
@pytest.mark.parametrize("case", CORPUS, ids=CASE_IDS)
def test_lenient_full_matrix_sweep(case, name, clusterer):
    """The acceptance sweep: every corpus graph through every
    symmetrization and both clusterers with pruning, in lenient mode.
    Only the empty graph may raise (typed); everything else must
    produce a valid labeling."""
    pipe = SymmetrizeClusterPipeline(
        name, clusterer, threshold=0.25, mode="lenient"
    )
    g = case.build()
    n_clusters = min(2, g.n_nodes) or None
    with _quiet():
        try:
            result = pipe.run(g, n_clusters=n_clusters)
        except ClusteringError:
            assert case.name == "empty"
            return
    assert_valid_clustering(result.clustering, g.n_nodes)
    assert_valid_symmetrized(result.symmetrized)


# ---------------------------------------------------------------------------
# Pipeline modes: exact expectations per corpus case
# ---------------------------------------------------------------------------


@pytest.mark.fault_smoke
@pytest.mark.parametrize("case", CORPUS, ids=CASE_IDS)
def test_strict_pipeline_exact_outcomes(case):
    pipe = SymmetrizeClusterPipeline("random_walk", "mlrmcl", mode="strict")
    expected = STRICT_PIPELINE_EXPECT[case.name]
    g = case.build()
    if expected is None:
        with _quiet():
            result = pipe.run(g)
        assert_valid_clustering(result.clustering, g.n_nodes)
    else:
        with _quiet(), pytest.raises(expected):
            pipe.run(g)


@pytest.mark.fault_smoke
@pytest.mark.parametrize("case", CORPUS, ids=CASE_IDS)
def test_lenient_pipeline_repairs_everything_but_empty(case):
    pipe = SymmetrizeClusterPipeline("random_walk", "mlrmcl", mode="lenient")
    g = case.build()
    with _quiet():
        try:
            result = pipe.run(g)
        except ClusteringError:
            assert case.name == "empty"
            return
    assert_valid_clustering(result.clustering, g.n_nodes)
    codes = result.warning_codes()
    if case.malformed:
        assert "repaired_weights" in codes
    if case.name == "all_dangling":
        assert "all_dangling" in codes
        assert "edgeless_clustering" in codes
    for w in result.warnings:
        assert isinstance(w, PipelineWarning)
        assert w.stage in ("validate", "symmetrize", "cluster")
        assert w.code and w.message


def test_lenient_pipeline_warnings_do_not_leak():
    """Structured capture means lenient runs stay silent at the user's
    warning filters — everything lands on result.warnings instead."""
    pipe = SymmetrizeClusterPipeline("random_walk", "mlrmcl", mode="lenient")
    g = degenerate_case("nan_weight").build()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = pipe.run(g)
    assert not [w for w in caught if isinstance(w.message, ReproWarning)]
    assert "repaired_weights" in result.warning_codes()


def test_strict_is_the_default_mode():
    pipe = SymmetrizeClusterPipeline("naive", "mlrmcl")
    assert pipe.mode == "strict"
    with pytest.raises(ValidationError, match="finite"):
        pipe.run(degenerate_case("nan_weight").build())


# ---------------------------------------------------------------------------
# Differential: apply_pruned must return apply's bytes
# ---------------------------------------------------------------------------


@pytest.mark.fault_smoke
@pytest.mark.parametrize("backend", ["python", "vectorized"])
@pytest.mark.parametrize("case", CORPUS, ids=CASE_IDS)
def test_apply_pruned_matches_apply_on_corpus(case, backend):
    """The §3.6 pruned fast path returns the row-span apply path's
    bytes and index dtypes on every corpus graph, ties included."""
    g = case.build()
    if case.malformed:
        g, _ = repair_graph(g)
    dd = DegreeDiscountedSymmetrization()
    thresholds = [0.05, 0.3]
    if case.tie_threshold is not None:
        thresholds.append(case.tie_threshold)
    with lenient(), _quiet():
        for t in thresholds:
            exact = dd.apply(g, threshold=t).adjacency
            fast = dd.apply_pruned(g, threshold=t, backend=backend).adjacency
            for part in ("indptr", "indices", "data"):
                want, got = getattr(exact, part), getattr(fast, part)
                assert got.dtype == want.dtype, (t, part)
                assert got.tobytes() == want.tobytes(), (t, part)


@pytest.mark.fault_smoke
@pytest.mark.parametrize("backend", ["python", "vectorized"])
def test_threshold_tie_survives_both_paths(backend):
    """Regression (satellite): a similarity that ties the prune
    threshold exactly must be kept by both paths. Before the relative
    tolerance fix, float drift in the pruned path's per-factor split
    dropped the tied edge on one side only; the paths now return the
    same bytes."""
    case = degenerate_case("near_threshold_tie")
    g = case.build()
    t = case.tie_threshold
    dd = DegreeDiscountedSymmetrization()
    exact = dd.apply(g, threshold=t).adjacency
    fast = dd.apply_pruned(g, threshold=t, backend=backend).adjacency
    # Nodes 0 and 1 share out-neighbour 2 with d_in = 2: similarity is
    # exactly 2^-0.5, which is also the threshold.
    assert exact[0, 1] == pytest.approx(2.0 ** -0.5)
    for part in ("indptr", "indices", "data"):
        assert getattr(fast, part).tobytes() == getattr(exact, part).tobytes()


# ---------------------------------------------------------------------------
# Corpus self-checks
# ---------------------------------------------------------------------------


def test_corpus_names_unique_and_lookup():
    assert len(CASE_IDS) == len(set(CASE_IDS))
    assert degenerate_case("empty").name == "empty"
    with pytest.raises(KeyError, match="unknown degenerate case"):
        degenerate_case("no_such_case")


def test_corpus_builds_fresh_instances():
    case = degenerate_case("reciprocal_pair")
    assert case.build() is not case.build()


def test_corpus_malformed_filter():
    well_formed = degenerate_corpus(include_malformed=False)
    assert all(not c.malformed for c in well_formed)
    assert len(well_formed) < len(CORPUS)
