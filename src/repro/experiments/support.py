"""Shared infrastructure for the experiment runners.

Holds the benchmark dataset bundle (the synthetic stand-ins at a
configurable scale, cached per scale), the result container, and the
symmetrize-and-prune helpers every experiment uses.

Symmetrization artifacts are shared across experiments through the
engine's content-addressed :class:`~repro.engine.ArtifactCache` —
keyed on the dataset fingerprint and the symmetrization config, not
on Python object identity — so re-running an experiment on an equal
graph (same bundle or a reloaded dataset) reuses the artifact where
the old id()-keyed cache could not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.datasets import (
    Dataset,
    make_cora_like,
    make_flickr_like,
    make_livejournal_like,
    make_wikipedia_like,
)
from repro.engine.cache import ArtifactCache
from repro.engine.executor import Executor
from repro.engine.plan import Plan
from repro.engine.stages import SymmetrizeStage
from repro.graph.digraph import DirectedGraph
from repro.graph.ugraph import UndirectedGraph
from repro.symmetrize import get_symmetrization
from repro.symmetrize.pruning import (
    choose_threshold_for_degree,
    prune_graph,
)

__all__ = [
    "SYMMETRIZATIONS",
    "DISPLAY",
    "ExperimentResult",
    "DatasetBundle",
    "experiment_cache",
    "full_symmetrization",
    "pruned_symmetrization",
    "match_edge_budget",
]

#: The four symmetrizations in the paper's reporting order.
SYMMETRIZATIONS = [
    "degree_discounted",
    "bibliometric",
    "naive",
    "random_walk",
]

#: Display names matching the paper's legends.
DISPLAY = {
    "naive": "A+A'",
    "random_walk": "Random Walk",
    "bibliometric": "Bibliometric",
    "degree_discounted": "Degree-discounted",
}


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment runner.

    Attributes
    ----------
    experiment:
        Experiment id (``"table1"``, ``"fig5a"``, …).
    title:
        Human-readable title.
    text:
        The formatted table / series block, as printed by the paper's
        harness.
    data:
        Machine-readable values (peaks, fractions, timings) used by
        the benchmark assertions.
    """

    experiment: str
    title: str
    text: str
    data: dict = field(default_factory=dict)


class DatasetBundle:
    """The four stand-in datasets at one scale, built lazily.

    Scale 1.0 gives the default benchmark sizes (cora-like 1,500
    nodes, wikipedia-like 3,000, flickr-like 6,000, livejournal-like
    10,000); other scales multiply every node budget.
    """

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        self.scale = float(scale)
        self.seed = int(seed)
        self._cache: dict[str, Dataset] = {}

    def cora(self) -> Dataset:
        """Cora-like citation dataset."""
        if "cora" not in self._cache:
            self._cache["cora"] = make_cora_like(
                n_nodes=int(1500 * self.scale),
                n_categories=25,
                seed=self.seed,
            )
        return self._cache["cora"]

    def wiki(self) -> Dataset:
        """Wikipedia-like hyperlink dataset.

        The list-cluster count shrinks with the node budget (8 at the
        default scale) so tiny bundles remain buildable.
        """
        if "wiki" not in self._cache:
            n_nodes = int(3000 * self.scale)
            n_list_clusters = max(2, min(8, n_nodes // 350))
            self._cache["wiki"] = make_wikipedia_like(
                n_nodes=n_nodes,
                n_categories=30,
                seed=self.seed,
                n_list_clusters=n_list_clusters,
            )
        return self._cache["wiki"]

    def flickr(self) -> Dataset:
        """Flickr-like social dataset (timing only)."""
        if "flickr" not in self._cache:
            self._cache["flickr"] = make_flickr_like(
                n_nodes=int(6000 * self.scale), seed=self.seed
            )
        return self._cache["flickr"]

    def livejournal(self) -> Dataset:
        """LiveJournal-like social dataset (timing only)."""
        if "livejournal" not in self._cache:
            self._cache["livejournal"] = make_livejournal_like(
                n_nodes=int(10000 * self.scale), seed=self.seed
            )
        return self._cache["livejournal"]


@lru_cache(maxsize=1)
def _shared_bundle_cache() -> dict:
    return {}


def shared_bundle(scale: float = 1.0, seed: int = 0) -> DatasetBundle:
    """A process-wide cached bundle per (scale, seed)."""
    cache = _shared_bundle_cache()
    key = (float(scale), int(seed))
    if key not in cache:
        cache[key] = DatasetBundle(scale=scale, seed=seed)
    return cache[key]


#: Process-wide in-memory artifact cache the experiment runners share.
_ARTIFACTS = ArtifactCache()


def experiment_cache() -> ArtifactCache:
    """The artifact cache experiment helpers run against.

    The runners share one process-wide in-memory cache, which is the
    cross-experiment reuse the old identity-keyed cache provided.
    """
    return _ARTIFACTS


def full_symmetrization(
    graph: DirectedGraph, name: str
) -> UndirectedGraph:
    """Unpruned symmetrized graph, content-addressed-cached.

    Runs a one-stage engine plan so the artifact is keyed on the
    dataset fingerprint plus the symmetrization config and lands in
    :func:`experiment_cache` — shared across experiments and equal
    graph objects.
    """
    plan = Plan(
        [SymmetrizeStage(get_symmetrization(name))],
        initial=("graph",),
        name=f"experiments.full_symmetrization[{name}]",
    )
    executor = Executor(mode="strict", cache=experiment_cache())
    return executor.execute(plan, {"graph": graph}).values["symmetrized"]


def pruned_symmetrization(
    graph: DirectedGraph,
    name: str,
    target_degree: float = 20.0,
) -> tuple[UndirectedGraph, float]:
    """Symmetrize and prune to roughly ``target_degree`` avg degree.

    The §5.3.1 threshold-selection recipe applied uniformly to every
    method, mirroring the paper's matched edge budgets (Table 2).
    """
    full = full_symmetrization(graph, name)
    threshold = choose_threshold_for_degree(
        full, target_degree, rng=np.random.default_rng(0)
    )
    return prune_graph(full, threshold), threshold


def match_edge_budget(
    full: UndirectedGraph, target_edges: int
) -> tuple[UndirectedGraph, float]:
    """Prune ``full`` to at most ``target_edges`` by threshold
    bisection (how the paper matched Bibliometric's edge count to
    Degree-discounted's in §5.3)."""
    adj_max = float(full.adjacency.max()) if full.adjacency.nnz else 0.0
    lo, hi = 0.0, adj_max
    for _ in range(40):
        mid = (lo + hi) / 2
        if prune_graph(full, mid).n_edges > target_edges:
            lo = mid
        else:
            hi = mid
    return prune_graph(full, hi), hi
