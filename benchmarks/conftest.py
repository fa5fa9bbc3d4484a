"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper by
delegating to :mod:`repro.experiments` (the single source of truth for
experiment definitions), prints the rows/series, writes them to
``benchmarks/results/``, and asserts the paper's *shape* claims on the
returned machine-readable data.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 1.0): the default sizes are laptop-friendly stand-ins for the
paper's datasets; raise the scale for sharper curves. Only scale-1
runs write ``benchmarks/results/``; other scales just print.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.support import DatasetBundle

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
RESULTS_DIR = Path(__file__).parent / "results"

#: One bundle for the whole benchmark session so dataset generation
#: and cached symmetrizations are amortized across experiments.
BUNDLE = DatasetBundle(scale=SCALE, seed=0)


def emit(name: str, text: str) -> None:
    """Print a result block; at scale 1 also persist it under
    benchmarks/results/, whose committed files are full-scale runs
    that another scale must not overwrite."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    if SCALE == 1.0:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


# Dataset fixtures, kept for benchmarks that go beyond the predefined
# experiment runners (ablations, planted-list recovery).


@pytest.fixture
def cora():
    return BUNDLE.cora()


@pytest.fixture
def wiki():
    return BUNDLE.wiki()


@pytest.fixture
def flickr():
    return BUNDLE.flickr()


@pytest.fixture
def livejournal():
    return BUNDLE.livejournal()


# Backwards-compatible module-level accessors used by older helpers.


def cora_dataset():
    """Benchmark-scale cora-like dataset (session cached)."""
    return BUNDLE.cora()


def wiki_dataset():
    """Benchmark-scale wikipedia-like dataset."""
    return BUNDLE.wiki()


def flickr_dataset():
    """Benchmark-scale flickr-like dataset (timing only)."""
    return BUNDLE.flickr()


def livejournal_dataset():
    """Benchmark-scale livejournal-like dataset (timing only)."""
    return BUNDLE.livejournal()
