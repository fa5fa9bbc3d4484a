"""Unit tests for :mod:`repro.linalg.mmcsr` — the out-of-core CSR
store.

The store is held to two standards: round-trips must equal scipy's
own canonical CSR bit-for-bit, and a build that crashes at any point
must leave no partial store at the target path (``meta.json`` is the
commit record).
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import StorageError
from repro.linalg.mmcsr import MmapCSR, MmapCSRBuilder


def _random_csr(rng, shape=(60, 45), density=0.15) -> sp.csr_array:
    m = sp.random_array(shape, density=density, rng=rng, format="csr")
    m.sum_duplicates()
    m.sort_indices()
    return m


def _reference(rows, cols, vals, shape) -> sp.csr_array:
    ref = sp.coo_array((vals, (rows, cols)), shape=shape).tocsr()
    ref.sum_duplicates()
    ref.sort_indices()
    return ref


def _assert_equal_csr(
    store: MmapCSR, ref: sp.csr_array, exact_data: bool = True
) -> None:
    got = store.to_scipy()
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr.astype(got.indptr.dtype))
    assert np.array_equal(
        got.indices, ref.indices.astype(got.indices.dtype)
    )
    if exact_data:
        assert np.array_equal(got.data, ref.data.astype(np.float64))
    else:
        # Duplicate edges are summed in insertion order by the
        # builder and in scipy's own order by the reference — the
        # same multiset of floats, so only the last ULP may differ.
        assert np.allclose(
            got.data, ref.data.astype(np.float64), rtol=1e-12, atol=0
        )


class TestRoundTrip:
    def test_from_scipy_round_trip(self, rng, tmp_path):
        m = _random_csr(rng)
        store = MmapCSR.from_scipy(m, tmp_path / "m")
        _assert_equal_csr(store, m)
        assert store.nnz == m.nnz
        assert store.shape == m.shape

    def test_open_returns_equal_handle(self, rng, tmp_path):
        m = _random_csr(rng)
        MmapCSR.from_scipy(m, tmp_path / "m")
        reopened = MmapCSR.open(tmp_path / "m")
        _assert_equal_csr(reopened, m)

    def test_builder_matches_scipy_reference(self, rng, tmp_path):
        n_rows, n_cols = 200, 150
        rows = rng.integers(0, n_rows, size=5000)
        cols = rng.integers(0, n_cols, size=5000)
        vals = rng.random(5000)
        ref = _reference(rows, cols, vals, (n_rows, n_cols))
        with MmapCSRBuilder(
            tmp_path / "b", n_rows=n_rows, n_cols=n_cols
        ) as builder:
            # Uneven chunks, shuffled order: the builder must not care.
            for lo in (0, 17, 1200, 3000):
                hi = {0: 17, 17: 1200, 1200: 3000, 3000: 5000}[lo]
                builder.add_chunk(rows[lo:hi], cols[lo:hi], vals[lo:hi])
            store = builder.finalize()
        _assert_equal_csr(store, ref, exact_data=False)
        raw_pairs = len(set(zip(rows.tolist(), cols.tolist())))
        assert builder.n_duplicates == 5000 - raw_pairs

    def test_builder_square_inference(self, tmp_path):
        # Largest id on either endpoint defines the node universe.
        with MmapCSRBuilder(tmp_path / "sq", square=True) as builder:
            builder.add_chunk([0, 1], [7, 2], [1.0, 1.0])
            store = builder.finalize()
        assert store.shape == (8, 8)

    def test_empty_builder_with_declared_shape(self, tmp_path):
        with MmapCSRBuilder(tmp_path / "e", n_rows=4, n_cols=3) as b:
            store = b.finalize()
        assert store.shape == (4, 3)
        assert store.nnz == 0
        assert store.to_scipy().nnz == 0

    def test_window_views_match_slices(self, rng, tmp_path):
        m = _random_csr(rng, shape=(80, 30))
        store = MmapCSR.from_scipy(m, tmp_path / "m")
        for start, stop in ((0, 80), (10, 25), (79, 80), (40, 40)):
            window = store.to_scipy(rows=(start, stop))
            ref = m[start:stop]
            assert window.shape == (stop - start, 30)
            assert np.array_equal(
                np.diff(window.indptr), np.diff(ref.indptr)
            )
            assert np.array_equal(window.indices, ref.indices)
            assert np.array_equal(window.data, ref.data)

    def test_row_blocks_cover_once(self, rng, tmp_path):
        m = _random_csr(rng, shape=(50, 20))
        store = MmapCSR.from_scipy(m, tmp_path / "m")
        seen_rows = 0
        seen_nnz = 0
        for start, stop, window in store.row_blocks(16):
            assert stop - start <= 16
            assert start == seen_rows
            seen_rows = stop
            seen_nnz += window.nnz
        assert seen_rows == 50
        assert seen_nnz == m.nnz

    def test_pickle_is_path_only(self, rng, tmp_path):
        m = _random_csr(rng)
        store = MmapCSR.from_scipy(m, tmp_path / "m")
        payload = pickle.dumps(store)
        assert len(payload) < 1024
        _assert_equal_csr(pickle.loads(payload), m)

    def test_int32_indices_for_small_stores(self, rng, tmp_path):
        m = _random_csr(rng)
        store = MmapCSR.from_scipy(m, tmp_path / "m")
        assert store.indices.dtype == np.int32
        assert store.indptr.dtype == np.int32


class TestAtomicity:
    def test_crash_mid_build_leaves_no_store(self, tmp_path):
        """SIGKILL-grade exit between add_chunk and publish: the
        target path must not exist, and any scratch leftovers must
        not be openable as a store."""
        target = tmp_path / "crash"
        script = (
            "import os, sys\n"
            "from repro.linalg.mmcsr import MmapCSRBuilder\n"
            f"b = MmapCSRBuilder({str(target)!r}, n_rows=100, n_cols=100)\n"
            "b.add_chunk([0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])\n"
            "os._exit(1)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(__file__).resolve().parents[1],
            env=env,
        )
        assert proc.returncode == 1
        assert not target.exists()
        leftovers = list(tmp_path.glob("crash.tmp-*"))
        assert leftovers  # the scratch dir is what the crash orphaned
        for leftover in leftovers:
            with pytest.raises(StorageError, match="missing meta.json"):
                MmapCSR.open(leftover)

    def test_exception_mid_finalize_leaves_no_store(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "boom"
        builder = MmapCSRBuilder(target, n_rows=10, n_cols=10)
        builder.add_chunk([0, 1], [1, 2], [1.0, 2.0])
        monkeypatch.setattr(
            "repro.linalg.mmcsr._publish",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError, match="disk full"):
            builder.finalize()
        builder.abort()
        assert not target.exists()
        assert not list(tmp_path.glob("boom.tmp-*"))

    def test_abort_discards_scratch(self, tmp_path):
        target = tmp_path / "aborted"
        with MmapCSRBuilder(target, n_rows=5, n_cols=5) as builder:
            builder.add_chunk([0], [1], [1.0])
            # context manager exit without finalize() aborts
        assert not target.exists()
        assert not list(tmp_path.glob("aborted.tmp-*"))

    def test_open_rejects_missing_directory(self, tmp_path):
        with pytest.raises(StorageError, match="missing meta.json"):
            MmapCSR.open(tmp_path / "nothing")

    def test_open_rejects_malformed_meta(self, rng, tmp_path):
        MmapCSR.from_scipy(_random_csr(rng), tmp_path / "m")
        (tmp_path / "m" / "meta.json").write_text("{not json")
        with pytest.raises(StorageError, match="unreadable"):
            MmapCSR.open(tmp_path / "m")

    def test_open_rejects_wrong_format(self, rng, tmp_path):
        MmapCSR.from_scipy(_random_csr(rng), tmp_path / "m")
        (tmp_path / "m" / "meta.json").write_text('{"format": "v9"}')
        with pytest.raises(StorageError, match="unsupported"):
            MmapCSR.open(tmp_path / "m")

    def test_open_rejects_truncated_arrays(self, rng, tmp_path):
        store = MmapCSR.from_scipy(_random_csr(rng), tmp_path / "m")
        short = np.zeros(store.nnz - 1, dtype=np.float64)
        np.save(tmp_path / "m" / "data.npy", short)
        with pytest.raises(StorageError, match="capacity"):
            MmapCSR.open(tmp_path / "m")

    def test_builder_rejects_out_of_range_ids(self, tmp_path):
        builder = MmapCSRBuilder(tmp_path / "r", n_rows=3, n_cols=3)
        with pytest.raises(StorageError, match="out of range"):
            builder.add_chunk([5], [0], [1.0])
        builder.abort()

    def test_builder_rejects_negative_ids(self, tmp_path):
        builder = MmapCSRBuilder(tmp_path / "n")
        with pytest.raises(StorageError, match="negative"):
            builder.add_chunk([-1], [0], [1.0])
        builder.abort()
