"""Unit tests for :mod:`repro.linalg.sparse_utils`."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, SymmetrizationError
from repro.graph import DirectedGraph, UndirectedGraph
from repro.linalg.sparse_utils import (
    TIE_RTOL,
    degree_power,
    drop_diagonal,
    degree_scale,
    prune_matrix,
    row_normalize,
    sample_rows_similarity,
    top_k_entries,
)


def _mat(dense):
    return sp.csr_array(np.asarray(dense, dtype=float))


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        m = row_normalize(_mat([[1, 3], [2, 2]]))
        assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), 1.0)

    def test_zero_rows_stay_zero(self):
        m = row_normalize(_mat([[0, 0], [1, 1]]))
        assert m[[0], :].sum() == 0.0


class TestDegreePower:
    def test_positive_degrees(self):
        out = degree_power(np.array([4.0, 9.0]), 0.5)
        assert np.allclose(out, [0.5, 1.0 / 3.0])

    def test_zero_degree_maps_to_zero(self):
        out = degree_power(np.array([0.0, 1.0]), 0.5)
        assert out[0] == 0.0

    def test_exponent_zero_is_indicator(self):
        out = degree_power(np.array([0.0, 5.0]), 0.0)
        assert out.tolist() == [0.0, 1.0]

    def test_rejects_negative_degrees(self):
        with pytest.raises(SymmetrizationError):
            degree_power(np.array([-1.0]), 0.5)


class TestDegreeScale:
    def test_row_and_col_scaling(self):
        m = degree_scale(
            _mat([[1, 2], [3, 4]]),
            row_factors=np.array([2.0, 1.0]),
            col_factors=np.array([1.0, 10.0]),
        )
        dense = m.todense()
        assert dense[0, 0] == 2.0
        assert dense[0, 1] == 40.0

    def test_none_factors_identity(self):
        m = _mat([[1, 2], [3, 4]])
        assert np.allclose(degree_scale(m).todense(), m.todense())

    def test_rejects_bad_lengths(self):
        with pytest.raises(GraphError):
            degree_scale(_mat([[1]]), row_factors=np.ones(3))
        with pytest.raises(GraphError):
            degree_scale(_mat([[1]]), col_factors=np.ones(3))


class TestPruneMatrix:
    def test_drops_below_threshold(self):
        m = prune_matrix(_mat([[0.5, 2.0], [3.0, 0.1]]), 1.0)
        assert m.nnz == 2
        assert m.todense()[0, 1] == 2.0

    def test_threshold_is_inclusive(self):
        m = prune_matrix(_mat([[1.0]]), 1.0)
        assert m.nnz == 1

    def test_zero_threshold_keeps_everything(self):
        m = prune_matrix(_mat([[0.001, 5.0]]), 0.0)
        assert m.nnz == 2

    def test_keep_diagonal(self):
        m = prune_matrix(
            _mat([[0.1, 5.0], [5.0, 0.1]]), 1.0, keep_diagonal=True
        )
        assert m.todense()[0, 0] == 0.1

    def test_rejects_negative_threshold(self):
        with pytest.raises(SymmetrizationError):
            prune_matrix(_mat([[1.0]]), -1.0)

    def test_monotone_in_threshold(self, rng):
        m = sp.random_array((50, 50), density=0.2, rng=rng, format="csr")
        prev = m.nnz
        for threshold in [0.2, 0.5, 0.8]:
            pruned = prune_matrix(m, threshold)
            assert pruned.nnz <= prev
            prev = pruned.nnz


def _coo_prune_oracle(matrix, threshold, keep_diagonal=False):
    """The COO round trip ``prune_matrix`` replaced, kept as its
    oracle: copy, expand to COO, filter, rebuild a COO, convert back
    (summing duplicates), drop stored zeros."""
    csr = matrix.tocsr().copy()
    if threshold == 0:
        csr.eliminate_zeros()
        return csr
    coo = csr.tocoo()
    keep = coo.data >= threshold * (1.0 - TIE_RTOL)
    if keep_diagonal:
        keep |= coo.row == coo.col
    pruned = sp.coo_array(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=csr.shape
    ).tocsr()
    pruned.eliminate_zeros()
    return pruned


@st.composite
def _prune_inputs(draw):
    """Raw CSR arrays — rows unsorted, duplicate entries, stored zeros,
    negative and tied values, NaN on the diagonal — in either index
    dtype, with a threshold that is 0, one of the stored values (an
    exact tie) or drawn."""
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(1, 6)) if n_rows else draw(st.integers(0, 4))
    values = st.sampled_from([0.0, -0.0, -1.0, 0.25, 0.5, 0.5, 1.0, 2.0])
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, max(n_rows - 1, 0)),
                st.integers(0, max(n_cols - 1, 0)),
                values,
            ),
            max_size=25 if n_rows and n_cols else 0,
        )
    )
    if n_rows and n_cols and draw(st.booleans()):
        entries.append((0, 0, np.nan))
    if draw(st.booleans()):
        entries.sort(key=lambda e: (e[0], e[1]))
    else:
        entries.sort(key=lambda e: e[0])
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    matrix = sp.csr_array(
        (
            np.array([e[2] for e in entries], dtype=np.float64),
            np.array([e[1] for e in entries], dtype=dtype),
            np.concatenate(
                ([0], np.cumsum(np.bincount(rows, minlength=n_rows)))
            ).astype(dtype),
        ),
        shape=(n_rows, n_cols),
    )
    stored = [e[2] for e in entries if e[2] > 0]
    threshold = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from(stored) if stored else st.just(0.5),
            st.floats(0.01, 3.0),
        )
    )
    return matrix, threshold, draw(st.booleans())


@given(_prune_inputs())
@settings(max_examples=300, deadline=None)
def test_prune_matrix_equals_coo_round_trip(inputs):
    """Bytes and index dtypes equal the old COO round trip's, and the
    input is not mutated."""
    matrix, threshold, keep_diagonal = inputs
    before = [
        getattr(matrix, part).copy() for part in ("indptr", "indices", "data")
    ]
    got = prune_matrix(matrix, threshold, keep_diagonal=keep_diagonal)
    want = _coo_prune_oracle(matrix, threshold, keep_diagonal)
    assert type(got) is type(want)
    assert got.shape == want.shape
    _assert_same_csr(got, want)
    for part, old in zip(("indptr", "indices", "data"), before):
        assert getattr(matrix, part).tobytes() == old.tobytes()


class TestDropDiagonal:
    @staticmethod
    def _lil_oracle(matrix):
        lil = matrix.copy().tolil()
        lil.setdiag(0.0)
        out = lil.tocsr()
        out.eliminate_zeros()
        return out

    def test_equals_lil_round_trip(self, rng):
        """Random matrices with duplicate and unsorted entries, stored
        zeros, rectangular and empty shapes and 64-bit indices."""
        cases = [sp.csr_array(shape) for shape in ((0, 0), (0, 3), (3, 0))]
        for _ in range(100):
            rows, cols = rng.integers(0, 9, 30), rng.integers(0, 7, 30)
            values = rng.choice([0.0, 0.5, 1.0, 3.0], 30)
            counts = np.bincount(rows, minlength=9)
            raw = sp.csr_array(
                (values, cols, np.concatenate(([0], np.cumsum(counts)))),
                shape=(9, 7),
            )
            canonical = sp.csr_array((values, (rows, cols)), shape=(9, 7))
            wide = sp.csr_array(
                (
                    canonical.data,
                    canonical.indices.astype(np.int64),
                    canonical.indptr.astype(np.int64),
                ),
                shape=(9, 7),
            )
            cases += [raw, canonical, wide]
        for matrix in cases:
            before = matrix.indices.copy()
            got, want = drop_diagonal(matrix), self._lil_oracle(matrix)
            assert np.array_equal(matrix.indices, before)  # not mutated
            _assert_same_csr(got, want)

    @staticmethod
    def _square_cases(rng):
        """Self-loops only, and a symmetric mix with self-loops and
        empty rows (nodes 2, 5 and 7), each also with 64-bit indices."""
        nodes = np.array([0, 1, 3, 4, 6, 8])
        rows, cols = rng.choice(nodes, 20), rng.choice(nodes, 20)
        upper = sp.coo_array((rng.random(20), (rows, cols)), shape=(9, 9))
        loops = sp.diags_array(np.arange(1.0, 10.0))
        return [
            _indexed(matrix, dtype)
            for matrix in (loops, upper + upper.T)
            for dtype in (np.int32, np.int64)
        ]

    @pytest.mark.parametrize("cls", [DirectedGraph, UndirectedGraph])
    def test_without_self_loops_equals_lil_round_trip(self, cls, rng):
        for adjacency in self._square_cases(rng):
            graph = cls(adjacency, validate=False)
            want = cls(self._lil_oracle(graph.adjacency), validate=False)
            _assert_same_csr(
                graph.without_self_loops().adjacency, want.adjacency
            )

    def test_bipartite_projection_equals_lil_round_trip(self, rng):
        """The biadjacency's empty rows leave empty similarity rows;
        the identity's projection is its diagonal alone."""
        from repro.symmetrize import bipartite

        sym = bipartite.BipartiteDegreeDiscounted()
        cases = [sp.csr_array(sp.eye_array(5))]
        cases += [matrix[:, :6] for matrix in self._square_cases(rng)]
        for B in cases:
            for threshold in (0.0, 0.3):
                got = sym.left_similarity(B, threshold).adjacency
                with mock.patch.object(
                    bipartite, "drop_diagonal", self._lil_oracle
                ):
                    want = sym.left_similarity(B, threshold).adjacency
                _assert_same_csr(got, want)


def _indexed(matrix, dtype):
    """``matrix`` as a CSR with ``indptr`` and ``indices`` in ``dtype``."""
    csr = sp.csr_array(matrix)
    return sp.csr_array(
        (csr.data, csr.indices.astype(dtype), csr.indptr.astype(dtype)),
        shape=csr.shape,
    )


def _assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


class TestTopK:
    def test_descending_order(self):
        m = _mat([[0, 3, 1], [3, 0, 7], [1, 7, 0]])
        top = top_k_entries(m, 2)
        assert top[0][2] == 7.0
        assert top[1][2] == 3.0

    def test_upper_triangle_dedup(self):
        m = _mat([[0, 5], [5, 0]])
        top = top_k_entries(m, 10)
        assert len(top) == 1
        assert top[0][:2] == (0, 1)

    def test_diagonal_excluded(self):
        m = _mat([[9, 1], [1, 9]])
        top = top_k_entries(m, 10)
        assert all(i != j for i, j, _ in top)

    def test_include_diagonal_and_lower(self):
        m = _mat([[9, 1], [1, 9]])
        top = top_k_entries(
            m, 10, upper_triangle_only=False, exclude_diagonal=False
        )
        assert len(top) == 4

    def test_k_zero(self):
        assert top_k_entries(_mat([[0, 1], [1, 0]]), 0) == []

    def test_k_larger_than_entries(self):
        m = _mat([[0, 2], [2, 0]])
        assert len(top_k_entries(m, 100)) == 1

    def test_rejects_negative_k(self):
        with pytest.raises(GraphError):
            top_k_entries(_mat([[1]]), -1)


class TestSampleRows:
    def test_returns_nonzeros_of_sampled_rows(self, rng):
        m = _mat([[1, 0], [0, 2]])
        values = sample_rows_similarity(m, 2, rng)
        assert sorted(values.tolist()) == [1.0, 2.0]

    def test_sample_size_capped(self, rng):
        m = _mat([[1, 1], [1, 1]])
        values = sample_rows_similarity(m, 100, rng)
        assert values.size == 4

    def test_empty_matrix(self, rng):
        values = sample_rows_similarity(sp.csr_array((0, 0)), 5, rng)
        assert values.size == 0
