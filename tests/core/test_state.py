"""Unit tests for the ModeMatrix container."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.state import CandidateBatch, ModeMatrix, canonical_support_mask
from repro.errors import AlgorithmError
from repro.linalg.bitset import PackedSupports


class TestConstruction:
    def test_normalizes_rows_to_unit_max(self):
        m = ModeMatrix(np.array([[2.0, -4.0], [0.5, 0.0]]))
        assert np.allclose(np.abs(m.values).max(axis=1), 1.0)

    def test_snaps_small_values(self):
        m = ModeMatrix(np.array([[1.0, 1e-13]]))
        assert m.values[0, 1] == 0.0
        assert not m.supports.to_bool()[1, 0]

    def test_supports_sync_with_values(self):
        m = ModeMatrix(np.array([[1.0, 0.0, -3.0], [0.0, 2.0, 0.0]]))
        assert np.array_equal(
            m.supports.to_bool().T, m.values != 0.0
        )

    def test_exact_mode_integerizes(self):
        vals = np.empty((1, 2), dtype=object)
        vals[0, 0] = Fraction(1, 2)
        vals[0, 1] = Fraction(3, 2)
        m = ModeMatrix(vals)
        assert [int(x) for x in m.values[0]] == [1, 3]
        assert m.exact

    def test_from_kernel_transposes(self):
        kernel = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        m = ModeMatrix.from_kernel(kernel)
        assert m.n_modes == 2 and m.q == 3

    def test_empty(self):
        m = ModeMatrix.empty(5)
        assert m.n_modes == 0 and m.q == 5


class TestOperations:
    def test_select_keeps_supports(self):
        m = ModeMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        sel = m.select(np.array([2, 0]))
        assert sel.n_modes == 2
        assert np.array_equal(sel.supports.to_bool().T, sel.values != 0.0)

    def test_select_bool_mask(self):
        m = ModeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sel = m.select(np.array([True, False]))
        assert sel.n_modes == 1

    def test_concat(self):
        a = ModeMatrix(np.array([[1.0, 0.0]]))
        b = ModeMatrix(np.array([[0.0, 1.0]]))
        c = a.concat(b)
        assert c.n_modes == 2

    def test_concat_width_mismatch(self):
        with pytest.raises(AlgorithmError):
            ModeMatrix(np.ones((1, 2))).concat(ModeMatrix(np.ones((1, 3))))

    def test_concat_exact_float_mismatch(self):
        vals = np.empty((1, 2), dtype=object)
        vals[0, :] = [Fraction(1), Fraction(2)]
        with pytest.raises(AlgorithmError):
            ModeMatrix(np.ones((1, 2))).concat(ModeMatrix(vals))

    def test_dedup_by_support_keeps_first(self):
        m = ModeMatrix(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        d = m.dedup()
        assert d.n_modes == 2
        # first occurrence of support {0} kept (normalized value 1.0)
        assert d.values[0, 0] == 1.0

    def test_dedup_noop_returns_self(self):
        m = ModeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert m.dedup() is m

    def test_column_accessor(self):
        m = ModeMatrix(np.array([[1.0, -0.5], [0.0, 1.0]]))
        assert np.allclose(m.column(1), m.values[:, 1])

    def test_modes_as_columns_matches_paper_orientation(self):
        m = ModeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        cols = m.modes_as_columns()
        assert cols.shape == (2, 2)
        assert np.array_equal(cols, m.values.T)

    def test_nbytes_positive_and_grows(self):
        small = ModeMatrix(np.ones((2, 4)))
        big = ModeMatrix(np.ones((200, 4)))
        assert 0 < small.nbytes() < big.nbytes()

    def test_from_parts_skips_normalization(self):
        m = ModeMatrix(np.array([[1.0, 0.5]]))
        rebuilt = ModeMatrix.from_parts(m.values, m.supports, m.policy)
        assert np.array_equal(rebuilt.values, m.values)

    def test_from_parts_count_mismatch(self):
        m = ModeMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(AlgorithmError):
            ModeMatrix.from_parts(m.values[:1], m.supports, m.policy)


class TestNbytesCountsSigns:
    def test_sign_cache_included_once_primed(self):
        m = ModeMatrix(np.array([[1.0, -0.5, 0.0], [0.0, 1.0, 2.0]]))
        base = m.nbytes()
        m.sign_matrix()  # prime the cache
        assert m.nbytes() == base + m.sign_matrix().nbytes

    def test_exact_mode_counts_signs_too(self):
        vals = np.empty((1, 2), dtype=object)
        vals[0, :] = [Fraction(1), Fraction(-2)]
        m = ModeMatrix(vals)
        base = m.nbytes()
        m.sign_matrix()
        assert m.nbytes() == base + m.sign_matrix().nbytes


class TestCanonicalSupportMask:
    def test_matches_constructor_supports(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(40, 10))
        # Sprinkle exact zeros and sub-threshold noise.
        vals[rng.random(vals.shape) < 0.3] = 0.0
        vals[0, 1] = 1e-13
        m = ModeMatrix(vals)
        mask = canonical_support_mask(vals, m.policy)
        assert np.array_equal(mask, m.supports.to_bool().T)

    def test_all_zero_row_stays_empty(self):
        mask = canonical_support_mask(np.zeros((2, 5)), ModeMatrix(np.ones((1, 1))).policy)
        assert not mask.any()

    def test_empty_input(self):
        mask = canonical_support_mask(np.zeros((0, 5)), ModeMatrix(np.ones((1, 1))).policy)
        assert mask.shape == (0, 5)


class TestCandidateBatch:
    def _batch(self):
        # Row k = 1 has one positive mode (0) and two negative (1, 2):
        # the natural pairs are (0, 1) and (0, 2), with coefficients
        # a = -col[j] > 0, b = col[i] > 0 derived from the column.
        source = ModeMatrix(np.array([
            [1.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, -2.0, 0.0, 1.0],
        ]))
        k = 1
        col = source.values[:, k]
        pair_i = np.array([0, 0])
        pair_j = np.array([1, 2])
        vals = (
            source.values[pair_i] * (-col[pair_j])[:, None]
            + source.values[pair_j] * col[pair_i][:, None]
        )
        mask = canonical_support_mask(vals, source.policy)
        batch = CandidateBatch(
            PackedSupports.from_bool(mask.T), pair_i, pair_j, k,
            policy=source.policy,
        )
        return source, batch

    def test_protocol_surface(self):
        _, batch = self._batch()
        assert batch.n_modes == len(batch) == 2
        assert batch.q == 4
        assert batch.exact is False
        assert batch.row == 1
        assert batch.nbytes() == batch.supports.nbytes() + 2 * 2 * 8
        assert "2 candidates" in repr(batch)

    def test_materialize_matches_eager(self):
        source, batch = self._batch()
        dense = batch.materialize(source.values)
        col = source.values[:, batch.row]
        eager = ModeMatrix(
            source.values[batch.pair_i] * (-col[batch.pair_j])[:, None]
            + source.values[batch.pair_j] * col[batch.pair_i][:, None]
        )
        assert np.array_equal(dense.values, eager.values)
        assert np.array_equal(dense.supports.words, batch.supports.words)

    def test_select(self):
        _, batch = self._batch()
        one = batch.select(np.array([1]))
        assert one.n_modes == 1 and one.pair_j[0] == 2
        assert one.row == batch.row
        both = batch.select(np.array([1, 0]))
        assert list(both.pair_j) == [2, 1]
        assert np.array_equal(both.supports.words, batch.supports.words[::-1])

    def test_wire_parts(self):
        # The wire is supports + int32 pair indices only; the receiver
        # supplies the iteration row from its own (lockstep) loop counter
        # and derives the coefficients at materialization.
        _, batch = self._batch()
        words, pair_i, pair_j = batch.to_wire()
        assert words is batch.supports.words
        assert pair_i.dtype == pair_j.dtype == np.int32
        assert list(pair_i) == list(batch.pair_i)
        assert list(pair_j) == list(batch.pair_j)

    def test_length_mismatch_rejected(self):
        _, batch = self._batch()
        with pytest.raises(AlgorithmError):
            CandidateBatch(
                batch.supports, batch.pair_i[:1], batch.pair_j, batch.row
            )

    def test_empty(self):
        e = CandidateBatch.empty(9)
        assert e.n_modes == 0 and e.q == 9 and e.nbytes() >= 0


class TestDedupIndexAccounting:
    """The streaming dedup index travels with its result object; memory
    accounting must see it for as long as the candidates are alive."""

    def _index(self, n_words, rows=4):
        from repro.core.bittree import SupportIndex

        idx = SupportIndex(n_words)
        idx.add(np.arange(1, rows + 1, dtype=np.uint64).reshape(rows, 1)
                if n_words == 1 else
                np.arange(1, rows * n_words + 1, dtype=np.uint64)
                .reshape(rows, n_words))
        return idx

    def test_mode_matrix_nbytes_includes_index(self):
        m = ModeMatrix(np.eye(5))
        base = m.nbytes()
        m.dedup_index = self._index(m.supports.words.shape[1])
        assert m.nbytes() == base + m.dedup_index.nbytes()
        assert m.dedup_index.nbytes() > 0

    def test_candidate_batch_nbytes_includes_index(self):
        mask = np.zeros((3, 6), dtype=bool)
        mask[:, 0] = True
        batch = CandidateBatch(
            PackedSupports.from_bool(mask.T),
            np.array([0, 1, 2]), np.array([3, 4, 5]), 0,
        )
        base = batch.nbytes()
        batch.dedup_index = self._index(batch.supports.words.shape[1])
        assert batch.nbytes() == base + batch.dedup_index.nbytes()

    def test_derived_matrices_drop_the_index(self):
        # select/concat build new matrices for the *next* iteration — the
        # finished iteration's streaming state must not be charged to them.
        m = ModeMatrix(np.eye(4))
        m.dedup_index = self._index(m.supports.words.shape[1])
        assert m.select(np.array([0, 1])).dedup_index is None
        assert m.concat(ModeMatrix(np.eye(4))).dedup_index is None
