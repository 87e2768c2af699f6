"""Unit tests for candidate generation (:func:`survivor_chunks`) and pair
ranges."""

import numpy as np
import pytest

from repro.core.candidates import (
    PairRange,
    block_range,
    full_range,
    strided_range,
    survivor_chunks,
)
from repro.core.state import CandidateBatch, ModeMatrix, canonical_support_mask
from repro.core.stats import IterationStats
from repro.linalg.bitset import PackedSupports, pack_support_rows


def _stats():
    return IterationStats(position=0, reaction="x", reversible=False)


def _chunks(modes, k, pos, neg, pair_range, rank_bound, stats=None,
            chunk_pairs=65536):
    return list(survivor_chunks(
        modes, k, pos, neg, pair_range, rank_bound,
        _stats() if stats is None else stats, chunk_pairs=chunk_pairs,
    ))


def dense_candidates(*args, **kw) -> ModeMatrix:
    """Every generation survivor as a dense normalized row."""
    modes = args[0]
    chunks = _chunks(*args, **kw)
    if not chunks:
        return ModeMatrix.empty(modes.q)
    return ModeMatrix(np.concatenate([c[2] for c in chunks], axis=0))


def support_batch(*args, **kw) -> CandidateBatch:
    """Every generation survivor as packed canonical supports + pair
    indices, the way the iteration body keeps float candidates."""
    modes, k = args[0], args[1]
    chunks = _chunks(*args, **kw)
    words = np.concatenate(
        [pack_support_rows(canonical_support_mask(c[2], modes.policy))
         for c in chunks],
        axis=0,
    )
    return CandidateBatch(
        PackedSupports(words, modes.q),
        np.concatenate([c[0] for c in chunks]),
        np.concatenate([c[1] for c in chunks]),
        k,
    )


class TestPairRanges:
    def test_full_range_counts_all(self):
        assert full_range(17).count() == 17

    @pytest.mark.parametrize("n_pairs,size", [(10, 3), (7, 7), (5, 8), (0, 4)])
    def test_strided_partition_is_exact(self, n_pairs, size):
        seen = []
        for r in range(size):
            pr = strided_range(n_pairs, r, size)
            idx = list(range(pr.start, pr.stop, pr.step))
            assert len(idx) == pr.count()
            seen.extend(idx)
        assert sorted(seen) == list(range(n_pairs))

    @pytest.mark.parametrize("n_pairs,size", [(10, 3), (7, 7), (5, 8), (0, 4)])
    def test_block_partition_is_exact(self, n_pairs, size):
        seen = []
        for r in range(size):
            pr = block_range(n_pairs, r, size)
            seen.extend(range(pr.start, pr.stop))
        assert sorted(seen) == list(range(n_pairs))

    def test_block_balance(self):
        counts = [block_range(10, r, 3).count() for r in range(3)]
        assert max(counts) - min(counts) <= 1

    def test_empty_range_count(self):
        assert PairRange(5, 5).count() == 0
        assert PairRange(6, 5).count() == 0


class TestGenerateCandidates:
    def _setup(self):
        # 3 modes over 4 reactions; row 2 has signs (+, -, 0).
        vals = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [1.0, 1.0, 0.0, 1.0],
            ]
        )
        return ModeMatrix(vals)

    def test_combination_annihilates_row(self):
        modes = self._setup()
        cand = dense_candidates(
            modes, 2, np.array([0]), np.array([1]), full_range(1), 3
        )
        assert cand.n_modes == 1
        assert cand.values[0, 2] == 0.0
        # a = -(-1) = 1, b = 1 -> mode0 + mode1 = (1,1,0,0) normalized
        assert np.allclose(cand.values[0], [1.0, 1.0, 0.0, 0.0])

    def test_deferred_batch_materializes_to_eager_rows(self):
        modes = self._setup()
        args = (modes, 2, np.array([0]), np.array([1]), full_range(1), 3)
        dense = dense_candidates(*args)
        batch = support_batch(*args)
        assert batch.n_modes == dense.n_modes == 1
        # Supports extracted from the transient values match the supports
        # of the normalized dense rows.
        assert np.array_equal(batch.supports.words, dense.supports.words)
        rebuilt = batch.materialize(modes.values)
        assert np.array_equal(rebuilt.values, dense.values)
        assert np.array_equal(rebuilt.supports.words, dense.supports.words)

    def test_deferred_batch_is_smaller_than_eager(self):
        rng = np.random.default_rng(3)
        modes = ModeMatrix(rng.normal(size=(20, 64)))
        col = modes.column(0)
        pos = np.nonzero(col > 0)[0]
        neg = np.nonzero(col < 0)[0]
        args = (modes, 0, pos, neg, full_range(pos.size * neg.size), 64)
        dense = dense_candidates(*args)
        batch = support_batch(*args)
        assert batch.n_modes == dense.n_modes > 0
        assert batch.nbytes() * 4 <= dense.nbytes()

    def test_prefilter_rejects_oversized_union(self):
        modes = ModeMatrix(
            np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, -1.0, 1.0]])
        )
        stats = _stats()
        chunks = _chunks(
            modes, 3, np.array([0]), np.array([1]), full_range(1),
            2,  # union popcount 6 > rank+2=4 -> reject
            stats=stats,
        )
        assert chunks == []
        assert stats.n_prefilter_kept == 0

    def test_chunking_equivalence(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(12, 6))
        modes = ModeMatrix(vals)
        col = modes.column(0)
        pos = np.nonzero(col > 0)[0]
        neg = np.nonzero(col < 0)[0]
        outs = [
            dense_candidates(
                modes, 0, pos, neg, full_range(pos.size * neg.size), 6,
                chunk_pairs=chunk,
            ).values
            for chunk in (1, 3, 10_000)
        ]
        # Chunking never reorders the enumeration: identical rows in
        # identical order.
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_strided_shares_cover_all_pairs(self):
        rng = np.random.default_rng(1)
        modes = ModeMatrix(rng.normal(size=(10, 5)))
        col = modes.column(1)
        pos = np.nonzero(col > 0)[0]
        neg = np.nonzero(col < 0)[0]
        n_pairs = pos.size * neg.size
        full = dense_candidates(modes, 1, pos, neg, full_range(n_pairs), 5)
        pieces = []
        for r in range(3):
            part = dense_candidates(
                modes, 1, pos, neg, strided_range(n_pairs, r, 3), 5
            )
            if part.n_modes:
                pieces.append(part.values)
        union = np.concatenate(pieces, axis=0)
        assert union.shape[0] == full.n_modes
        # Same multiset of rows.
        a = union[np.lexsort(union.T)]
        b = full.values[np.lexsort(full.values.T)]
        assert np.allclose(a, b)
