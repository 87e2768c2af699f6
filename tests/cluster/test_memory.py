"""Unit tests for the per-node memory model."""

import numpy as np
import pytest

from repro.cluster.memory import (
    DEFAULT_PAIR_CHUNK,
    DEFAULT_STREAM_CHUNK_BYTES,
    MemoryModel,
    candidate_row_bytes,
    estimate_mode_bytes,
    predict_subset_peak_bytes,
    streaming_chunk_pairs,
)
from repro.core.state import ModeMatrix
from repro.errors import OutOfMemoryError


def _modes(n, q=8):
    return ModeMatrix(np.ones((n, q)))


class TestMemoryModel:
    def test_under_capacity_records_peak(self):
        mm = MemoryModel(capacity_bytes=10**9)
        mm.charge(0, _modes(10))
        mm.charge(1, _modes(100))
        mm.charge(2, _modes(50))
        assert mm.peak_bytes == int(1.5 * _modes(100).nbytes())
        assert mm.last_iteration == 2

    def test_overflow_raises_with_context(self):
        mm = MemoryModel(capacity_bytes=100)
        with pytest.raises(OutOfMemoryError) as exc_info:
            mm.charge(7, _modes(1000))
        err = exc_info.value
        assert err.iteration == 7
        assert err.required_bytes > 100
        assert err.capacity_bytes == 100

    def test_non_enforcing_dry_run(self):
        mm = MemoryModel(capacity_bytes=1, enforcing=False)
        mm.charge(0, _modes(1000))  # no raise
        assert mm.peak_bytes > 1

    def test_working_factor(self):
        lean = MemoryModel(capacity_bytes=10**9, working_factor=1.0)
        fat = MemoryModel(capacity_bytes=10**9, working_factor=2.0)
        m = _modes(10)
        lean.charge(0, m)
        fat.charge(0, m)
        assert fat.peak_bytes == 2 * lean.peak_bytes

    def test_fresh_resets_peak_keeps_config(self):
        mm = MemoryModel(capacity_bytes=123, working_factor=1.25, enforcing=False)
        mm.charge(0, _modes(100))
        f = mm.fresh()
        assert f.peak_bytes == 0
        assert f.capacity_bytes == 123
        assert f.working_factor == 1.25
        assert f.enforcing is False

    def test_check_alias(self):
        mm = MemoryModel(capacity_bytes=10**9)
        mm.check(3, _modes(5))
        assert mm.last_iteration == 3


class TestEstimate:
    def test_matches_mode_matrix_nbytes(self):
        for n, q in [(10, 8), (100, 70), (3, 130)]:
            est = estimate_mode_bytes(n, q)
            actual = ModeMatrix(np.ones((n, q))).nbytes()
            assert est == actual

    def test_zero_modes(self):
        assert estimate_mode_bytes(0, 10) == 0


class TestCandidateRowBytes:
    def test_deferred_much_smaller_for_wide_networks(self):
        q = 64
        assert candidate_row_bytes(q) == 8 + 16
        # Packed supports + pair indices vs a dense mode row.
        assert estimate_mode_bytes(1, q) >= 4 * candidate_row_bytes(q)

    def test_word_rounding(self):
        assert candidate_row_bytes(65) == 16 + 16
        assert candidate_row_bytes(1) == 8 + 16


class TestStreamingChunkPairs:
    def test_clamped_to_pair_chunk(self):
        # A huge budget never enlarges a chunk beyond DEFAULT_PAIR_CHUNK.
        assert streaming_chunk_pairs(32, 1 << 40) == DEFAULT_PAIR_CHUNK

    def test_tiny_budget_floors_at_one_pair(self):
        assert streaming_chunk_pairs(32, 1) == 1

    def test_budget_scales_chunk(self):
        small = streaming_chunk_pairs(64, 8 << 10)
        big = streaming_chunk_pairs(64, 128 << 10)
        assert 1 <= small < big

    def test_auto_is_the_default_budget(self):
        for q in (8, 64, 4096):
            assert streaming_chunk_pairs(q, "auto") == streaming_chunk_pairs(
                q, DEFAULT_STREAM_CHUNK_BYTES
            )


class TestStreamingAwarePrediction:
    def test_smaller_chunk_budget_never_raises_prediction(self):
        from repro.dnc.subsets import enumerate_subsets
        from repro.models.toy import toy_network
        from repro.network.compression import compress_network

        reduced = compress_network(toy_network()).reduced
        for spec in enumerate_subsets(("r6r", "r8r")):
            auto = predict_subset_peak_bytes(reduced, spec)
            small = predict_subset_peak_bytes(
                reduced, spec, iter_chunk_bytes=4 << 10
            )
            assert 0 <= small <= auto


class TestPredictionUpperBoundsMeasuredPeak:
    """Acceptance property: the a-priori prediction upper-bounds the
    *measured* peak (working-factor-weighted mode storage plus the worst
    iteration's retained-candidate + generation-transient bytes, straight
    from the run stats) for both pair strategies and chunk budgets."""

    WF = 1.5

    @staticmethod
    def _measured(stats, wf):
        cand = max(
            (it.candidate_bytes + it.prefilter_bytes for it in stats.iterations),
            default=0,
        )
        return wf * stats.peak_mode_bytes + cand

    @pytest.mark.parametrize("chunk", ["auto", 64 << 10])
    @pytest.mark.parametrize("strategy", ["strided", "block"])
    def test_prediction_is_upper_bound(self, chunk, strategy):
        from repro.config import AlgorithmOptions
        from repro.dnc.combined import solve_subset
        from repro.dnc.subsets import enumerate_subsets
        from repro.models.toy import toy_network
        from repro.network.compression import compress_network

        reduced = compress_network(toy_network()).reduced
        opts = AlgorithmOptions(iter_chunk_bytes=chunk)
        for spec in enumerate_subsets(("r6r", "r8r")):
            predicted = predict_subset_peak_bytes(
                reduced, spec,
                working_factor=self.WF,
                iter_chunk_bytes=opts.iter_chunk_bytes,
            )
            res = solve_subset(
                reduced, spec, 2, options=opts, pair_strategy=strategy
            )
            if res.stats is None:  # structurally empty subproblem
                assert predicted == 0
                continue
            measured = max(self._measured(s, self.WF) for s in res.rank_stats)
            assert measured > 0
            assert predicted >= measured, (
                f"{spec.label()}: predicted {predicted} < measured "
                f"{measured:.0f} (iter_chunk_bytes={chunk}, {strategy})"
            )


class TestYeastSubsetPlan:
    """Pinned planning output for the 32 yeast-I-small ``q_sub = 5``
    subsets under dynamic ordering, whose pair-count surrogate simulates
    the row trajectory on the exact initial kernel's sign pattern."""

    PEAKS = [
        5038704, 5924330, 3530424, 4087552, 5924330, 6803643, 4087552, 4639992,
        5161968, 6064675, 3611252, 4177808, 6064675, 6959788, 4177808, 4738842,
        5161968, 6064675, 3611252, 4177808, 6064675, 6959788, 4177808, 4738842,
        6064675, 6959788, 4177808, 4738842, 6959788, 7826724, 4738842, 5282316,
    ]
    ORDER = [
        29, 13, 21, 25, 28, 5, 9, 12, 17, 20, 24, 1, 4, 31, 8, 16,
        0, 15, 23, 27, 30, 7, 11, 14, 19, 22, 26, 3, 6, 10, 18, 2,
    ]

    def test_predictions_and_schedule_order(self):
        from repro.config import AlgorithmOptions
        from repro.dnc.subsets import enumerate_subsets
        from repro.efm.api import _resolve_partition
        from repro.engine import RunContext, SubproblemScheduler
        from repro.models.registry import get_network
        from repro.network.compression import compress_network

        reduced = compress_network(get_network("yeast-I-small")).reduced
        opts = AlgorithmOptions(
            ordering="dynamic", rank_backend="modular", iter_chunk_bytes="auto"
        )
        specs = enumerate_subsets(_resolve_partition(reduced, 5, "tail", opts))
        sched = SubproblemScheduler(
            reduced, specs, context=RunContext(options=opts)
        )
        jobs = sched.plan()
        assert [j.predicted_peak_bytes for j in jobs] == self.PEAKS
        assert [j.index for j in sched.scheduled(jobs)] == self.ORDER
