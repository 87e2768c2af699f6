"""Chunk-budget parity of the streamed iteration body.

The iteration body (:mod:`repro.core.iterstream`) consumes each
iteration's pair space as a stream of bounded chunks.  Its EFM output
must not depend on the chunk budget: chunking never reorders the pair
enumeration and dedup is keep-first (see the module docstring's
invariant).  The fast tests pin the multi-chunk path on the toy network
with a budget tiny enough to force one-pair chunks, against the default
``"auto"`` budget (one chunk per toy iteration), on every driver and in
both arithmetics (float runs keep support-first candidates, exact runs
dense rows); the slow property extends the 530-EFM yeast-I-small pin to
a chunk-size sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.serial import nullspace_algorithm
from repro.efm.api import compute_efms
from repro.models.variants import yeast_1_small
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel
from tests.conftest import assert_same_modes, brute_force_efms

#: A budget small enough that every toy iteration needs several chunks.
TINY = 256


def _opts(chunk="auto", **kw):
    return AlgorithmOptions(iter_chunk_bytes=chunk, **kw)


def _max_chunks(rank_stats):
    """Most chunks any rank streamed in one iteration."""
    return max(it.n_chunks for s in rank_stats for it in s.iterations)


class TestToyStreamingParity:
    @pytest.mark.parametrize("arithmetic", ["float", "exact"])
    @pytest.mark.parametrize("chunk", ["auto", TINY])
    def test_serial(self, toy_record, toy_problem, chunk, arithmetic):
        ref = nullspace_algorithm(
            toy_problem, options=_opts(arithmetic=arithmetic)
        )
        run = nullspace_algorithm(
            toy_problem, options=_opts(chunk, arithmetic=arithmetic)
        )
        assert np.array_equal(ref.efms_input_order(), run.efms_input_order())
        assert_same_modes(
            run.efms_input_order(), brute_force_efms(toy_record.reduced)
        )

    @pytest.mark.parametrize("arithmetic", ["float", "exact"])
    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_combinatorial(self, toy_problem, n_ranks, arithmetic):
        ref = combinatorial_parallel(
            toy_problem, n_ranks, options=_opts(arithmetic=arithmetic)
        )
        run = combinatorial_parallel(
            toy_problem, n_ranks, options=_opts(TINY, arithmetic=arithmetic)
        )
        assert _max_chunks(run.rank_stats) > 1
        assert np.array_equal(
            ref.result.efms_input_order(), run.result.efms_input_order()
        )

    def test_distributed(self, toy_problem):
        # The column-partitioned driver runs float arithmetic only.
        ref = distributed_parallel(toy_problem, 3, options=_opts())
        run = distributed_parallel(toy_problem, 3, options=_opts(TINY))
        assert _max_chunks(run.rank_stats) > 1
        assert np.array_equal(ref.efms_input_order(), run.efms_input_order())

    @pytest.mark.parametrize("strategy", ["strided", "block"])
    def test_pair_strategies(self, toy_problem, strategy):
        ref = combinatorial_parallel(
            toy_problem, 2, pair_strategy=strategy, options=_opts()
        )
        run = combinatorial_parallel(
            toy_problem, 2, pair_strategy=strategy, options=_opts(TINY)
        )
        assert np.array_equal(
            ref.result.efms_input_order(), run.result.efms_input_order()
        )


class TestStreamingCounters:
    def test_tiny_budget_forces_multiple_chunks(self, toy_problem):
        res = nullspace_algorithm(toy_problem, options=_opts(TINY))
        assert res.stats.total_stream_chunks > len(res.stats.iterations)
        assert res.stats.total_dedup_probes > 0
        assert res.stats.peak_stream_chunk_bytes > 0
        # The tiny budget bounds every chunk's retained footprint below
        # the default budget's whole-iteration candidate peak.
        auto = nullspace_algorithm(toy_problem, options=_opts())
        assert res.stats.peak_stream_chunk_bytes <= max(
            it.candidate_bytes for it in auto.stats.iterations
        )

    def test_exact_arithmetic_streams(self, toy_record, toy_problem):
        """Exact runs take the same streamed body (dense ``Fraction``
        rows instead of packed supports) and still give the toy network's
        brute-force EFM set."""
        res = nullspace_algorithm(
            toy_problem, options=_opts(TINY, arithmetic="exact")
        )
        assert res.stats.total_stream_chunks > len(res.stats.iterations)
        assert_same_modes(
            res.efms_input_order(), brute_force_efms(toy_record.reduced)
        )


@pytest.mark.slow
def test_yeast_small_streaming_chunk_sweep():
    """Acceptance property: yeast-I-small, chunk-size sweep — every
    (driver, chunk budget) combination reproduces the default budget's
    530-EFM set bit-identically."""
    net = yeast_1_small()

    def runs(opts):
        return [
            compute_efms(net, options=opts),
            compute_efms(net, method="parallel", n_ranks=3, options=opts),
            compute_efms(net, method="combined", partition=5, options=opts),
        ]

    ref = runs(_opts())
    assert ref[0].n_efms == 530
    for chunk in (64 << 10, 8 << 10):
        streamed = runs(_opts(chunk))
        for label, a, b in zip(("serial", "parallel-3", "combined-5"), ref, streamed):
            assert a.n_efms == b.n_efms, (label, chunk)
            assert np.array_equal(a.fluxes, b.fluxes), (
                f"{label} with iter_chunk_bytes={chunk}: EFM set differs "
                "from the default chunk budget"
            )
