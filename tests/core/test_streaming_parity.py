"""Streaming vs batch iteration parity.

The streaming iteration engine (:mod:`repro.core.iterstream`) must be an
exact refactoring of the batch ``generate → dedup → rank-test`` body:
bit-identical EFM sets on every driver, both candidate pipelines, and any
chunk budget — chunking never reorders the pair enumeration and dedup is
keep-first on both paths (see the module docstring's invariant).  The
fast tests pin the multi-chunk path on the toy network with a budget tiny
enough to force one-pair chunks; the slow property extends the 530-EFM
yeast-I-small pin to a streaming x chunk-size sweep.
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

#: A budget small enough that every toy iteration needs several chunks.
TINY = 256


def _opts(streaming, pipeline="deferred", chunk="auto", **kw):
    return AlgorithmOptions(
        iter_streaming=streaming,
        iter_chunk_bytes=chunk,
        candidate_pipeline=pipeline,
        **kw,
    )


class TestToyStreamingParity:
    @pytest.mark.parametrize("pipeline", ["deferred", "eager"])
    @pytest.mark.parametrize("chunk", ["auto", TINY])
    def test_serial(self, toy_problem, pipeline, chunk):
        off = nullspace_algorithm(toy_problem, options=_opts("off", pipeline))
        on = nullspace_algorithm(
            toy_problem, options=_opts("on", pipeline, chunk)
        )
        assert np.array_equal(
            off.efms_input_order(), on.efms_input_order()
        )

    @pytest.mark.parametrize("pipeline", ["deferred", "eager"])
    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_combinatorial(self, toy_problem, pipeline, n_ranks):
        off = combinatorial_parallel(
            toy_problem, n_ranks, options=_opts("off", pipeline)
        )
        on = combinatorial_parallel(
            toy_problem, n_ranks, options=_opts("on", pipeline, TINY)
        )
        assert np.array_equal(
            off.result.efms_input_order(), on.result.efms_input_order()
        )

    @pytest.mark.parametrize("pipeline", ["deferred", "eager"])
    def test_distributed(self, toy_problem, pipeline):
        off = distributed_parallel(
            toy_problem, 3, options=_opts("off", pipeline)
        )
        on = distributed_parallel(
            toy_problem, 3, options=_opts("on", pipeline, TINY)
        )
        assert np.array_equal(
            off.efms_input_order(), on.efms_input_order()
        )

    @pytest.mark.parametrize("strategy", ["strided", "block"])
    def test_pair_strategies(self, toy_problem, strategy):
        off = combinatorial_parallel(
            toy_problem, 2, pair_strategy=strategy, options=_opts("off")
        )
        on = combinatorial_parallel(
            toy_problem, 2, pair_strategy=strategy, options=_opts("on", chunk=TINY)
        )
        assert np.array_equal(
            off.result.efms_input_order(), on.result.efms_input_order()
        )


class TestStreamingCounters:
    def test_tiny_budget_forces_multiple_chunks(self, toy_problem):
        res = nullspace_algorithm(toy_problem, options=_opts("on", chunk=TINY))
        assert res.stats.total_stream_chunks > len(res.stats.iterations)
        assert res.stats.total_dedup_probes > 0
        assert res.stats.peak_stream_chunk_bytes > 0
        # The tiny budget bounds every chunk's transient well below the
        # batch path's whole-iteration candidate peak.
        batch = nullspace_algorithm(toy_problem, options=_opts("off"))
        assert res.stats.peak_stream_chunk_bytes <= max(
            it.candidate_bytes for it in batch.stats.iterations
        )

    def test_batch_path_leaves_counters_zero(self, toy_problem):
        res = nullspace_algorithm(toy_problem, options=_opts("off"))
        assert res.stats.total_stream_chunks == 0
        assert res.stats.total_dedup_probes == 0
        assert res.stats.peak_stream_chunk_bytes == 0

    def test_exact_arithmetic_takes_batch_path(self, toy_problem):
        res = nullspace_algorithm(
            toy_problem,
            options=_opts("on", chunk=TINY, arithmetic="exact"),
        )
        assert res.stats.total_stream_chunks == 0


@pytest.mark.slow
def test_yeast_small_streaming_chunk_sweep():
    """Acceptance property: yeast-I-small, streaming x chunk-size sweep —
    every (driver, chunk budget) combination reproduces the batch path's
    530-EFM set bit-identically."""
    net = yeast_1_small()

    def runs(opts):
        return [
            compute_efms(net, options=opts),
            compute_efms(net, method="parallel", n_ranks=3, options=opts),
            compute_efms(net, method="combined", partition=5, options=opts),
        ]

    batch = runs(_opts("off"))
    assert batch[0].n_efms == 530
    for chunk in ("auto", 64 << 10, 8 << 10):
        streamed = runs(_opts("on", chunk=chunk))
        for label, a, b in zip(("serial", "parallel-3", "combined-5"), batch, streamed):
            assert a.n_efms == b.n_efms, (label, chunk)
            assert np.array_equal(a.fluxes, b.fluxes), (
                f"{label} with iter_chunk_bytes={chunk}: streaming EFM set "
                "differs from batch"
            )
