"""Eager vs deferred candidate-pipeline parity.

The support-first (deferred) pipeline must be an exact refactoring of the
eager reference: identical canonical supports out of generation, identical
survivors out of dedup + rank test, and bit-identical dense values after
materialization.  The fast tests pin the numerically delicate case — a
combination that cancels entries *beyond* the annihilated row — and full
toy runs on every driver; the slow property test is the acceptance
criterion from the pipeline work: yeast-I-small, serial + combinatorial
(P in {2, 4}) + combined (q_sub = 5), bit-identical EFM sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.candidates import full_range, generate_candidates
from repro.core.serial import nullspace_algorithm
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats
from repro.efm.api import compute_efms
from repro.linalg import bitset
from repro.models.variants import yeast_1_small
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel

EAGER = AlgorithmOptions(candidate_pipeline="eager")
DEFERRED = AlgorithmOptions(candidate_pipeline="deferred")


def _stats():
    return IterationStats(position=0, reaction="x", reversible=False)


class TestCancellationParity:
    """A combination can zero entries beyond the annihilated row; the
    deferred supports must reflect the numeric cancellation, not the
    pair's support union."""

    def test_support_strictly_smaller_than_union_minus_row(self):
        # mode0 + mode1 cancels column 2 in addition to the paired row 0.
        modes = ModeMatrix(
            np.array(
                [
                    [1.0, 1.0, 1.0, 0.0],
                    [-1.0, 1.0, -1.0, 0.0],
                ]
            )
        )
        out = {}
        for name, opts in (("eager", EAGER), ("deferred", DEFERRED)):
            cand = generate_candidates(
                modes, 0, np.array([0]), np.array([1]), full_range(1),
                rank_bound=4, options=opts, stats=_stats(),
            )
            assert cand.n_modes == 1
            out[name] = cand
        batch = out["deferred"]
        assert isinstance(batch, CandidateBatch)
        union = modes.supports.words[0] | modes.supports.words[1]
        union_minus_k = int(bitset.popcount(union[None, :])[0]) - 1
        support_size = int(bitset.popcount(batch.supports.words)[0])
        # {1} is strictly inside (union minus row 0) = {1, 2}.
        assert support_size < union_minus_k
        assert np.array_equal(batch.supports.words, out["eager"].supports.words)
        dense = batch.materialize(modes.values)
        assert np.array_equal(dense.values, out["eager"].values)
        assert np.array_equal(dense.supports.words, out["eager"].supports.words)


class TestToyFullRunParity:
    def test_serial(self, toy_problem):
        a = nullspace_algorithm(toy_problem, options=EAGER)
        b = nullspace_algorithm(toy_problem, options=DEFERRED)
        assert np.array_equal(a.efms_input_order(), b.efms_input_order())

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_combinatorial(self, toy_problem, n_ranks):
        a = combinatorial_parallel(toy_problem, n_ranks, options=EAGER)
        b = combinatorial_parallel(toy_problem, n_ranks, options=DEFERRED)
        assert np.array_equal(
            a.result.efms_input_order(), b.result.efms_input_order()
        )

    def test_distributed(self, toy_problem):
        a = distributed_parallel(toy_problem, 2, options=EAGER)
        b = distributed_parallel(toy_problem, 2, options=DEFERRED)
        assert np.array_equal(a.efms_input_order(), b.efms_input_order())

    def test_deferred_ships_fewer_allgather_bytes(self, toy_problem):
        a = combinatorial_parallel(toy_problem, 2, options=EAGER)
        b = combinatorial_parallel(toy_problem, 2, options=DEFERRED)
        eager_bytes = sum(t.allgather_bytes for t in a.rank_traces)
        deferred_bytes = sum(t.allgather_bytes for t in b.rank_traces)
        assert 0 < deferred_bytes < eager_bytes


@pytest.mark.slow
def test_yeast_small_pipeline_parity_property():
    """Acceptance property: yeast-I-small, serial + combinatorial
    (P in {2, 4}) + combined (q_sub = 5) — the eager and deferred
    pipelines produce bit-identical EFM sets on every driver."""
    net = yeast_1_small()
    runs: dict[str, list] = {}
    for name, opts in (("eager", EAGER), ("deferred", DEFERRED)):
        runs[name] = [
            compute_efms(net, options=opts),
            compute_efms(net, method="parallel", n_ranks=2, options=opts),
            compute_efms(net, method="parallel", n_ranks=4, options=opts),
            compute_efms(net, method="combined", partition=5, options=opts),
        ]
    for label, a, b in zip(
        ("serial", "parallel-2", "parallel-4", "combined-5"),
        runs["eager"],
        runs["deferred"],
    ):
        assert a.n_efms == b.n_efms, label
        assert np.array_equal(a.fluxes, b.fluxes), (
            f"{label}: eager and deferred EFM sets differ"
        )
    assert runs["deferred"][0].n_efms == 530


@pytest.mark.slow
def test_yeast_small_block_strategy_pipeline_pin():
    """The contiguous block pair split (the strided default is covered
    above) keeps the 530-EFM yeast-I-small set on both pipelines, P in
    {2, 4}, with eager and deferred bit-identical."""
    net = yeast_1_small()
    serial = compute_efms(net, options=DEFERRED)
    for n_ranks in (2, 4):
        eager, deferred = (
            compute_efms(net, method="parallel", n_ranks=n_ranks,
                         pair_strategy="block", options=opts)
            for opts in (EAGER, DEFERRED)
        )
        assert deferred.n_efms == 530, n_ranks
        assert np.array_equal(eager.fluxes, deferred.fluxes), n_ranks
        assert serial.same_modes_as(deferred), n_ranks
