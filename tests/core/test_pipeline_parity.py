"""Support-first candidate pipeline parity.

Float runs carry candidates between generation and acceptance as packed
canonical supports plus pair indices (:class:`~repro.core.state.
CandidateBatch`) and rebuild dense rows for accepted survivors only;
exact-arithmetic runs carry dense ``Fraction`` rows through the same
streamed iteration body.  The fast tests pin the numerically delicate
case — a combination that cancels entries *beyond* the annihilated row —
and full toy runs on every driver against the exact dense-row arm; the
slow properties pin the 530-EFM yeast-I-small set on every driver and
both pair strategies.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.core.candidates import full_range
from repro.core.iterstream import stream_iteration
from repro.core.serial import nullspace_algorithm
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats
from repro.efm.api import compute_efms
from repro.linalg import bitset
from repro.models.variants import yeast_1_small
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel
from tests.conftest import assert_same_modes

FLOAT = AlgorithmOptions()
EXACT = AlgorithmOptions(arithmetic="exact")


def _stats():
    return IterationStats(position=0, reaction="x", reversible=False)


class TestCancellationParity:
    """A combination can zero entries beyond the annihilated row; the
    support-first supports must reflect the numeric cancellation, not the
    pair's support union."""

    def test_support_strictly_smaller_than_union_minus_row(self):
        # mode0 + mode1 cancels column 2 in addition to the paired row 0.
        rows = [[1, 1, 1, 0], [-1, 1, -1, 0]]
        modes = ModeMatrix(np.array(rows, dtype=np.float64))
        exact = ModeMatrix(
            np.array([[Fraction(x) for x in r] for r in rows], dtype=object)
        )
        out = {}
        for name, m in (("float", modes), ("exact", exact)):
            # The adjacency-free "bittree" arm skips the rank test, so the
            # raw generation + dedup output comes back.
            cand = stream_iteration(
                m, 0, np.array([0]), np.array([1]), full_range(1), None, 4,
                FLOAT, _stats(), acceptance="bittree",
            )
            assert cand.n_modes == 1
            out[name] = cand
        batch = out["float"]
        assert isinstance(batch, CandidateBatch)
        union = modes.supports.words[0] | modes.supports.words[1]
        union_minus_k = int(bitset.popcount(union[None, :])[0]) - 1
        support_size = int(bitset.popcount(batch.supports.words)[0])
        # {1} is strictly inside (union minus row 0) = {1, 2}.
        assert support_size < union_minus_k
        assert np.array_equal(batch.supports.words, out["exact"].supports.words)
        dense = batch.materialize(modes.values)
        assert np.array_equal(dense.supports.words, out["exact"].supports.words)
        assert_same_modes(dense.values, out["exact"].values.astype(np.float64))


class TestToyFullRunParity:
    """Float runs (support-first) and exact runs (dense rows) give the
    same EFM set on every driver."""

    @pytest.fixture(scope="class")
    def exact_efms(self, toy_problem):
        return nullspace_algorithm(toy_problem, options=EXACT).efms_input_order()

    def test_serial(self, toy_problem, exact_efms):
        run = nullspace_algorithm(toy_problem, options=FLOAT)
        assert_same_modes(run.efms_input_order(), exact_efms)

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_combinatorial(self, toy_problem, exact_efms, n_ranks):
        a = combinatorial_parallel(toy_problem, n_ranks, options=EXACT)
        b = combinatorial_parallel(toy_problem, n_ranks, options=FLOAT)
        assert_same_modes(a.result.efms_input_order(), exact_efms)
        assert_same_modes(b.result.efms_input_order(), exact_efms)

    def test_distributed(self, toy_problem, exact_efms):
        # The column-partitioned driver runs float arithmetic only.
        run = distributed_parallel(toy_problem, 2, options=FLOAT)
        assert_same_modes(run.efms_input_order(), exact_efms)


@pytest.mark.slow
def test_yeast_small_pipeline_parity_property():
    """Acceptance property: yeast-I-small, serial + combinatorial
    (P in {2, 4}) + combined (q_sub = 5) — every driver gives the
    530-EFM set, bit-identical across the replicated drivers."""
    net = yeast_1_small()
    runs = [
        compute_efms(net, options=FLOAT),
        compute_efms(net, method="parallel", n_ranks=2, options=FLOAT),
        compute_efms(net, method="parallel", n_ranks=4, options=FLOAT),
        compute_efms(net, method="combined", partition=5, options=FLOAT),
    ]
    assert runs[0].n_efms == 530
    for label, run in zip(("parallel-2", "parallel-4", "combined-5"), runs[1:]):
        assert run.n_efms == 530, label
        assert runs[0].same_modes_as(run), label
    assert np.array_equal(runs[1].fluxes, runs[2].fluxes)


@pytest.mark.slow
def test_yeast_small_block_strategy_pipeline_pin():
    """The contiguous block pair split (the strided default is covered
    above) keeps the 530-EFM yeast-I-small set, P in {2, 4}, bit-identical
    to the strided split."""
    net = yeast_1_small()
    serial = compute_efms(net, options=FLOAT)
    for n_ranks in (2, 4):
        strided, block = (
            compute_efms(net, method="parallel", n_ranks=n_ranks,
                         pair_strategy=strategy, options=FLOAT)
            for strategy in ("strided", "block")
        )
        assert block.n_efms == 530, n_ranks
        assert np.array_equal(strided.fluxes, block.fluxes), n_ranks
        assert serial.same_modes_as(block), n_ranks
