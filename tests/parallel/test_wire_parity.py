"""Transport parity: the backends are pure transport.

Moving the per-iteration allgather between the sequential simulator,
lockstep threads and forked processes must never change a single bit of
any result.  The slow acceptance property pins the yeast-I-small 530-EFM
set across backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.efm.api import compute_efms
from repro.models.generators import random_network
from repro.models.variants import yeast_1_small


def test_wire_stats_populated():
    net = random_network(n_metabolites=5, n_reactions=10, seed=7)
    run = compute_efms(net, method="parallel", n_ranks=2)
    assert run.stats is not None
    assert run.stats.n_serializations > 0
    assert run.stats.ser_bytes > 0
    assert run.stats.wire_bytes_sent > 0


@pytest.mark.slow
def test_yeast_small_wire_parity_property():
    """Acceptance property: yeast-I-small — every backend produces the
    bit-identical 530-EFM set."""
    net = yeast_1_small()
    ref = None
    for backend, n_ranks in (("sequential", 4), ("thread", 2), ("process", 2)):
        run = compute_efms(
            net, method="parallel", n_ranks=n_ranks, backend=backend
        )
        assert run.n_efms == 530, backend
        if ref is None:
            ref = run.fluxes
        else:
            assert np.array_equal(run.fluxes, ref), backend
