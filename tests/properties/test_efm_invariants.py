"""Property-based tests of the defining EFM invariants on random networks.

Hypothesis draws network shapes/seeds; every computed EFM set must satisfy
steady state, thermodynamic feasibility, support minimality, and agreement
with the independent brute-force oracle on tiny instances.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.efm.api import compute_efms
from repro.models.generators import random_network
from repro.network.stoichiometry import stoichiometric_matrix
from tests.conftest import brute_force_efms, canonical_rows

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

network_params = st.fixed_dictionaries(
    {
        "n_metabolites": st.integers(3, 6),
        "n_reactions": st.integers(6, 11),
        "seed": st.integers(0, 10_000),
        "reversible_fraction": st.sampled_from([0.0, 0.2, 0.5]),
    }
)


@given(params=network_params)
@settings(**SETTINGS)
def test_steady_state_and_feasibility(params):
    net = random_network(**params)
    result = compute_efms(net)
    n = stoichiometric_matrix(net)
    if result.n_efms:
        assert np.allclose(n @ result.fluxes.T, 0.0, atol=1e-7)
        irr = ~np.array(net.reversibility)
        assert (result.fluxes[:, irr] >= -1e-9).all()


@given(params=network_params)
@settings(**SETTINGS)
def test_support_minimality(params):
    net = random_network(**params)
    result = compute_efms(net)
    sup = result.supports()
    for i in range(result.n_efms):
        contains = (sup & sup[i] == sup).all(axis=1)
        contains[i] = False
        assert not contains.any(), "a mode's support strictly contains another's"


@given(params=network_params)
@example(params={
    # Fix-up exchanges take this draw to 15 reactions, past the oracle.
    "n_metabolites": 6, "n_reactions": 11, "seed": 4183,
    "reversible_fraction": 0.0,
})
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_matches_brute_force_oracle(params):
    net = random_network(**params)
    # The exhaustive oracle is defined for q <= 14 only.
    assume(net.n_reactions <= 14)
    result = compute_efms(net)
    oracle = brute_force_efms(net)
    got = canonical_rows(result.fluxes)
    assert got.shape == oracle.shape, (
        f"EFM count mismatch: nullspace algorithm {got.shape[0]}, "
        f"oracle {oracle.shape[0]}"
    )
    assert np.allclose(got, oracle, atol=1e-7)


@given(params=network_params, scale=st.floats(0.5, 20.0))
@settings(**SETTINGS)
def test_efms_invariant_under_network_scaling(params, scale):
    """Scaling all stoichiometric coefficients of a reaction rescales
    nothing: the EFM supports are unchanged (rays rescale)."""
    net = random_network(**params)
    base = compute_efms(net)
    # Scale every coefficient of the first internal reaction.
    from fractions import Fraction
    import dataclasses

    target = net.reactions[0]
    scaled_rxn = dataclasses.replace(
        target,
        stoich={
            m: c * Fraction(scale).limit_denominator(100)
            for m, c in target.stoich.items()
        },
    )
    net2 = type(net)(
        net.name, net.metabolites, (scaled_rxn,) + net.reactions[1:]
    )
    scaled = compute_efms(net2)
    a = {tuple(r) for r in base.supports().astype(int)}
    b = {tuple(r) for r in scaled.supports().astype(int)}
    assert a == b
