"""Seeded random metabolic network generator.

Used by property-based tests (serial == parallel == divide-and-conquer on
hundreds of random instances) and by the scaling benchmark ladders.  The
generator produces *connected, flux-consistent* networks: every metabolite
gets at least one producer and one consumer, and a configurable set of
exchange reactions keeps the network open so non-trivial EFMs exist.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.errors import NetworkError
from repro.network.model import MetabolicNetwork, Reaction


def random_network(
    n_metabolites: int,
    n_reactions: int,
    *,
    seed: int,
    reversible_fraction: float = 0.3,
    n_exchanges: int | None = None,
    max_coefficient: int = 2,
    density: float = 0.35,
) -> MetabolicNetwork:
    """Generate a random open metabolic network.

    Parameters
    ----------
    n_metabolites, n_reactions:
        Internal size; ``n_reactions`` must exceed ``n_metabolites`` for a
        non-trivial nullspace (callers wanting degenerate cases can pass
        equal sizes).
    seed:
        Deterministic RNG seed.
    reversible_fraction:
        Expected fraction of reversible reactions.
    n_exchanges:
        Number of boundary exchange reactions (single-metabolite columns);
        defaults to ``max(2, n_metabolites // 3)``.  Exchange columns are
        *included in* ``n_reactions``.  Fix-up exchanges that make every
        metabolite producible and consumable are appended on top, so the
        network can have more than ``n_reactions`` reactions.
    max_coefficient:
        Stoichiometric coefficients are drawn uniformly from
        ``1..max_coefficient``.
    density:
        Expected fraction of metabolites participating in each internal
        reaction (at least one substrate and one product are always drawn).
    """
    if n_metabolites < 1:
        raise NetworkError("need at least one metabolite")
    if n_reactions < 2:
        raise NetworkError("need at least two reactions")
    rng = np.random.default_rng(seed)
    if n_exchanges is None:
        n_exchanges = max(2, n_metabolites // 3)
    n_exchanges = min(n_exchanges, n_reactions - 1, n_metabolites * 2)
    n_internal = n_reactions - n_exchanges

    mets = [f"M{i}" for i in range(n_metabolites)]
    reactions: list[Reaction] = []

    # Internal reactions: random substrate/product splits.
    for j in range(n_internal):
        k = max(2, int(rng.binomial(n_metabolites, density)))
        k = min(k, n_metabolites)
        chosen = rng.choice(n_metabolites, size=k, replace=False)
        n_sub = int(rng.integers(1, k)) if k > 1 else 1
        stoich: dict[str, Fraction] = {}
        for idx, m in enumerate(chosen):
            coeff = Fraction(int(rng.integers(1, max_coefficient + 1)))
            stoich[mets[m]] = -coeff if idx < n_sub else coeff
        reactions.append(
            Reaction(
                name=f"J{j}",
                stoich=stoich,
                reversible=bool(rng.random() < reversible_fraction),
            )
        )

    # Exchange reactions: spread across metabolites, alternating import and
    # export so the network stays balanced-openable.
    targets = rng.permutation(n_metabolites)
    for e in range(n_exchanges):
        m = mets[int(targets[e % n_metabolites])]
        sign = 1 if e % 2 == 0 else -1
        reactions.append(
            Reaction(
                name=f"X{e}",
                stoich={m: Fraction(sign)},
                reversible=bool(rng.random() < reversible_fraction),
                exchange=True,
            )
        )

    # Guarantee every metabolite is both producible and consumable
    # (counting reversible reactions as both) by appending fix-up
    # exchanges where needed.
    fix = 0
    for m in mets:
        produced = consumed = False
        for r in reactions:
            c = r.stoich.get(m)
            if c is None:
                continue
            if r.reversible:
                produced = consumed = True
            elif c > 0:
                produced = True
            else:
                consumed = True
        if not produced:
            reactions.append(
                Reaction(name=f"F{fix}", stoich={m: Fraction(1)}, exchange=True)
            )
            fix += 1
        if not consumed:
            reactions.append(
                Reaction(name=f"F{fix}", stoich={m: Fraction(-1)}, exchange=True)
            )
            fix += 1

    return MetabolicNetwork(f"random-{seed}", mets, reactions)
