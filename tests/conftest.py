"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.kernel import build_problem
from repro.linalg import rational
from repro.models.toy import toy_network
from repro.network.compression import compress_network
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import exact_stoichiometric_matrix

from tests import oracles


@pytest.fixture(scope="session")
def toy():
    """The paper's Figure 1 network."""
    return toy_network()


@pytest.fixture(scope="session")
def toy_record(toy):
    """Compression record of the toy network (eq. (4))."""
    return compress_network(toy)


@pytest.fixture(scope="session")
def toy_problem(toy_record):
    """Prepared problem matching eq. (5)/(6) exactly (paper free set)."""
    return build_problem(toy_record.reduced, free_hint=("r2", "r4", "r5", "r7"))


def canonical_rows(rows: np.ndarray, ndigits: int = 9) -> np.ndarray:
    """Scale rows to unit max-norm and sort lexicographically, for
    order/scale-independent EFM set comparison."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[0] == 0:
        return rows
    scale = np.abs(rows).max(axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    rows = rows / scale
    keys = np.round(rows, ndigits)
    return keys[np.lexsort(keys.T[::-1])]


def assert_same_modes(a: np.ndarray, b: np.ndarray, atol: float = 1e-7) -> None:
    ca, cb = canonical_rows(a), canonical_rows(b)
    assert ca.shape == cb.shape, f"mode counts differ: {ca.shape} vs {cb.shape}"
    assert np.allclose(ca, cb, atol=atol)


def brute_force_efms(network: MetabolicNetwork) -> np.ndarray:
    """Independent EFM oracle: exhaustive support enumeration.

    For every reaction subset ``S`` with ``|S| <= rank + 1``, a mode with
    support exactly ``S`` exists iff ``N[:, S]`` has an exactly 1-dim
    nullspace whose basis vector is non-zero on all of ``S`` and can be
    oriented to satisfy the irreversibility signs.  Exponential in the
    reaction count — tiny networks only (q <= 14).

    Returns modes as rows in network reaction order.
    """
    n_exact = exact_stoichiometric_matrix(network)
    q = network.n_reactions
    if q > 14:
        raise ValueError("brute force oracle limited to q <= 14")
    rank = rational.exact_rank(n_exact)
    rev = network.reversibility
    out: list[list[float]] = []
    for size in range(1, min(q, rank + 1) + 1):
        for subset in itertools.combinations(range(q), size):
            sub = rational.select_columns(n_exact, list(subset))
            basis = oracles.exact_nullspace(sub)
            ncols = len(basis[0]) if basis else 0
            if ncols != 1:
                continue
            v = [basis[i][0] for i in range(size)]
            if any(x == 0 for x in v):
                continue  # true support is smaller; found at smaller S
            has_pos = any(v[i] > 0 for i in range(size) if not rev[subset[i]])
            has_neg = any(v[i] < 0 for i in range(size) if not rev[subset[i]])
            if has_pos and has_neg:
                continue  # cannot orient feasibly
            if has_neg:
                v = [-x for x in v]
            full = [0.0] * q
            for i, j in enumerate(subset):
                full[j] = float(v[i])
            out.append(full)
    modes = np.array(out) if out else np.zeros((0, q))
    # Fully-reversible-support modes appear once per orientation choice
    # already (we canonicalized the sign only when irreversible coords
    # exist); canonicalize the rest.
    for i in range(modes.shape[0]):
        row = modes[i]
        irr = ~np.array(rev, dtype=bool)
        if (np.abs(row[irr]) <= 1e-12).all():
            nz = np.nonzero(np.abs(row) > 1e-12)[0]
            if nz.size and row[nz[0]] < 0:
                modes[i] = -row
    # dedup
    return canonical_rows(modes) if modes.size else modes


def exact_matrix(rows) -> list[list[Fraction]]:
    return rational.to_fraction_matrix(rows)
