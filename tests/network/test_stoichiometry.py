"""Unit tests for stoichiometric matrix construction."""

import numpy as np

from repro.network.stoichiometry import (
    exact_stoichiometric_matrix,
    reversibility_vector,
    stoichiometric_matrix,
)

from tests.oracles import to_numpy


class TestToyMatrix:
    """eq. (2) of the paper, verbatim."""

    EXPECTED = np.array(
        [
            [1, -1, 0, 0, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, -1, -1, -1, 0],
            [0, 1, -1, 0, 0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, -1],
            [0, 0, 1, -1, 0, 0, 2, 0, 0],
        ],
        dtype=float,
    )

    def test_matches_eq2(self, toy):
        assert np.array_equal(stoichiometric_matrix(toy), self.EXPECTED)

    def test_exact_matches_float(self, toy):
        exact = exact_stoichiometric_matrix(toy)
        assert np.array_equal(to_numpy(exact), self.EXPECTED)

    def test_reversibility_vector(self, toy):
        rev = reversibility_vector(toy)
        assert rev.tolist() == [
            False, False, False, False, False, True, False, True, False,
        ]

    def test_row_column_order_follows_network(self, toy):
        n = stoichiometric_matrix(toy)
        i = toy.metabolite_index("P")
        j = toy.reaction_index("r7")
        assert n[i, j] == 2.0
