"""Unit tests for exact rational linear algebra."""

from fractions import Fraction

import numpy as np
import pytest

from repro.errors import LinAlgError
from repro.linalg import rational

from tests import oracles


class TestToFractionMatrix:
    def test_ints_convert_losslessly(self):
        m = rational.to_fraction_matrix([[1, -2], [3, 0]])
        assert m[0][1] == Fraction(-2)
        assert all(isinstance(x, Fraction) for row in m for x in row)

    def test_small_rational_floats_cleaned(self):
        m = rational.to_fraction_matrix([[0.5, 1 / 3]])
        assert m[0][0] == Fraction(1, 2)
        assert m[0][1] == Fraction(1, 3)

    def test_fractions_pass_through(self):
        f = Fraction(7, 11)
        assert rational.to_fraction_matrix([[f]])[0][0] is f

    def test_ragged_rejected(self):
        with pytest.raises(LinAlgError):
            rational.to_fraction_matrix([[1, 2], [3]])


class TestRref:
    def test_identity_unchanged(self):
        eye = rational.to_fraction_matrix(np.eye(3).tolist())
        r, pivots = rational.rref(eye)
        assert pivots == [0, 1, 2]
        assert r == eye

    def test_known_rref(self):
        m = rational.to_fraction_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        r, pivots = rational.rref(m)
        assert len(pivots) == 2  # rank 2
        # Pivot columns reduce to unit vectors.
        for row_idx, p in enumerate(pivots):
            col = [r[i][p] for i in range(3)]
            assert col[row_idx] == 1
            assert sum(x != 0 for x in col) == 1

    def test_input_not_mutated(self):
        m = rational.to_fraction_matrix([[1, 2], [3, 4]])
        snapshot = [row[:] for row in m]
        rational.rref(m)
        assert m == snapshot

    def test_zero_matrix(self):
        m = rational.to_fraction_matrix([[0, 0], [0, 0]])
        _, pivots = rational.rref(m)
        assert pivots == []


class TestRankAndNullity:
    def test_full_rank(self):
        m = rational.to_fraction_matrix([[2, 1], [1, 1]])
        assert rational.exact_rank(m) == 2
        assert oracles.exact_nullity(m) == 0

    def test_rank_deficient(self):
        m = rational.to_fraction_matrix([[1, 2, 3], [2, 4, 6]])
        assert rational.exact_rank(m) == 1
        assert oracles.exact_nullity(m) == 2

    def test_big_coefficients_exact(self):
        # Rank decisions that float arithmetic gets wrong: a nearly
        # dependent row differing at the 1e-20 level.
        eps = Fraction(1, 10**20)
        m = [
            [Fraction(1), Fraction(2)],
            [Fraction(2), Fraction(4) + eps],
        ]
        assert rational.exact_rank(m) == 2


class TestNullspace:
    def test_annihilates(self):
        m = rational.to_fraction_matrix([[1, -1, 0, 0], [0, 1, -1, -1]])
        basis = oracles.exact_nullspace(m)
        prod = oracles.fraction_matmul(m, basis)
        assert oracles.is_zero_matrix(prod)
        assert len(basis[0]) == 2  # q - rank = 4 - 2

    def test_empty_rows_gives_identity(self):
        basis = oracles.exact_nullspace([])
        assert basis == []

    def test_trivial_nullspace(self):
        m = rational.to_fraction_matrix([[1, 0], [0, 1]])
        basis = oracles.exact_nullspace(m)
        assert len(basis) == 2 and len(basis[0]) == 0

    def test_dimension_formula_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.integers(-3, 4, size=(3, 6))
            m = rational.to_fraction_matrix(a.tolist())
            basis = oracles.exact_nullspace(m)
            assert len(basis[0]) == 6 - rational.exact_rank(m)
            assert oracles.is_zero_matrix(oracles.fraction_matmul(m, basis))


class TestIntegerize:
    def test_halves_scale_to_integers(self):
        m = rational.to_fraction_matrix([["1/2"], ["3/2"]])
        ints = oracles.integerize_columns(m)
        assert [row[0] for row in ints] == [1, 3]

    def test_gcd_reduced(self):
        m = rational.to_fraction_matrix([[4], [6]])
        ints = oracles.integerize_columns(m)
        assert [row[0] for row in ints] == [2, 3]

    def test_sign_preserved(self):
        m = rational.to_fraction_matrix([["-1/3"], ["2/3"]])
        ints = oracles.integerize_columns(m)
        assert [row[0] for row in ints] == [-1, 2]

    def test_zero_column(self):
        m = rational.to_fraction_matrix([[0], [0]])
        assert oracles.integerize_columns(m) == [[0], [0]]


class TestMatmulAndUtils:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(11)
        a = rng.integers(-5, 6, size=(3, 4))
        b = rng.integers(-5, 6, size=(4, 2))
        exact = oracles.fraction_matmul(
            rational.to_fraction_matrix(a.tolist()),
            rational.to_fraction_matrix(b.tolist()),
        )
        assert np.array_equal(oracles.to_numpy(exact), a @ b)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(LinAlgError):
            oracles.fraction_matmul(
                rational.to_fraction_matrix([[1]]),
                rational.to_fraction_matrix([[1], [2]]),
            )

    def test_select_columns(self):
        m = rational.to_fraction_matrix([[1, 2, 3], [4, 5, 6]])
        sel = rational.select_columns(m, [2, 0])
        assert oracles.to_numpy(sel).tolist() == [[3, 1], [6, 4]]

    def test_roundtrip_numpy(self):
        a = np.array([[1.0, -0.5], [0.25, 3.0]])
        assert np.allclose(oracles.to_numpy(rational.from_numpy(a)), a)
