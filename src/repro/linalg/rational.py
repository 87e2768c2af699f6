"""Exact rational linear algebra over ``fractions.Fraction``.

What ``arithmetic="exact"`` runs need: an exact matrix representation
(list-of-rows of :class:`fractions.Fraction`), conversion from numpy, and
exact rank by RREF for the per-candidate rank test on small networks.
These routines are O(n^3) with big-int coefficient growth, far too slow for
the float inner loop (:mod:`repro.linalg.numeric`).  The initial kernel
does not come from here: it is an exact fraction-free integer elimination
(:func:`repro.linalg.modular.montante`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.errors import LinAlgError

FractionMatrix = list[list[Fraction]]


def to_fraction_matrix(a: Iterable[Iterable[object]]) -> FractionMatrix:
    """Convert a nested iterable (ints, floats, strings, Fractions) to an
    exact matrix.  Floats are converted via ``Fraction(x).limit_denominator``
    only when they are not exactly representable small rationals; integral
    floats convert losslessly."""
    out: FractionMatrix = []
    for row in a:
        frow: list[Fraction] = []
        for x in row:
            if isinstance(x, Fraction):
                frow.append(x)
            elif isinstance(x, (int, np.integer)):
                frow.append(Fraction(int(x)))
            elif isinstance(x, (float, np.floating)):
                f = Fraction(float(x))
                # Floats arising from small rationals get cleaned up; the
                # heuristic is exact for every stoichiometric model shipped
                # with the package (all coefficients are n/2 at worst).
                limited = f.limit_denominator(10**6)
                frow.append(limited if abs(limited - f) < Fraction(1, 10**12) else f)
            else:
                frow.append(Fraction(x))  # type: ignore[arg-type]
        out.append(frow)
    shape_set = {len(r) for r in out}
    if len(shape_set) > 1:
        raise LinAlgError("ragged matrix passed to to_fraction_matrix")
    return out


def matrix_shape(a: FractionMatrix) -> tuple[int, int]:
    """Return ``(n_rows, n_cols)`` of a fraction matrix."""
    return (len(a), len(a[0]) if a else 0)


def rref(a: FractionMatrix) -> tuple[FractionMatrix, list[int]]:
    """Reduced row echelon form with partial (largest-magnitude) pivoting.

    Returns ``(R, pivot_cols)`` where ``R`` is a new matrix in RREF and
    ``pivot_cols`` lists the pivot column of each non-zero row in order.
    The input is not modified.
    """
    m, n = matrix_shape(a)
    r = [row[:] for row in a]
    pivot_cols: list[int] = []
    lead = 0
    for col in range(n):
        if lead >= m:
            break
        # Pick the largest-magnitude entry as pivot: keeps big-int growth
        # down measurably on the yeast networks.
        pivot_row = max(
            range(lead, m),
            key=lambda i: (r[i][col].numerator != 0, abs(r[i][col])),
        )
        if r[pivot_row][col] == 0:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        pivot = r[lead][col]
        r[lead] = [x / pivot for x in r[lead]]
        for i in range(m):
            if i != lead and r[i][col] != 0:
                factor = r[i][col]
                r[i] = [x - factor * y for x, y in zip(r[i], r[lead])]
        pivot_cols.append(col)
        lead += 1
    return r, pivot_cols


def exact_rank(a: FractionMatrix) -> int:
    """Exact rank via RREF."""
    _, pivots = rref(a)
    return len(pivots)


def from_numpy(a: np.ndarray) -> FractionMatrix:
    """Convert a numpy array (any numeric dtype) to an exact matrix."""
    return to_fraction_matrix(a.tolist())


def select_columns(a: FractionMatrix, cols: Sequence[int]) -> FractionMatrix:
    """Exact column selection ``a[:, cols]``."""
    return [[row[c] for c in cols] for row in a]
