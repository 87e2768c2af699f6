"""Reference implementations the program no longer runs, kept as oracles.

* The ``Fraction`` nullspace routines (:func:`exact_nullspace` and its
  helpers) and :func:`fraction_kernel_identity_form`, the two-RREF
  ``(I; R)`` kernel build that :func:`repro.linalg.numeric.kernel_identity_form`
  must reproduce bit for bit.
* :func:`float_nullspace`, an SVD nullspace basis for float cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.config import NumericPolicy
from repro.errors import LinAlgError
from repro.linalg.rational import (
    FractionMatrix,
    exact_rank,
    from_numpy,
    matrix_shape,
    rref,
)


def exact_nullity(a: FractionMatrix) -> int:
    """Exact right-nullspace dimension: ``n_cols - rank``."""
    return matrix_shape(a)[1] - exact_rank(a)


def exact_nullspace(a: FractionMatrix) -> FractionMatrix:
    """Exact basis of the right nullspace of ``a``.

    Returns a matrix whose *columns* span ``{x : a @ x = 0}``, in the
    canonical RREF parametrization: for each free column ``f`` the basis
    vector has ``x[f] = 1``, ``x[p] = -R[row(p), f]`` for pivot columns
    ``p`` and zero elsewhere.  Shape is ``(n_cols, n_cols - rank)``; an
    empty nullspace yields a ``(n_cols, 0)`` matrix (list of ``n_cols``
    empty rows).
    """
    m, n = matrix_shape(a)
    if m == 0:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    r, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    basis: FractionMatrix = [[Fraction(0)] * len(free_cols) for _ in range(n)]
    for k, f in enumerate(free_cols):
        basis[f][k] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            basis[p][k] = -r[row_idx][f]
    return basis


def integerize_columns(a: FractionMatrix) -> list[list[int]]:
    """Scale each column of ``a`` to the smallest co-prime integer vector,
    preserving sign."""
    m, n = matrix_shape(a)
    out = [[0] * n for _ in range(m)]
    for j in range(n):
        col = [a[i][j] for i in range(m)]
        denom_lcm = 1
        for x in col:
            denom_lcm = denom_lcm * x.denominator // math.gcd(denom_lcm, x.denominator)
        ints = [int(x * denom_lcm) for x in col]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        for i in range(m):
            out[i][j] = ints[i]
    return out


def fraction_matmul(a: FractionMatrix, b: FractionMatrix) -> FractionMatrix:
    """Exact matrix product ``a @ b``."""
    ma, na = matrix_shape(a)
    mb, nb = matrix_shape(b)
    if na != mb:
        raise LinAlgError(f"shape mismatch in fraction_matmul: {na} vs {mb}")
    out = [[Fraction(0)] * nb for _ in range(ma)]
    for i in range(ma):
        arow = a[i]
        for k in range(na):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(nb):
                if brow[j] != 0:
                    orow[j] += aik * brow[j]
    return out


def is_zero_matrix(a: FractionMatrix) -> bool:
    """True iff every entry of ``a`` is exactly zero."""
    return all(x == 0 for row in a for x in row)


def to_numpy(a: FractionMatrix, dtype=np.float64) -> np.ndarray:
    """Convert an exact matrix to a numpy array (lossy for big rationals)."""
    m, n = matrix_shape(a)
    out = np.zeros((m, n), dtype=dtype)
    for i in range(m):
        for j in range(n):
            out[i, j] = float(a[i][j])
    return out


def fraction_kernel_identity_form(
    n: np.ndarray, pivot_priority: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(kernel, col_perm)`` of the two-RREF ``Fraction`` build.

    One RREF in pivot-priority scan order picks the pivots; a second, with
    those pivots scanned first, parametrizes the nullspace by the
    remaining free columns.  Columns are integerized and rows reordered
    to ``col_perm`` (free columns first, then pivots, each ascending).
    """
    q = n.shape[1]
    if pivot_priority is None:
        scan_order = np.arange(q, dtype=np.intp)
    else:
        scan_order = np.argsort(np.asarray(pivot_priority), kind="stable")
    nf = np.asarray(n, dtype=np.float64)
    _, pivots_scan = rref(from_numpy(nf[:, scan_order]))
    pivots = sorted(int(scan_order[p]) for p in pivots_scan)
    pivot_set = set(pivots)
    free_cols = [c for c in range(q) if c not in pivot_set]
    col_perm = np.array(free_cols + pivots, dtype=np.intp)
    scan2 = np.array(pivots + free_cols, dtype=np.intp)
    ints = integerize_columns(exact_nullspace(from_numpy(nf[:, scan2])))
    arr2 = np.array(ints, dtype=np.float64).reshape(q, len(free_cols))
    pos_in_scan2 = {int(c): i for i, c in enumerate(scan2)}
    return arr2[[pos_in_scan2[int(c)] for c in col_perm], :], col_perm


def float_nullspace(a: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    """SVD-based orthonormal nullspace basis (columns)."""
    if a.size == 0:
        return np.eye(a.shape[1])
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = policy.rank_tol * (s[0] if s.size else 0.0) * max(a.shape)
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].T.copy()
