"""Tolerant floating-point linear algebra for the enumeration inner loop.

Per-candidate steps (support extraction, rank tests) are vectorized numpy
on float64 with tolerances from :class:`repro.config.NumericPolicy`.  The
one exactness-critical one-off step, the initial kernel, is an exact
fraction-free integer elimination (:func:`repro.linalg.modular.montante`)
whose result is converted to float.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import DEFAULT_POLICY, NumericPolicy
from repro.errors import LinAlgError
from repro.linalg import modular, rational


def column_normalize(cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale each column of ``cols`` to unit max-norm (in place if ``out``
    is ``cols``).

    Normalization after every convex combination keeps the zero threshold
    meaningful across iterations; without it candidate magnitudes drift by
    orders of magnitude on the yeast networks (biomass coefficients ~4e4).
    Zero columns are left untouched.
    """
    if cols.ndim != 2:
        raise LinAlgError("column_normalize expects a 2-D array")
    scale = np.abs(cols).max(axis=0)
    scale[scale == 0.0] = 1.0
    if out is None:
        return cols / scale
    np.divide(cols, scale, out=out)
    return out


def support_of(cols: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Boolean support mask of each column: shape ``(n_rows, n_cols)``.

    A value counts as non-zero when ``|x| > zero_tol * max(1, colmax)``.
    """
    colmax = np.abs(cols).max(axis=0) if cols.size else np.zeros(cols.shape[1])
    thresh = policy.zero_tol * np.maximum(colmax, 1.0)
    return np.abs(cols) > thresh


def clean_zeros(cols: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Snap sub-threshold entries of each column to exact 0.0 (in place).

    Keeps supports and numeric values consistent so that later sign splits
    never disagree with the packed support bits.
    """
    mask = support_of(cols, policy)
    cols[~mask] = 0.0
    return cols


def numeric_rank(a: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Numeric rank via SVD with a relative singular-value cutoff.

    Matches the efmtool convention: cutoff is
    ``rank_tol * sigma_max * max(shape)`` with an absolute floor so the
    all-zero matrix has rank 0.
    """
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = policy.rank_tol * s[0] * max(a.shape)
    cutoff = max(cutoff, 1e-300)
    return int(np.count_nonzero(s > cutoff))


def nullity(a: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Right-nullspace dimension: ``n_cols - rank``."""
    return a.shape[1] - numeric_rank(a, policy)


def kernel_identity_form(
    n: np.ndarray,
    *,
    pivot_priority: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Initial nullspace matrix of ``n`` in the paper's ``(I; R)`` form.

    Reduces the stoichiometric matrix ``n`` to row echelon form and permutes
    *columns* (reactions) so the matrix reads ``(-R2, I_m)`` up to row
    operations; the kernel then takes the block form::

        K = [ I_{q-m'} ]
            [   R2     ]

    where ``m'`` is the rank of ``n``.  Returns ``(kernel, col_perm)``:

    - ``kernel``: shape ``(q, q - m')`` float64 with ``kernel[perm][:q-m']``
      equal to the identity, i.e. the *permuted* network ``n[:, col_perm]``
      has the literal block-form kernel.  The returned kernel rows are in
      the **permuted** reaction order (free reactions first, pivot reactions
      below), matching eq. (5) of the paper.
    - ``col_perm``: the reaction permutation applied, length ``q``; entry
      ``i`` gives the original column index now in permuted position ``i``.

    ``pivot_priority`` (integer, one entry per column; lower scans earlier)
    biases which columns become *pivots* (and thus land in the processed
    ``R2`` block): the elimination takes the leftmost independent columns
    as pivots, so low-priority-value columns are preferred.  The Nullspace
    Algorithm requires every reversible reaction to be a pivot — a
    reversible reaction in the identity block would never be processed and
    its negative-flux EFMs would be silently lost — so callers pass priority
    ``-1`` for reversible reactions (and ``+1`` for columns they want kept
    free, e.g. to reproduce the paper's worked example).

    The reduction is exact: each row is scaled to integers (row scaling
    leaves the nullspace unchanged) and one fraction-free Gauss–Jordan pass
    (:func:`repro.linalg.modular.montante`) runs in int64, rerun over Python
    ints when the int64 guard trips.  Each kernel column is the co-prime
    integer vector with a positive identity entry, converted to float.
    """
    if n.ndim != 2:
        raise LinAlgError("kernel_identity_form expects a 2-D stoichiometry")
    q = n.shape[1]
    if pivot_priority is not None:
        prio = np.asarray(pivot_priority)
        if prio.shape != (q,):
            raise LinAlgError("pivot_priority length mismatch")
        # Stable sort: low priority scans first and the elimination's
        # leftmost-independent pivot rule picks those as pivots.
        scan_order = np.argsort(prio, kind="stable").astype(np.intp)
    else:
        scan_order = np.arange(q, dtype=np.intp)
    nf = np.asarray(n, dtype=np.float64)
    a = _integer_rows(nf)[:, scan_order]
    try:
        A, piv_scan, delta = modular.montante(a.astype(np.int64))
    except OverflowError:
        A, piv_scan, delta = modular.montante(a.astype(object))
    # Basis rows follow scan order, one column per free scan position.
    basis = modular.montante_kernel(A, piv_scan, delta)
    pivot_set = {int(scan_order[p]) for p in piv_scan}
    free_cols = [c for c in range(q) if c not in pivot_set]
    # Permuted order: free (identity-part) reactions first, pivots after,
    # each ascending in the original column order.
    col_perm = np.array(free_cols + sorted(pivot_set), dtype=np.intp)
    pos_in_scan = np.empty(q, dtype=np.intp)
    pos_in_scan[scan_order] = np.arange(q)
    # Rows from scan order to col_perm order; columns from ascending scan
    # position to ascending free column.
    free_pos = pos_in_scan[free_cols]
    kernel = basis[pos_in_scan[col_perm]][
        :, np.searchsorted(np.sort(free_pos), free_pos)
    ].astype(np.float64)
    # Sanity: permuted stoichiometry annihilates the kernel.
    if kernel.size:
        resid = np.abs(nf[:, col_perm] @ kernel)
        scale = max(1.0, float(np.abs(kernel).max()), float(np.abs(n).max()))
        if resid.size and resid.max() > 1e-6 * scale:
            raise LinAlgError(
                f"kernel residual too large: {resid.max():.3e} (scale {scale:.3e})"
            )
    return kernel, col_perm


def _integer_rows(nf: np.ndarray) -> np.ndarray:
    """Exact integer matrix with the nullspace of ``nf``.

    Each row is scaled by the lcm of its entries' denominators, the
    entries read as rationals by :func:`repro.linalg.rational.to_fraction_matrix`.
    Row scaling leaves the nullspace unchanged (column scaling, as in
    :func:`repro.linalg.modular.integerize`, would not).  int64 for
    integer-valued input under the elimination guard, Python ``int``
    objects otherwise.
    """
    r = np.rint(nf)
    integral = (r == nf).all(axis=1)
    if integral.all() and (not r.size or np.abs(r).max() < modular.INT_KERNEL_GUARD):
        return r.astype(np.int64)
    rows = []
    for row, is_int in zip(nf.tolist(), integral):
        if is_int:
            rows.append([int(x) for x in row])
            continue
        fracs = rational.to_fraction_matrix([row])[0]
        scale = math.lcm(*(f.denominator for f in fracs))
        rows.append([int(f * scale) for f in fracs])
    return np.array(rows, dtype=object).reshape(nf.shape)


def gcd_reduce_rows(mat: np.ndarray) -> np.ndarray:
    """Divide each row of an integer matrix by the GCD of its entries.

    Utility for presenting integerized EFM matrices the way the paper
    prints them.  Zero rows pass through unchanged.
    """
    out = np.array(mat, dtype=np.int64, copy=True)
    for i in range(out.shape[0]):
        g = int(np.gcd.reduce(np.abs(out[i])))
        if g > 1:
            out[i] //= g
    return out


def columns_proportional(
    a: np.ndarray, b: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY
) -> bool:
    """True iff 1-D vectors ``a`` and ``b`` are positive multiples of each
    other (same ray)."""
    sa = support_of(a[:, None], policy)[:, 0]
    sb = support_of(b[:, None], policy)[:, 0]
    if not np.array_equal(sa, sb):
        return False
    if not sa.any():
        return True
    ia = int(np.argmax(np.abs(a)))
    ratio = b[ia] / a[ia]
    if ratio <= 0:
        return False
    return bool(np.allclose(a * ratio, b, rtol=1e-6, atol=policy.zero_tol))
