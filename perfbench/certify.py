"""Exact output certificate for one ``compute_efms`` result.

Independent of the program's own checks (``EFMResult.validate`` works in
float tolerances and is O(n^2)):

1. integerize every mode to its primitive integer vector and confirm the
   float row is that vector's direction to 1e-9;
2. ``N . e == 0`` exactly, with ``N`` scaled to integers row by row;
3. no negative flux on an irreversible reaction;
4. the mode count equals the model's published count;
5. a digest of the canonical, reaction-name-keyed mode set equals the
   reference recorded from the published order (``reference.json``).

Steps 2-5 are exact integer arithmetic; only step 1 has a tolerance, and
it only decides which integer vector the row claims to be.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
_INT_LIMIT = 2**62


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def integerize(fluxes: np.ndarray) -> np.ndarray:
    """Primitive int64 vector per row; raises ``ValueError`` if a row has
    no small-denominator rational direction or overflows int64."""
    f = np.asarray(fluxes, dtype=np.float64)
    if f.shape[0] == 0:
        return np.zeros(f.shape, dtype=np.int64)
    absf = np.abs(f)
    rowmax = absf.max(axis=1, keepdims=True)
    if np.any(rowmax == 0):
        raise ValueError("zero mode")
    nz = absf > 1e-9 * rowmax
    rowmin = np.where(nz, absf, np.inf).min(axis=1, keepdims=True)
    ratio = np.where(nz, f / rowmin, 0.0)
    keys, inverse = np.unique(np.round(ratio[nz], 9), return_inverse=True)
    num = np.empty(keys.shape, dtype=np.int64)
    den = np.empty(keys.shape, dtype=np.int64)
    for k, value in enumerate(keys.tolist()):
        fr = Fraction(value).limit_denominator(10**6)
        if abs(float(fr) - value) > 1e-8 * max(1.0, abs(value)):
            raise ValueError(f"flux ratio {value!r} is not a small rational")
        num[k], den[k] = fr.numerator, fr.denominator
    nums = np.zeros(f.shape, dtype=np.int64)
    dens = np.ones(f.shape, dtype=np.int64)
    nums[nz] = num[inverse.ravel()]
    dens[nz] = den[inverse.ravel()]
    lcm = np.lcm.reduce(dens, axis=1, keepdims=True)
    if np.any(lcm > _INT_LIMIT // max(1, int(np.abs(nums).max()))):
        raise ValueError("integerized mode overflows int64")
    ints = nums * (lcm // dens)
    ints //= np.gcd.reduce(ints, axis=1, keepdims=True)
    back = ints / np.abs(ints).max(axis=1, keepdims=True)
    if not np.allclose(back, f / rowmax, rtol=0.0, atol=1e-9):
        raise ValueError("integerized modes do not reproduce the float modes")
    return ints


def integer_stoichiometry(network) -> np.ndarray:
    """``N`` with every metabolite row scaled to integers (same kernel)."""
    rows = []
    for met in network.metabolite_names:
        coeffs = [
            Fraction(r.stoich.get(met, 0)) for r in network.reactions
        ]
        scale = math.lcm(*(c.denominator for c in coeffs))
        rows.append([int(c * scale) for c in coeffs])
    return np.array(rows, dtype=object)


def steady_state_exact(n_int: np.ndarray, modes: np.ndarray) -> bool:
    nmax = int(np.abs(n_int).max()) if n_int.size else 0
    emax = int(np.abs(modes).max()) if modes.size else 0
    if nmax * emax * max(1, n_int.shape[1]) < _INT_LIMIT:
        prod = n_int.astype(np.int64) @ modes.T
    else:  # exact but slow: Python integers
        prod = n_int @ modes.astype(object).T
    return not np.any(prod != 0)


def mode_set_digest(network, modes: np.ndarray) -> str:
    """sha256 of the canonical mode set: columns in sorted reaction-name
    order, fully reversible modes sign-normalized, rows sorted."""
    names = list(network.reaction_names)
    order = sorted(range(len(names)), key=names.__getitem__)
    e = np.ascontiguousarray(modes[:, order], dtype=np.int64)
    rev = np.array([network.reactions[j].reversible for j in order])
    support = e != 0
    all_rev = ~np.any(support & ~rev, axis=1)
    first = np.argmax(support, axis=1)
    flip = all_rev & (e[np.arange(e.shape[0]), first] < 0)
    e[flip] *= -1
    e = e[np.lexsort(e.T[::-1])] if e.shape[0] else e
    h = hashlib.sha256()
    h.update("\0".join(names[j] for j in order).encode())
    h.update(e.astype("<i8").tobytes())
    return h.hexdigest()


def certify(result, network, reference: dict | None) -> tuple[list[str], str | None]:
    """Run every check; return ``(failures, digest)``.  ``reference`` is
    ``{"efms": count, "digest": hex}`` or ``None`` (count/digest skipped)."""
    failures: list[str] = []
    if list(result.network.reaction_names) != list(network.reaction_names):
        return ["result columns are not the input network's reactions"], None
    try:
        modes = integerize(result.fluxes)
    except ValueError as exc:
        return [f"integerize: {exc}"], None
    if not steady_state_exact(integer_stoichiometry(network), modes):
        failures.append("N.e != 0")
    irrev = np.array([not r.reversible for r in network.reactions], dtype=bool)
    if np.any(modes[:, irrev] < 0):
        failures.append("negative flux on an irreversible reaction")
    digest = mode_set_digest(network, modes)
    if reference is not None:
        if modes.shape[0] != reference["efms"]:
            failures.append(f"{modes.shape[0]} EFMs, expected {reference['efms']}")
        if digest != reference["digest"]:
            failures.append("EFM-set digest differs from the reference")
    return failures, digest
