"""Candidate elementary-mode generation (GenerateEFMCands).

At iteration ``k`` every mode with a positive entry in row ``k`` pairs with
every mode with a negative entry; the convex combination

    cand = (-neg_k) * pos_mode + (pos_k) * neg_mode

annihilates row ``k`` (both coefficients are positive, so the combination
stays inside the flux cone).  Generation is vectorized in bounded chunks
of pairs; a packed-support union popcount prefilter ("summary rejection":
a support larger than ``rank+1`` cannot have nullity 1) drops most pairs
before any float work happens.  :func:`survivor_chunks` yields each
chunk's survivors as transient dense rows; the iteration body
(:mod:`repro.core.iterstream`) reduces float chunks to packed supports
and pair indices at once, so dense normalized rows are materialized only
for *accepted* candidates.

The pair index space ``[0, n_pos*n_neg)`` is linearized as
``p = i * n_neg + j``; the combinatorial parallel algorithm hands each rank
a strided or blocked subrange of the same space, so the serial path here is
literally the one-rank special case.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator

import numpy as np

from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats
from repro.linalg import bitset


@dataclasses.dataclass(frozen=True)
class PairRange:
    """A subrange of the linearized pair space assigned to one worker.

    ``strided`` ranges take pairs ``start, start+step, start+2*step, ...``
    (the combinatorial distribution of [17] — adjacent pairs land on
    different ranks, balancing cost); plain block ranges take
    ``[start, stop)`` with ``step == 1``.
    """

    start: int
    stop: int
    step: int = 1

    def count(self) -> int:
        if self.stop <= self.start:
            return 0
        return (self.stop - self.start + self.step - 1) // self.step


def full_range(n_pairs: int) -> PairRange:
    """The serial (single worker) pair range."""
    return PairRange(0, n_pairs, 1)


def strided_range(n_pairs: int, rank: int, size: int) -> PairRange:
    """Rank ``rank`` of ``size``'s combinatorial (cyclic) share."""
    return PairRange(rank, n_pairs, size)


def block_range(n_pairs: int, rank: int, size: int) -> PairRange:
    """Rank ``rank`` of ``size``'s contiguous block share."""
    base, extra = divmod(n_pairs, size)
    start = rank * base + min(rank, extra)
    stop = start + base + (1 if rank < extra else 0)
    return PairRange(start, stop, 1)


#: Pair spaces below this size take the cached-template fast path of
#: :func:`survivor_chunks`; the gate also bounds the size of each
#: lru-cached template.
TINY_PAIR_SPACE: int = 4096


@functools.lru_cache(maxsize=256)
def _tiny_pair_template(n_pos: int, n_neg: int):
    """Cached ``(a, b)`` list-position vectors of the full i-major pair
    enumeration for a tiny ``n_pos x n_neg`` space (read-only; shapes
    repeat heavily across iterations, so most calls cost zero dispatches).
    """
    a, b = np.divmod(np.arange(n_pos * n_neg, dtype=np.intp), n_neg)
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def survivor_chunks(
    modes: ModeMatrix,
    k: int,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    pair_range: PairRange,
    rank_bound: int,
    stats: IterationStats,
    *,
    chunk_pairs: int,
    adjacency=None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Yield this worker's per-chunk generation survivors for row ``k``.

    The generation front-end of the iteration body
    (:mod:`repro.core.iterstream`): pair enumeration, the union-support
    prefilter and the optional per-pair adjacency test all live here,
    once.  Each yielded tuple is ``(i_ok, j_ok, raw, transient)``: the
    surviving pairs' source-mode indices, the raw (un-normalized) dense
    combination chunk, and the chunk's transient working-set bytes (pair
    vectors, gathered words, prefilter mask and the dense chunk — already
    folded into ``stats.prefilter_bytes``).

    ``chunk_pairs`` bounds the pairs per chunk.  Chunk *granularity* never
    changes the pair enumeration order, so any two chunkings enumerate
    identical survivors in identical order.

    ``rank_bound`` is the rank of the stoichiometry: a candidate whose
    support exceeds ``rank_bound + 1`` entries is summarily rejected (the
    prefilter tests the pair's support *union*, which overcounts the true
    support by at least the annihilated row ``k``, hence the ``+ 2``
    below).
    """
    n_neg = neg_idx.size
    vals = modes.values
    sup = modes.supports.words
    col = vals[:, k]
    n_words = sup.shape[1]
    sup1 = sup[:, 0] if n_words == 1 else None
    chunk_pairs = max(1, int(chunk_pairs))

    peak_transient = 0
    max_union = rank_bound + 2

    # Tiny spaces take a template fast path: cached i-major list
    # positions, sliced to this worker's range.  Iterations here are
    # dominated by per-call dispatch overhead.
    n_pairs_space = int(pos_idx.size) * int(n_neg)
    if n_pairs_space < TINY_PAIR_SPACE:
        a_t, b_t = _tiny_pair_template(int(pos_idx.size), int(n_neg))
        sl = slice(pair_range.start, pair_range.stop, pair_range.step)
        a_t, b_t = a_t[sl], b_t[sl]
        chunks = (
            (a_t[s : s + chunk_pairs], b_t[s : s + chunk_pairs])
            for s in range(0, int(a_t.size), chunk_pairs)
        )
    else:
        chunks = (
            np.divmod(p_chunk, n_neg)
            for p_chunk in _iter_pair_chunks(pair_range, chunk_pairs)
        )

    for a_sel, b_sel in chunks:
        # Transient working set of this chunk before any survivor work:
        # pair-index vectors plus the gathered/ORed support words and the
        # prefilter mask.
        transient = int(a_sel.size) * (32 + 24 * n_words + 1)
        peak_transient = max(peak_transient, transient)
        i_sel = pos_idx[a_sel]
        j_sel = neg_idx[b_sel]
        union = None
        if adjacency is None and sup1 is not None:
            ok = np.bitwise_count(sup1[i_sel] | sup1[j_sel]) <= max_union
        else:
            union = sup[i_sel] | sup[j_sel]
            ok = bitset.popcount(union) <= max_union
        if not ok.any():
            continue
        i_ok = i_sel[ok]
        j_ok = j_sel[ok]
        stats.n_prefilter_kept += int(i_ok.size)
        if adjacency is not None:
            adj = adjacency.adjacent(union[ok])
            i_ok = i_ok[adj]
            j_ok = j_ok[adj]
            stats.n_adjacent += int(i_ok.size)
            if i_ok.size == 0:
                continue
        a = -col[j_ok]  # > 0
        b = col[i_ok]  # > 0
        cand = vals[i_ok] * a[:, None] + vals[j_ok] * b[:, None]
        # ... plus the dense candidate chunk (it dies with the chunk, but
        # it exists — on_oom decisions must see it).
        transient += cand.nbytes
        peak_transient = max(peak_transient, transient)
        stats.prefilter_bytes = max(stats.prefilter_bytes, peak_transient)
        yield i_ok, j_ok, cand, transient


def _iter_pair_chunks(pair_range: PairRange, chunk: int):
    """Yield int64 arrays of linear pair indices covering ``pair_range`` in
    chunks of at most ``chunk`` pairs."""
    if pair_range.step == 1:
        for start in range(pair_range.start, pair_range.stop, chunk):
            yield np.arange(
                start, min(start + chunk, pair_range.stop), dtype=np.int64
            )
    else:
        total = pair_range.count()
        for c0 in range(0, total, chunk):
            c1 = min(c0 + chunk, total)
            yield pair_range.start + pair_range.step * np.arange(
                c0, c1, dtype=np.int64
            )
