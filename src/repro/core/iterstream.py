"""The iteration body: bounded-memory chunked candidate processing.

The paper's iteration body runs ``GenerateEFMCands`` →
``Sort&RemoveDuplicates`` → ``RankTests`` over the whole ``pos × neg``
pair space, so one iteration's entire surviving candidate set exists at
once — the paper's memory bottleneck (Algorithm 2 dies at iteration 59 on
4 GB nodes).  :func:`stream_iteration` runs the same three phases over a
sequence of bounded chunks of the pair space
(:func:`repro.core.candidates.survivor_chunks`), and each chunk flows

    generate → incremental dedup → rank-test → accept

to completion before the next chunk's dense values exist.  Live state
between chunks is only the accepted set plus the incremental dedup index
(:class:`repro.core.bittree.SupportIndex`) — the whole-iteration
survivor set never materializes.

The body is orthogonal to *which* row an iteration eliminates: the
:class:`~repro.core.ordering.RowSelector` picks ``k`` before the
iteration body runs, and this engine then streams that row's pair space.
Dynamic selection shrinks the pair space that exists, chunking bounds how
much of it is resident at once.

Chunk invariance
----------------

The EFM output is bit-identical for every chunk budget because every
stage is order- and chunking-invariant:

* *Enumeration*: chunk granularity never reorders the pair space (see
  :func:`~repro.core.candidates.survivor_chunks`).
* *Dedup is keep-first*: within a chunk, first-occurrence
  :func:`~repro.linalg.bitset.unique_rows`; across chunks, membership in
  the index of zero-entry survivors plus earlier *accepted* candidates.  A
  later duplicate of an earlier **accepted** (or zero-entry) support is
  dropped; a later duplicate of an earlier **rejected** support is
  re-tested instead — the rank test decides on the support pattern alone,
  so it is rejected again and the accepted set is unchanged (the
  support-pattern memo makes the re-test a cache hit; only the
  ``n_duplicates``/``n_tested`` counters depend on the chunking, never the
  output).
* *Acceptance is per-candidate*: the algebraic rank test depends only on
  the candidate's own support; the combinatorial adjacency test is
  per-*pair* and runs inside generation.
* *Materialization is row-wise*: accepted candidates materialize from
  ``(i, j, row)`` (:meth:`~repro.core.state.CandidateBatch.materialize`).

The data picks the candidate representation: float runs keep only packed
supports + pair indices per candidate (the support-first pipeline), exact
runs keep the dense ``Fraction`` rows (materialization from pair indices
is float-only).  Every driver calls this one body: the
serial/combinatorial drivers through :func:`repro.core.serial.iterate_row`,
the column-partitioned driver on its local pair share directly (no
zero-entry preload — its duplicate control against zero survivors is
global, after the allgather).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.memory import streaming_chunk_pairs
from repro.config import AlgorithmOptions
from repro.core.bittree import SupportIndex
from repro.core.candidates import PairRange, survivor_chunks
from repro.core.ranktest import rank_test
from repro.core.state import CandidateBatch, ModeMatrix, canonical_support_mask
from repro.core.stats import IterationStats, PhaseTimer
from repro.errors import AlgorithmError
from repro.linalg import bitset, rational
from repro.linalg.bitset import PackedSupports, pack_support_rows


def stream_iteration(
    modes: ModeMatrix,
    k: int,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    pair_range: PairRange,
    n_perm: np.ndarray,
    rank_bound: int,
    options: AlgorithmOptions,
    stats: IterationStats,
    *,
    zero_words: np.ndarray | None = None,
    adjacency=None,
    acceptance: str | None = None,
    n_exact: "rational.FractionMatrix | None" = None,
    rank_cache=None,
) -> ModeMatrix | CandidateBatch:
    """Run one iteration's candidate phase as a bounded-memory stream.

    Returns this worker's accepted candidates in pair-enumeration order — a
    support-only :class:`~repro.core.state.CandidateBatch` for float
    modes, a dense :class:`~repro.core.state.ModeMatrix` for exact ones.
    The live :class:`~repro.core.bittree.SupportIndex` is attached to the
    result as ``dedup_index`` so memory accounting
    (``nbytes``/``payload_nbytes``) sees the streaming state for as long
    as the caller keeps the candidates around.

    ``zero_words`` preloads the index with the zero-entry survivors'
    supports (the serial/combinatorial duplicate rule; the distributed
    driver passes ``None`` and keeps its global post-allgather control).
    ``acceptance`` overrides ``options.acceptance`` (the distributed
    driver always rank-tests).  Timings land in the phase buckets:
    generation in ``t_gen_cand``, dedup/accept bookkeeping in ``t_merge``,
    the acceptance test in ``t_rank_test``.
    """
    deferred = not modes.exact
    if acceptance is None:
        acceptance = options.acceptance
    rank_mode = acceptance in ("rank", "both")
    n_words = modes.supports.words.shape[1]
    index = SupportIndex(n_words, frozen=zero_words)

    acc_words: list[np.ndarray] = []
    acc_i: list[np.ndarray] = []
    acc_j: list[np.ndarray] = []
    acc_modes: list[ModeMatrix] = []
    acc_bytes = 0
    n_accepted = 0

    gen = survivor_chunks(
        modes, k, pos_idx, neg_idx, pair_range, rank_bound, stats,
        chunk_pairs=streaming_chunk_pairs(modes.q, options.iter_chunk_bytes),
        adjacency=adjacency,
    )
    while True:
        # Pull the next survivor chunk; the pair enumeration and the
        # prefilter run inside the generator, so their cost lands in the
        # generation bucket.
        with PhaseTimer(stats, "t_gen_cand"):
            item = next(gen, None)
        if item is None:
            break
        i_ok, j_ok, raw, _transient = item
        stats.n_chunks += 1

        chunk_modes = None
        with PhaseTimer(stats, "t_merge"):
            if deferred:
                mask = canonical_support_mask(raw, modes.policy)
                words = pack_support_rows(mask)
                chunk_bytes = int(
                    words.nbytes + i_ok.nbytes + j_ok.nbytes
                )
            else:
                chunk_modes = ModeMatrix(raw, policy=modes.policy)
                words = chunk_modes.supports.words
                chunk_bytes = chunk_modes.nbytes()
            del raw  # the dense chunk dies before the next one is generated
            stats.peak_chunk_bytes = max(stats.peak_chunk_bytes, chunk_bytes)
            stats.candidate_bytes = max(
                stats.candidate_bytes, acc_bytes + index.nbytes() + chunk_bytes
            )
            # Keep-first dedup: within the chunk, then against everything
            # accepted (or zero-surviving) so far.
            _, first = bitset.unique_rows(words)
            n_dup = words.shape[0] - len(first)
            if n_dup:
                words = words[first]
                i_ok = i_ok[first]
                j_ok = j_ok[first]
            fresh = ~index.seen(words)
            n_seen = int(words.shape[0] - fresh.sum())
            if n_seen:
                words = words[fresh]
                i_ok = i_ok[fresh]
                j_ok = j_ok[fresh]
                if chunk_modes is not None:
                    first = first[fresh]
            stats.n_duplicates += n_dup + n_seen
            if deferred:
                cand = CandidateBatch._from_parts(
                    PackedSupports(words, modes.q), i_ok, j_ok, k,
                    modes.policy,
                )
            else:
                cand = chunk_modes.select(first)
        if cand.n_modes == 0:
            continue

        accept = None
        if rank_mode:
            stats.n_tested += cand.n_modes
            with PhaseTimer(stats, "t_rank_test"):
                accept = rank_test(
                    cand,
                    n_perm,
                    rank_bound,
                    policy=options.policy,
                    n_exact=n_exact,
                    backend=options.rank_backend,
                    cache=rank_cache,
                    stats=stats,
                )
            if acceptance == "both" and not accept.all():
                raise AlgorithmError(
                    "adjacency test accepted a candidate the rank test "
                    f"rejects at row {k} ({int((~accept).sum())} of "
                    f"{cand.n_modes})"
                )
            if not accept.all():
                cand = cand.select(np.flatnonzero(accept))

        with PhaseTimer(stats, "t_merge"):
            if cand.n_modes:
                n_accepted += cand.n_modes
                index.add(cand.supports.words)
                if deferred:
                    acc_words.append(cand.supports.words)
                    acc_i.append(cand.pair_i)
                    acc_j.append(cand.pair_j)
                else:
                    acc_modes.append(cand)
                acc_bytes += cand.nbytes()

    stats.n_dedup_probes += index.n_probes
    stats.candidate_bytes = max(stats.candidate_bytes, acc_bytes + index.nbytes())
    with PhaseTimer(stats, "t_merge"):
        if deferred:
            if acc_words:
                out = CandidateBatch._from_parts(
                    PackedSupports(np.concatenate(acc_words, axis=0), modes.q),
                    np.concatenate(acc_i),
                    np.concatenate(acc_j),
                    k,
                    modes.policy,
                )
            else:
                out = CandidateBatch.empty(modes.q, k, policy=modes.policy)
        else:
            if acc_modes:
                out = acc_modes[0]
                for m in acc_modes[1:]:
                    out = out.concat(m)
            else:
                out = ModeMatrix.empty(
                    modes.q, exact=modes.exact, policy=modes.policy
                )
        out.dedup_index = index
    return out
