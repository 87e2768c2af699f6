"""The serial Nullspace Algorithm (Algorithm 1 of the paper).

One iteration per row of the (permuted) mode matrix, starting at the first
non-identity row:

1. split modes on the sign of the current row's entry;
2. ``GenerateEFMCands`` — pair every positive with every negative mode;
3. ``Sort&RemoveDuplicates`` — canonicalize supports, drop duplicates
   (both among candidates and against surviving zero-entry modes — the
   paper's §II.C toy trace dedups candidate (1,1,0,0,1,1,0,0) against the
   identical mode already present in K⁽⁴⁾);
4. ``RankTests`` — the algebraic acceptance test (or the bit-pattern
   alternative, per options);
5. ``RemoveNegColumns`` — irreversible rows drop negative-entry modes;
6. concatenate survivors and accepted candidates.

The same iteration body is reused by the parallel drivers, which override
the pair range and insert a communicate/merge step; ``iterate_row`` is the
shared kernel.

Which row an iteration eliminates comes from the run's
:class:`~repro.core.ordering.RowSelector`: static orderings replay the
problem's baked-in permutation, ``ordering="dynamic"`` (default) picks
the cheapest remaining row from the live mode matrix each iteration.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core import bittree, iterstream
from repro.core.candidates import PairRange, full_range
from repro.core.kernel import NullspaceProblem
# Not called here; perfbench/layers.py wraps ``repro.core.serial.rank_test``.
from repro.core.ranktest import rank_test  # noqa: F401
from repro.core.state import CandidateBatch, ModeMatrix
from repro.core.stats import IterationStats, PhaseTimer, RunStats
from repro.core.trace import IterationTrace
from repro.engine.context import RunContext
from repro.errors import AlgorithmError
from repro.linalg import rational
from repro.linalg.batched import CacheBinding


@dataclasses.dataclass
class NullspaceResult:
    """Outcome of a Nullspace Algorithm run.

    ``modes`` is in the problem's *processing* permutation; use
    :meth:`efms_input_order` for the caller's column order.  For
    divide-and-conquer runs stopped early (``stopped_at < q``,
    Proposition 1) the modes are an intermediate nullspace matrix, *not*
    a full EFM set — the EFM accessors (:attr:`n_efms`,
    :meth:`efms_input_order`) refuse to serve them and raise
    :class:`~repro.errors.AlgorithmError`; read :attr:`modes` directly for
    intermediate-state access (as the divide-and-conquer driver does).
    """

    problem: NullspaceProblem
    modes: ModeMatrix
    stats: RunStats
    stopped_at: int
    trace: list[IterationTrace] = dataclasses.field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every non-identity row was processed (``stopped_at ==
        q``); early-stopped divide-and-conquer runs are incomplete."""
        return self.stopped_at >= self.problem.q

    def _require_complete(self) -> None:
        if not self.complete:
            raise AlgorithmError(
                f"run stopped early at row {self.stopped_at} of "
                f"{self.problem.q}; the mode matrix is an intermediate "
                "nullspace state, not an EFM set — finish the remaining "
                "rows or read .modes for the intermediate matrix"
            )

    @property
    def n_efms(self) -> int:
        self._require_complete()
        return self.modes.n_modes

    def efms_input_order(self) -> np.ndarray:
        """EFMs as a ``(n_modes, q)`` float64 array with columns in the
        problem's input reaction order.

        Raises
        ------
        AlgorithmError
            When the run stopped early (``complete`` is False): the
            intermediate modes are not EFMs and silently returning them
            would corrupt downstream unions.
        """
        self._require_complete()
        vals = self.modes.values
        if self.modes.exact:
            vals = np.array(
                [[float(x) for x in row] for row in vals], dtype=np.float64
            ).reshape(vals.shape)
        return np.ascontiguousarray(vals[:, self.problem.inverse_perm()])


MemoryCheck = Callable[[int, ModeMatrix], None]


def check_acceptance_applicable(
    problem: NullspaceProblem, options: AlgorithmOptions, stop: int
) -> None:
    """The combinatorial (bit-pattern) adjacency test is exact only when
    every *processed* row is irreversible — the double-description
    extreme-ray/elementary-mode equivalence it relies on needs the
    intermediate cones pointed.  Reversible rows demand the algebraic rank
    test (or splitting the reversible reactions first, which
    ``compute_efms`` does automatically for ``acceptance='bittree'``)."""
    if options.acceptance == "rank":
        return
    rev_rows = [
        problem.names[i]
        for i in range(problem.first_row, stop)
        if problem.reversible[i]
    ]
    if rev_rows:
        raise AlgorithmError(
            f"acceptance={options.acceptance!r} requires irreversible "
            f"processed rows, but {rev_rows} are reversible; split them "
            "first (compute_efms does this automatically) or use "
            "acceptance='rank'"
        )


def iterate_row(
    modes: ModeMatrix,
    k: int,
    problem: NullspaceProblem,
    options: AlgorithmOptions,
    stats: IterationStats,
    *,
    pair_range_for: Callable[[int], PairRange] = full_range,
    n_exact: rational.FractionMatrix | None = None,
    rank_cache: CacheBinding | None = None,
    materialize: bool = True,
    processed_rows: np.ndarray | None = None,
) -> tuple[ModeMatrix, ModeMatrix | CandidateBatch]:
    """One iteration body shared by serial and parallel drivers.

    Returns ``(kept, accepted_candidates)``: the old modes surviving the
    row (zero + positive + negative-if-reversible) and the locally
    generated, deduplicated, acceptance-tested candidates.  The caller
    concatenates (serial) or communicates/merges first (parallel).
    ``rank_cache`` optionally shares a support-pattern rank memo across
    iterations (and, for divide-and-conquer drivers, across subproblems).

    The generate → dedup → rank-test sequence runs as a bounded-memory
    chunk stream (:func:`repro.core.iterstream.stream_iteration`).  For
    float modes the candidates travel through it as a support-only
    :class:`~repro.core.state.CandidateBatch`; with ``materialize=True``
    (the serial default) the accepted survivors come back as a dense
    :class:`ModeMatrix`, while ``materialize=False`` hands the batch to
    the caller so a parallel driver can communicate the packed
    representation and materialize after the global merge.  Exact modes
    come back dense either way.
    """
    signs = modes.sign_column(k)
    pos_idx = np.nonzero(signs > 0)[0]
    neg_idx = np.nonzero(signs < 0)[0]
    zero_mask = signs == 0
    stats.n_pos = int(pos_idx.size)
    stats.n_neg = int(neg_idx.size)
    stats.n_zero = int(zero_mask.sum())

    reversible = bool(problem.reversible[k])
    n_pairs_total = stats.n_pos * stats.n_neg

    cand = ModeMatrix.empty(modes.q, exact=modes.exact, policy=modes.policy)
    if n_pairs_total:
        pr = pair_range_for(n_pairs_total)
        stats.n_pairs = pr.count()
        # The combinatorial acceptance test is a per-PAIR adjacency test
        # and must run during generation, before duplicate removal; the
        # algebraic rank test is per-ray and runs after dedup (the paper's
        # Sort&RemoveDuplicates -> RankTests order).
        adjacency = None
        if options.acceptance in ("bittree", "both"):
            # ``processed_rows`` (the selector's realized prior set) is
            # required under dynamic ordering — see AdjacencyTest: the
            # prefix fallback is only valid for in-position processing.
            with PhaseTimer(stats, "t_rank_test"):
                adjacency = bittree.AdjacencyTest(
                    modes.supports.words, modes.q, k, processed=processed_rows
                )
        cand = iterstream.stream_iteration(
            modes, k, pos_idx, neg_idx, pr, problem.n_perm,
            problem.rank, options, stats,
            zero_words=modes.supports.words[zero_mask],
            adjacency=adjacency,
            n_exact=n_exact,
            rank_cache=rank_cache,
        )
        stats.n_accepted = cand.n_modes
        if materialize and isinstance(cand, CandidateBatch):
            # Support-first: dense normalized values exist only from here
            # on, and only for the accepted survivors.
            with PhaseTimer(stats, "t_merge"):
                cand = cand.materialize(modes.values)

    if reversible:
        kept = modes
        stats.n_neg_removed = 0
    else:
        keep_mask = signs >= 0
        stats.n_neg_removed = int((~keep_mask).sum())
        kept = modes.select(np.nonzero(keep_mask)[0])
    return kept, cand


def nullspace_algorithm(
    problem: NullspaceProblem,
    *,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    stop_row: int | None = None,
    memory_check: MemoryCheck | None = None,
    context: RunContext | None = None,
) -> NullspaceResult:
    """Run Algorithm 1 on a prepared problem.

    Parameters
    ----------
    stop_row:
        Process rows up to (excluding) this position — Proposition 1's
        early stop for divide-and-conquer subproblems.  Default: all rows.
    memory_check:
        Called after every iteration with ``(iteration, modes)``; may raise
        :class:`repro.errors.OutOfMemoryError` to model a node-memory
        limit.  Overrides the context's memory model when given.
    context:
        The run's :class:`~repro.engine.context.RunContext`.  When absent a
        private one is built from ``options`` (legacy call style).
    """
    ctx = RunContext.ensure(context, options=options)
    options = ctx.options
    t_start = time.perf_counter()
    exact = options.arithmetic == "exact"
    n_exact = ctx.n_exact_for(problem)
    modes = ModeMatrix.from_kernel(problem.kernel, exact=exact, policy=options.policy)
    stats = RunStats()
    stop = problem.q if stop_row is None else stop_row
    if not (problem.first_row <= stop <= problem.q):
        raise AlgorithmError(f"stop_row {stop} out of range")
    check_acceptance_applicable(problem, options, stop)
    recorder = ctx.trace_recorder()
    rank_cache = ctx.rank_binding_for(problem)
    if memory_check is None:
        memory = ctx.fresh_memory()
        memory_check = memory.check if memory is not None else None

    # Dynamic ordering consults the selector at the top of every
    # iteration (scored from the live mode matrix); static orderings
    # replay the problem's baked-in permutation through the same seam.
    selector = ctx.row_selector_for(problem, stop)
    while selector.has_next():
        k = selector.next_row(modes)
        it = ctx.new_iteration(problem, k)
        selector.annotate(it)
        kept, cand = iterate_row(
            modes, k, problem, options, it, n_exact=n_exact,
            rank_cache=rank_cache, processed_rows=selector.adjacency_rows(),
        )
        with PhaseTimer(it, "t_merge"):
            modes = kept.concat(cand) if cand.n_modes else kept
        it.n_modes_end = modes.n_modes
        stats.add(it)
        stats.peak_mode_bytes = max(stats.peak_mode_bytes, modes.nbytes())
        recorder.capture(k, problem, modes, selector.last_score)
        if memory_check is not None:
            memory_check(k, modes)

    stats.t_total = time.perf_counter() - t_start
    ctx.collect(stats)
    return NullspaceResult(
        problem=problem,
        modes=modes,
        stats=stats,
        stopped_at=stop,
        trace=recorder.snapshots,
    )
