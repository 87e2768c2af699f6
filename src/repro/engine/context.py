"""The run context: one object owning every cross-cutting concern.

Before this layer existed each driver (serial Algorithm 1, combinatorial
Algorithm 2, the column-partitioned variant, the checkpointed serial path
and the divide-and-conquer Algorithm 3) re-threaded ``AlgorithmOptions``,
the rank-test cache wiring, ``RunStats`` collection, tracing, checkpoint
configuration and the :class:`~repro.cluster.memory.MemoryModel` by hand,
so every cross-cutting feature multiplied across five code paths.
:class:`RunContext` is the single seam: ``compute_efms`` constructs it
once and passes it down; drivers ask it for what they need instead of
accepting a private keyword for each concern.

The context is deliberately picklable (no lambdas, no open files) so it
can cross process boundaries: the process-pool executor and the
simulated-MPI process backend fork with a copy.  Mutable members degrade
gracefully on copies — a forked :class:`~repro.linalg.batched.RankCache`
is merely a smaller cache, never a wrong one, and per-process stats sinks
are re-aggregated by the dispatching side.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.cluster.memory import MemoryModel
from repro.core.stats import IterationStats, RunStats
from repro.core.trace import IterationTrace
from repro.linalg import rational
from repro.linalg.batched import CacheBinding, RankCache, problem_token

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import NullspaceProblem
    from repro.core.state import ModeMatrix
    from repro.network.model import MetabolicNetwork


class TraceRecorder:
    """Per-run iteration-snapshot collector (the paper's Figure 2 traces).

    A disabled recorder is a no-op so drivers can call :meth:`capture`
    unconditionally.
    """

    __slots__ = ("enabled", "snapshots")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.snapshots: list[IterationTrace] = []

    def capture(
        self,
        position: int,
        problem: "NullspaceProblem",
        modes: "ModeMatrix",
        sel_score: int = 0,
    ) -> None:
        if self.enabled:
            self.snapshots.append(
                IterationTrace.capture(position, problem, modes, sel_score)
            )


@dataclasses.dataclass
class RunContext:
    """Everything a Nullspace Algorithm driver needs beyond the problem.

    Parameters
    ----------
    options:
        The algorithm tunables (arithmetic, acceptance test, rank backend,
        ordering, chunk sizes).
    memory_model:
        Optional modeled per-rank memory budget.  Drivers obtain fresh
        (zeroed) copies per run via :meth:`fresh_memory` so subproblems are
        accounted independently.
    checkpoint_path:
        Where the checkpointed drivers persist state: an ``.npz`` file for
        the serial path, a directory for the divide-and-conquer scheduler's
        per-subset results.
    checkpoint_every:
        Snapshot period (iterations) of the checkpointed serial driver.
    """

    options: AlgorithmOptions = DEFAULT_OPTIONS
    memory_model: MemoryModel | None = None
    checkpoint_path: Path | None = None
    checkpoint_every: int = 1
    #: Shared rank memo for divide-and-conquer runs: ``(cache, token)``
    #: keyed by canonical reduced-network columns (see
    #: :meth:`bind_shared_rank_memo`).  ``None`` means every run gets its
    #: own per-problem memo.
    shared_rank_memo: tuple[RankCache, bytes] | None = None
    #: Finished per-run statistics, appended by drivers via :meth:`collect`
    #: (in-process runs only; forked executors aggregate on return values).
    collected_stats: list[RunStats] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if self.checkpoint_path is not None:
            self.checkpoint_path = Path(self.checkpoint_path)

    # -- construction --------------------------------------------------------

    @classmethod
    def ensure(
        cls,
        context: "RunContext | None",
        *,
        options: AlgorithmOptions = DEFAULT_OPTIONS,
        memory_model: MemoryModel | None = None,
    ) -> "RunContext":
        """Return ``context`` unchanged, or build one from legacy keywords.

        The drivers' pre-engine keyword arguments (``options=``,
        ``memory_model=``) remain supported; when both a context and the
        keywords are given, the context wins — it is the single source of
        truth constructed by the caller that owns the run.
        """
        if context is not None:
            return context
        return cls(options=options, memory_model=memory_model)

    # -- rank-test cache wiring (satellite: single point of truth) -----------

    def rank_binding_for(
        self,
        problem: "NullspaceProblem",
        col_ids: np.ndarray | None = None,
    ) -> CacheBinding | None:
        """The rank-test cache binding for one prepared problem.

        The one place the serial, combinatorial, distributed,
        checkpointed and divide-and-conquer drivers get their rank-cache
        wiring from.  Three regimes:

        * the loop backend and pure-bittree runs take no cache (``None``;
          the modular and batched backends share one memo format);
        * with :attr:`shared_rank_memo` bound (divide-and-conquer), the
          binding addresses the run-wide memo through ``col_ids`` — the
          mapping from the problem's permuted columns to canonical
          reduced-network column ids, so differing permutations, deletions
          and reversible splits all hit the same entries;
        * otherwise a fresh per-run memo keyed by the problem's own
          stoichiometry.

        A shared memo without a column map would be unsound (raw support
        words mean different column sets in different subproblems), so in
        that combination the binding quietly degrades to a fresh private
        memo.
        """
        if (
            self.options.rank_backend not in ("batched", "modular")
            or self.options.acceptance == "bittree"
        ):
            return None
        if self.shared_rank_memo is not None and col_ids is not None:
            cache, token = self.shared_rank_memo
            return CacheBinding(cache, token, col_ids)
        token = problem_token(
            problem.n_perm, self.options.policy, self.options.arithmetic == "exact"
        )
        return CacheBinding(RankCache(), token)

    def bind_shared_rank_memo(self, reduced: "MetabolicNetwork") -> None:
        """Attach one rank memo for *all* subproblems of a divide-and-conquer
        run over ``reduced``.

        Every subproblem's stoichiometry is the reduced network's with some
        columns deleted (and possibly split into sign-flipped copies), so
        the rank of a submatrix depends only on which reduced-network
        columns the support selects — disjoint subsets repeatedly test
        overlapping supports of the same matrix, and Algorithm 3's
        redundancy becomes cache hits.  No-op when neither memo-capable
        backend (batched, modular) is on (then :meth:`rank_binding_for`
        returns ``None`` anyway).
        """
        from repro.network.stoichiometry import stoichiometric_matrix  # noqa: PLC0415

        if (
            self.options.rank_backend not in ("batched", "modular")
            or self.options.acceptance == "bittree"
        ):
            self.shared_rank_memo = None
            return
        token = problem_token(
            stoichiometric_matrix(reduced),
            self.options.policy,
            self.options.arithmetic == "exact",
        )
        self.shared_rank_memo = (RankCache(), token)

    # -- per-run helpers -----------------------------------------------------

    def n_exact_for(self, problem: "NullspaceProblem") -> rational.FractionMatrix | None:
        """The exact stoichiometry for the rank test, when running exact."""
        if self.options.arithmetic != "exact":
            return None
        return rational.from_numpy(problem.n_perm)

    def fresh_memory(self) -> MemoryModel | None:
        """A zeroed copy of the memory model (per-run/per-subproblem
        accounting), or ``None`` when no budget is modeled."""
        return self.memory_model.fresh() if self.memory_model is not None else None

    def new_iteration(self, problem: "NullspaceProblem", k: int) -> IterationStats:
        """A fresh per-row stats record for position ``k``."""
        return IterationStats(
            position=k,
            reaction=problem.names[k],
            reversible=bool(problem.reversible[k]),
        )

    def row_selector_for(
        self,
        problem: "NullspaceProblem",
        stop: int | None = None,
        *,
        processed=(),
    ):
        """The run's :class:`~repro.core.ordering.RowSelector` over the
        window ``[first_row, stop)`` — static orderings replay the baked-in
        permutation, ``ordering="dynamic"`` scores the live mode matrix
        each iteration.  ``processed`` seeds an already-realized prefix
        (checkpoint resume)."""
        from repro.core.ordering import RowSelector  # noqa: PLC0415

        return RowSelector(
            problem,
            problem.q if stop is None else stop,
            self.options,
            processed=processed,
        )

    def trace_recorder(self) -> TraceRecorder:
        """A per-run snapshot recorder, enabled by ``options.record_trace``."""
        return TraceRecorder(self.options.record_trace)

    def collect(self, stats: RunStats) -> None:
        """Sink a finished run's statistics for caller-side aggregation."""
        self.collected_stats.append(stats)
