"""One-call EFM computation: ``compute_efms(network, ...)``.

Chains the full pipeline of the paper: network compression (§II.C), kernel
construction in ``(I; R)`` form with the processing heuristics, the chosen
algorithm (serial Algorithm 1, combinatorial parallel Algorithm 2,
column-partitioned variant, or the combined divide-and-conquer Algorithm
3), reversible-splitting fallbacks, and expansion of the results back to
the original reaction space (merged reactions unfolded, blocked reactions
zero, compression-time singleton EFMs appended).
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from pathlib import Path

from repro.config import DEFAULT_OPTIONS, AlgorithmOptions
from repro.core.kernel import NullspaceProblem, build_problem
from repro.core.serial import nullspace_algorithm
from repro.cluster.memory import MemoryModel
from repro.dnc.combined import combined_parallel
from repro.engine.context import RunContext
from repro.dnc.selection import SelectionMethod, select_partition_reactions
from repro.efm.result import EFMResult
from repro.efm.splitting import SplitRecord, split_reversible
from repro.errors import AlgorithmError, PartitionError, ReversibleIdentityError
from repro.mpi.spmd import BackendName
from repro.network.compression import CompressionRecord, compress_network
from repro.network.model import MetabolicNetwork
from repro.parallel.combinatorial import combinatorial_parallel
from repro.parallel.distributed import distributed_parallel
from repro.parallel.pairs import PairStrategyName

Method = Literal["serial", "parallel", "distributed", "combined"]


def compute_efms(
    network: MetabolicNetwork,
    *,
    method: Method = "serial",
    n_ranks: int = 1,
    backend: BackendName = "sequential",
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    compress: bool = True,
    auto_split: bool = True,
    partition: Sequence[str] | int | None = None,
    partition_method: SelectionMethod = "tail",
    pair_strategy: PairStrategyName = "strided",
    memory_model: MemoryModel | None = None,
    executor: str = "inline",
    max_workers: int | None = None,
    schedule: str | Sequence[int] = "predicted-peak",
    on_oom: str = "record",
    checkpoint_path: str | Path | None = None,
    context: RunContext | None = None,
) -> EFMResult:
    """Compute all elementary flux modes of ``network``.

    Parameters
    ----------
    method:
        ``"serial"`` — Algorithm 1; ``"parallel"`` — Algorithm 2 on
        ``n_ranks`` simulated ranks; ``"distributed"`` — the
        column-partitioned variant; ``"combined"`` — Algorithm 3
        (divide-and-conquer over ``partition``).  The combinatorial
        acceptance test (``options.acceptance`` ``"bittree"``/``"both"``)
        runs on ``"serial"`` and ``"parallel"`` only; the other methods
        reject it before any work, and ``"distributed"`` rejects
        ``options.arithmetic="exact"`` the same way.
    compress:
        Run the lossless network reduction first (recommended; the paper
        always does).
    auto_split:
        Automatically split reversible reactions that cannot be kernel
        pivots (see :mod:`repro.efm.splitting`); with ``False`` such
        networks raise :class:`~repro.errors.ReversibleIdentityError`.
    partition:
        For ``method="combined"``: either explicit *reduced-network*
        reaction names (bottom row last) or an integer ``q_sub`` to select
        automatically via ``partition_method``.
    memory_model:
        Optional per-rank memory cap (modeled); see
        :class:`repro.cluster.memory.MemoryModel`.
    executor, max_workers, schedule:
        For ``method="combined"``: how the subproblem scheduler dispatches
        the subsets — ``"inline"``, ``"process-pool"`` (OS worker
        processes with work stealing) or ``"spmd"``; the EFM set is
        bit-identical across all three.  See
        :class:`repro.engine.scheduler.SubproblemScheduler`.
    on_oom:
        For ``method="combined"`` with a memory model: ``"record"``
        (default) raises when a subset exceeds memory, pointing at the
        adaptive refiner; ``"degrade"`` re-runs such subsets on the
        checkpointed serial path so the call still completes.
    checkpoint_path:
        ``method="serial"``: snapshot ``.npz`` for the checkpointed
        driver.  ``method="combined"``: scheduler checkpoint *directory*
        — completed subsets persist and a rerun resumes from them.
    context:
        A pre-built :class:`~repro.engine.context.RunContext`; overrides
        ``options``/``memory_model``/``checkpoint_path``.

    Returns
    -------
    EFMResult
        Modes in the original network's reaction order.
    """
    ctx = context if context is not None else RunContext(
        options=options,
        memory_model=memory_model,
        checkpoint_path=checkpoint_path,
    )
    options = ctx.options
    if options.acceptance != "rank" and method in ("combined", "distributed"):
        raise AlgorithmError(
            f"acceptance={options.acceptance!r} is supported by "
            "method='serial' and method='parallel' only; "
            f"method={method!r} supports acceptance='rank'"
        )
    if options.arithmetic == "exact" and method == "distributed":
        raise AlgorithmError(
            "arithmetic='exact' is not supported by method='distributed', "
            "whose sharded driver runs float arithmetic only; use another "
            "method or arithmetic='float'"
        )
    if compress:
        rec = compress_network(network)
    else:
        rec = _identity_record(network)
    reduced = rec.reduced

    meta: dict = {"compression": rec.summary(), "backend": backend}
    if reduced.n_reactions == 0:
        efms_reduced = np.zeros((0, 0))
        stats = None
    elif method == "combined":
        part = _resolve_partition(reduced, partition, partition_method, options)
        meta["partition"] = part
        run = combined_parallel(
            reduced,
            part,
            n_ranks,
            backend=backend,
            pair_strategy=pair_strategy,
            executor=executor,
            max_workers=max_workers,
            schedule=schedule,
            on_oom=on_oom,
            context=ctx,
        )
        if not run.complete:
            failed = [s.spec.label() for s in run.subsets if not s.completed]
            raise AlgorithmError(
                f"divide-and-conquer subsets exceeded memory: {failed}; use "
                "on_oom='degrade' to fall back to the checkpointed serial "
                "path, or repro.dnc.adaptive.adaptive_combined for automatic "
                "refinement"
            )
        efms_reduced = run.efms()
        stats = None
        meta["executor"] = executor
        meta["scheduler"] = run.meta
        meta["subsets"] = [
            (s.spec.label(), s.n_efms, s.n_candidates) for s in run.subsets
        ]
        meta["total_candidates"] = run.total_candidates
    else:
        problem, split_rec = build_problem_with_split(reduced, options, auto_split)
        if method == "serial":
            if n_ranks != 1:
                raise AlgorithmError("serial method runs on exactly 1 rank")
            if ctx.checkpoint_path is not None:
                from repro.core.checkpoint import (  # noqa: PLC0415
                    checkpointed_nullspace_algorithm,
                )

                res = checkpointed_nullspace_algorithm(problem, context=ctx)
            else:
                res = nullspace_algorithm(problem, context=ctx)
            efms_work = res.efms_input_order()
            stats = res.stats
        elif method == "parallel":
            run = combinatorial_parallel(
                problem,
                n_ranks,
                backend=backend,
                pair_strategy=pair_strategy,
                context=ctx,
            )
            efms_work = run.result.efms_input_order()
            stats = run.stats
        elif method == "distributed":
            drun = distributed_parallel(
                problem, n_ranks, backend=backend, context=ctx
            )
            efms_work = drun.efms_input_order()
            stats = drun.rank_stats[0]
            for s in drun.rank_stats[1:]:
                stats = stats.merged_with(s)
        else:
            raise AlgorithmError(f"unknown method {method!r}")
        if split_rec is not None:
            meta["split"] = split_rec.split_names
            efms_reduced = _reorder_to(
                split_rec.fold_modes(efms_work), split_rec.original, reduced
            )
        else:
            efms_reduced = efms_work

    # Expand to the original reaction space and append singleton EFMs.
    if efms_reduced.size:
        full = rec.expand_fluxes(efms_reduced.T).T
    else:
        full = np.zeros((0, network.n_reactions))
    singles = rec.singleton_flux_matrix().T
    if singles.shape[0]:
        full = np.concatenate([full, singles], axis=0) if full.size else singles

    result = EFMResult(network=network, fluxes=full, method=method, stats=stats, meta=meta)
    return result.canonical()


def _identity_record(network: MetabolicNetwork) -> CompressionRecord:
    """A no-op compression record (compress=False path)."""
    from fractions import Fraction

    q = network.n_reactions
    expansion = [
        [Fraction(1) if i == j else Fraction(0) for j in range(q)] for i in range(q)
    ]
    return CompressionRecord(
        original=network,
        reduced=network,
        expansion=expansion,
        blocked=(),
        singletons=(),
        merged_groups={r.name: (r.name,) for r in network.reactions},
    )


def build_problem_with_split(
    reduced: MetabolicNetwork,
    options: AlgorithmOptions = DEFAULT_OPTIONS,
    auto_split: bool = True,
) -> tuple["NullspaceProblem", SplitRecord | None]:
    """Build the kernel problem, splitting reversible reactions that cannot
    be pivots until construction succeeds.  Returns ``(problem,
    split_record)`` with ``split_record=None`` when no split was needed.

    The combinatorial acceptance test (``acceptance='bittree'``/``'both'``)
    is only exact on fully irreversible systems, so those options split
    *every* reversible reaction up front.
    """
    split_rec: SplitRecord | None = None
    work = reduced
    if options.acceptance != "rank":
        reversibles = tuple(r.name for r in reduced.reactions if r.reversible)
        if reversibles:
            if not auto_split:
                raise AlgorithmError(
                    f"acceptance={options.acceptance!r} needs auto_split=True "
                    "on networks with reversible reactions"
                )
            split_rec = split_reversible(reduced, reversibles)
            work = split_rec.split
    for _ in range(reduced.n_reactions + 1):
        try:
            return build_problem(work, options=options), split_rec
        except ReversibleIdentityError as exc:
            if not auto_split:
                raise
            rec = split_reversible(work, exc.reactions)
            if split_rec is None:
                split_rec = rec
            else:
                split_rec = SplitRecord(
                    original=split_rec.original,
                    split=rec.split,
                    split_names=split_rec.split_names + rec.split_names,
                )
            work = rec.split
    raise AlgorithmError("reversible splitting did not converge")  # pragma: no cover


def _reorder_to(
    modes: np.ndarray, src: MetabolicNetwork, dst: MetabolicNetwork
) -> np.ndarray:
    """Reorder mode columns from ``src`` order to ``dst`` order (same
    reaction name sets)."""
    if src.reaction_names == dst.reaction_names:
        return modes
    out = np.zeros((modes.shape[0], dst.n_reactions))
    for j, name in enumerate(src.reaction_names):
        out[:, dst.reaction_index(name)] = modes[:, j]
    return out


def _resolve_partition(
    reduced: MetabolicNetwork,
    partition: Sequence[str] | int | None,
    partition_method: SelectionMethod,
    options: AlgorithmOptions,
) -> tuple[str, ...]:
    if partition is None:
        raise PartitionError(
            "method='combined' needs partition=<names or q_sub integer>"
        )
    if isinstance(partition, int):
        return select_partition_reactions(
            reduced, partition, method=partition_method, options=options
        )
    return tuple(partition)
