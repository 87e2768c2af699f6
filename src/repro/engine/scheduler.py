"""Memory-aware scheduler for divide-and-conquer subproblems.

Algorithm 3 makes the 2^q subsets of a partition *independent* — the
paper exploits this by submitting each as a separate Blue Gene/P job
(Table IV).  This module is the single-machine analogue of that job
queue.  It replaces the sequential subset loop that used to live in
``combined_parallel`` with an explicit plan-schedule-dispatch pipeline:

1. **plan** — predict every subset's peak mode-matrix footprint with the
   :func:`~repro.cluster.memory.predict_subset_peak_bytes` surrogate
   (cheap: one rank computation per subset, no kernel build);
2. **schedule** — order the jobs: ``"predicted-peak"`` (largest first,
   the LPT makespan heuristic), ``"subset-id"``, ``"reverse"``, or an
   explicit index permutation (used by the equivalence tests to prove
   schedule independence);
3. **dispatch** — hand the ordered jobs to a pluggable executor
   (:mod:`repro.engine.executors`), with an admission budget bounding the
   predicted bytes in flight;
4. **isolate failures** — with ``on_oom="degrade"``, a subset that
   exceeds the modeled node memory (or is predicted to) re-runs on the
   checkpointed serial path instead of aborting the run;
5. **persist** — with a checkpoint directory, each completed subset is
   written as it finishes and a rerun resumes from what survived.

Whatever the executor, schedule or failure history, :meth:`run` returns
the subsets in canonical (spec enumeration) order, so the EFM union is
bit-identical across all execution strategies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Literal, Sequence, Union

import numpy as np

from repro.cluster.memory import predict_subset_peak_bytes
from repro.dnc.combined import (
    CombinedRunResult,
    SubsetResult,
    solve_subset_checkpointed_serial,
)
from repro.dnc.subsets import SubsetSpec
from repro.engine.context import RunContext
from repro.engine.executors import EXECUTOR_NAMES, WorkOrder, get_executor
from repro.errors import SchedulerError
from repro.mpi.spmd import BackendName, available_parallelism
from repro.network.model import MetabolicNetwork
from repro.network.stoichiometry import stoichiometric_matrix
from repro.parallel.pairs import PairStrategyName

ScheduleName = Literal["predicted-peak", "subset-id", "reverse"]
Schedule = Union[ScheduleName, Sequence[int]]
OnOom = Literal["record", "degrade"]

_CHECKPOINT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class SubsetJob:
    """One schedulable unit: a subset plus its planning metadata.

    ``index`` is the job's slot in the run's *canonical* result order (the
    position of its spec in the scheduler's spec list), independent of
    where the schedule places it or which worker solves it.
    """

    index: int
    spec: SubsetSpec
    predicted_peak_bytes: int


class SubproblemScheduler:
    """Plan, order, dispatch and repair one divide-and-conquer run.

    Parameters
    ----------
    reduced, specs:
        The reduced network and the subset specs to solve (typically
        ``enumerate_subsets(partition)``, possibly filtered).
    context:
        The run's :class:`~repro.engine.context.RunContext`.  Its memory
        model sets both the per-rank enforcement budget and the default
        admission budget; its ``checkpoint_path`` is the default
        checkpoint directory.
    executor, max_workers:
        Dispatch strategy (see :mod:`repro.engine.executors`) and its
        worker count (default: host parallelism, capped).
    schedule:
        Job ordering policy, or an explicit permutation of job indices.
    admission_bytes:
        Cap on the sum of predicted peak footprints in flight
        concurrently; default ``capacity_bytes * workers`` when a memory
        model is present, else unlimited.
    on_oom:
        ``"record"`` keeps a failed subset's ``OutOfMemoryError`` in its
        result (legacy behaviour; feeds the adaptive refiner);
        ``"degrade"`` re-runs failed (and too-big-to-admit) subsets on
        the checkpointed serial path so the run completes.
    checkpoint_dir:
        Directory for per-subset result persistence and resume.
    """

    def __init__(
        self,
        reduced: MetabolicNetwork,
        specs: Sequence[SubsetSpec],
        *,
        context: RunContext | None = None,
        n_ranks: int = 1,
        backend: BackendName = "sequential",
        pair_strategy: PairStrategyName = "strided",
        auto_split: bool = True,
        executor: str = "inline",
        max_workers: int | None = None,
        schedule: Schedule = "predicted-peak",
        admission_bytes: int | None = None,
        on_oom: str = "record",
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        if executor not in EXECUTOR_NAMES:
            raise SchedulerError(
                f"unknown executor {executor!r}; available: "
                f"{', '.join(EXECUTOR_NAMES)}"
            )
        if on_oom not in ("record", "degrade"):
            raise SchedulerError(
                f"on_oom must be 'record' or 'degrade', got {on_oom!r}"
            )
        self.reduced = reduced
        self.specs = list(specs)
        self.context = RunContext.ensure(context)
        self.n_ranks = n_ranks
        self.backend: BackendName = backend
        self.pair_strategy: PairStrategyName = pair_strategy
        self.auto_split = auto_split
        self.executor_name = executor
        self.max_workers = max_workers
        self.schedule: Schedule = schedule
        self.admission_bytes = admission_bytes
        self.on_oom = on_oom
        if checkpoint_dir is None:
            checkpoint_dir = self.context.checkpoint_path
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None

    # -- planning ------------------------------------------------------------

    def plan(self) -> list[SubsetJob]:
        """Predict every subset's footprint; jobs come back in canonical
        (spec-list) order."""
        wf = (
            self.context.memory_model.working_factor
            if self.context.memory_model is not None
            else 1.5
        )
        return [
            SubsetJob(
                index=i,
                spec=spec,
                predicted_peak_bytes=predict_subset_peak_bytes(
                    self.reduced,
                    spec,
                    working_factor=wf,
                    iter_chunk_bytes=self.context.options.iter_chunk_bytes,
                    rank_backend=self.context.options.rank_backend,
                    ordering=self.context.options.ordering,
                ),
            )
            for i, spec in enumerate(self.specs)
        ]

    def scheduled(self, jobs: Sequence[SubsetJob]) -> list[SubsetJob]:
        """Order ``jobs`` per the schedule policy.

        Ties in ``"predicted-peak"`` break on the canonical index so the
        schedule is deterministic.  An explicit schedule must be a
        permutation of *all* job indices of the run; jobs already resumed
        from a checkpoint are simply absent from ``jobs`` and skipped.
        """
        if isinstance(self.schedule, str):
            if self.schedule == "predicted-peak":
                return sorted(
                    jobs, key=lambda j: (-j.predicted_peak_bytes, j.index)
                )
            if self.schedule == "subset-id":
                return sorted(jobs, key=lambda j: j.index)
            if self.schedule == "reverse":
                return sorted(jobs, key=lambda j: -j.index)
            raise SchedulerError(
                f"unknown schedule {self.schedule!r}; expected "
                "'predicted-peak', 'subset-id', 'reverse' or an index "
                "permutation"
            )
        order = [int(i) for i in self.schedule]
        if sorted(order) != list(range(len(self.specs))):
            raise SchedulerError(
                "explicit schedule must be a permutation of "
                f"0..{len(self.specs) - 1}, got {order!r}"
            )
        by_index = {job.index: job for job in jobs}
        return [by_index[i] for i in order if i in by_index]

    # -- checkpoint persistence ----------------------------------------------

    def _fingerprint(self) -> str:
        """Identity of this run's inputs: network, subsets and the options
        that affect results.  A checkpoint directory written under a
        different fingerprint must not be resumed from."""
        h = hashlib.sha256()
        n = stoichiometric_matrix(self.reduced)
        h.update(np.ascontiguousarray(n, dtype=np.float64).tobytes())
        h.update("|".join(self.reduced.reaction_names).encode())
        h.update(
            "".join("R" if r else "I" for r in self.reduced.reversibility).encode()
        )
        h.update("|".join(spec.label() for spec in self.specs).encode())
        o = self.context.options
        h.update(
            f"{o.arithmetic}|{o.acceptance}|{o.ordering}|"
            f"{o.policy.zero_tol}|{o.policy.rank_tol}".encode()
        )
        return h.hexdigest()

    def _subset_file(self, spec: SubsetSpec) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"subset_{spec.subset_id:05d}.npz"

    def _prepare_checkpoint_dir(self) -> None:
        assert self.checkpoint_dir is not None
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        manifest = self.checkpoint_dir / "manifest.json"
        fingerprint = self._fingerprint()
        if manifest.exists():
            meta = json.loads(manifest.read_text())
            if meta.get("fingerprint") != fingerprint:
                raise SchedulerError(
                    f"checkpoint directory {self.checkpoint_dir} belongs to a "
                    "different run (network, subsets or options changed); "
                    "refusing to mix results"
                )
            return
        manifest.write_text(
            json.dumps(
                {
                    "version": _CHECKPOINT_VERSION,
                    "fingerprint": fingerprint,
                    "n_subsets": len(self.specs),
                }
            )
        )

    def _save_result(self, job: SubsetJob, res: SubsetResult) -> None:
        if self.checkpoint_dir is None or res.oom is not None:
            return
        path = self._subset_file(job.spec)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(
            tmp,
            efms=res.efms,
            wall_time=np.float64(res.wall_time),
            degraded=np.int64(res.degraded),
        )
        tmp.replace(path)  # atomic: a crash never leaves a torn subset file

    def _load_resumed(self, jobs: Sequence[SubsetJob]) -> dict[int, SubsetResult]:
        resumed: dict[int, SubsetResult] = {}
        for job in jobs:
            path = self._subset_file(job.spec)
            if not path.exists():
                continue
            with np.load(path) as data:
                resumed[job.index] = SubsetResult(
                    spec=job.spec,
                    efms=np.ascontiguousarray(data["efms"]),
                    stats=None,
                    rank_traces=[],
                    wall_time=float(data["wall_time"]),
                    degraded=bool(data["degraded"]),
                    resumed=True,
                    predicted_peak_bytes=job.predicted_peak_bytes,
                )
        return resumed

    # -- degradation ---------------------------------------------------------

    def _degrade(self, job: SubsetJob) -> SubsetResult:
        """Re-run one subset on the checkpointed serial path (failure
        isolation: slow beats dead)."""
        ckpt = (
            self.checkpoint_dir / f"subset_{job.spec.subset_id:05d}_serial.npz"
            if self.checkpoint_dir is not None
            else None
        )
        res = solve_subset_checkpointed_serial(
            self.reduced,
            job.spec,
            context=self.context,
            checkpoint_path=ckpt,
            checkpoint_every=self.context.checkpoint_every,
            auto_split=self.auto_split,
        )
        res.predicted_peak_bytes = job.predicted_peak_bytes
        if ckpt is not None and ckpt.exists():
            ckpt.unlink()  # the subset finished; the row-level snapshot is spent
        return res

    # -- the run -------------------------------------------------------------

    def run(self) -> CombinedRunResult:
        jobs = self.plan()

        results: dict[int, SubsetResult] = {}
        if self.checkpoint_dir is not None:
            self._prepare_checkpoint_dir()
            results = self._load_resumed(jobs)
        n_resumed = len(results)
        pending = [job for job in jobs if job.index not in results]

        # Admission pre-screen: a subset predicted to blow a single node's
        # budget goes straight to the degraded path — running it through
        # Algorithm 2 first would only burn the time until the OOM.
        pre_degraded: list[SubsetJob] = []
        mm = self.context.memory_model
        if self.on_oom == "degrade" and mm is not None and mm.enforcing:
            cap = int(mm.capacity_bytes)
            pre_degraded = [j for j in pending if j.predicted_peak_bytes > cap]
            pending = [j for j in pending if j.predicted_peak_bytes <= cap]

        order = WorkOrder(
            reduced=self.reduced,
            n_ranks=self.n_ranks,
            backend=self.backend,
            pair_strategy=self.pair_strategy,
            auto_split=self.auto_split,
            context=self.context,
        )
        executor = get_executor(
            self.executor_name,
            order,
            max_workers=self.max_workers,
            admission_bytes=self._admission_budget(executor_workers=None),
        )
        solved = executor.run(self.scheduled(pending), on_result=self._save_result)
        missing = {j.index for j in pending} - set(solved)
        if missing:  # pragma: no cover - executor contract violation
            raise SchedulerError(
                f"executor {self.executor_name!r} returned no result for "
                f"jobs {sorted(missing)}"
            )
        results.update(solved)

        n_degraded = 0
        if self.on_oom == "degrade":
            retry = pre_degraded + [
                job for job in jobs
                if job.index in results and results[job.index].oom is not None
            ]
            for job in retry:
                res = self._degrade(job)
                results[job.index] = res
                self._save_result(job, res)
                n_degraded += 1

        subsets = [results[job.index] for job in jobs]  # canonical order
        meta = {
            "executor": self.executor_name,
            "schedule": self.schedule
            if isinstance(self.schedule, str)
            else list(self.schedule),
            "n_jobs": len(jobs),
            "n_resumed": n_resumed,
            "n_degraded": n_degraded,
            "admission_bytes": self._admission_budget(executor_workers=None),
            "predicted_total_bytes": sum(j.predicted_peak_bytes for j in jobs),
        }
        return CombinedRunResult(network=self.reduced, subsets=subsets, meta=meta)

    def _admission_budget(self, executor_workers: int | None) -> int | None:
        """Default admission budget: one node's capacity per worker (i.e.
        the modeled cluster memory).  Explicit ``admission_bytes`` wins."""
        if self.admission_bytes is not None:
            return self.admission_bytes
        if self.context.memory_model is None:
            return None
        workers = (
            executor_workers
            if executor_workers is not None
            else (self.max_workers or available_parallelism())
        )
        return int(self.context.memory_model.capacity_bytes) * workers
