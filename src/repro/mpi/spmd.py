"""SPMD launcher: one entry point over the three engines."""

from __future__ import annotations

import os
from typing import Any, Callable, Literal

from repro.errors import CommunicatorError
from repro.mpi.comm import Communicator

BackendName = Literal["sequential", "thread", "process"]


def available_parallelism(cap: int = 8) -> int:
    """Usable worker-process count on this host, capped.

    The subproblem scheduler's default ``max_workers``: the scheduling
    overhead of more workers than cores is pure loss for the CPU-bound
    rank-test phases, and benchmark hosts vary from 1-core CI runners to
    large shared machines, so this clamps ``os.cpu_count()`` to
    ``[1, cap]``.
    """
    return max(1, min(cap, os.cpu_count() or 1))


def get_engine(backend: BackendName, *, comm_timeout: float | None = None):
    """Instantiate an engine by name (lazy imports keep multiprocessing out
    of sequential-only runs).

    ``comm_timeout`` defaults from ``REPRO_COMM_TIMEOUT_S`` when ``None``.
    """
    if backend == "sequential":
        from repro.mpi.sequential import SequentialEngine  # noqa: PLC0415

        return SequentialEngine(comm_timeout=comm_timeout)
    if backend == "thread":
        from repro.mpi.threads import ThreadEngine  # noqa: PLC0415

        return ThreadEngine(comm_timeout=comm_timeout)
    if backend == "process":
        from repro.mpi.process import ProcessEngine  # noqa: PLC0415

        return ProcessEngine(comm_timeout=comm_timeout)
    raise CommunicatorError(f"unknown backend {backend!r}")


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    *,
    backend: BackendName = "sequential",
    args: tuple = (),
    kwargs: dict | None = None,
    comm_timeout: float | None = None,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks; returns the
    per-rank return values.

    ``backend="sequential"`` is deterministic and single-threaded (the
    default, and the right choice for modeled-time benchmarks);
    ``"thread"`` overlaps numpy kernels; ``"process"`` uses real OS
    processes (picklable ``fn``/``args`` required).
    """
    if size < 1:
        raise CommunicatorError("size must be >= 1")
    engine = get_engine(backend, comm_timeout=comm_timeout)
    return engine.run(fn, size, args=args, kwargs=kwargs or {})


__all__ = [
    "run_spmd",
    "get_engine",
    "available_parallelism",
    "BackendName",
    "Communicator",
]
