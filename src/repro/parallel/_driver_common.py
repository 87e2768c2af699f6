"""Helpers shared by the SPMD parallel drivers.

The combinatorial (replicated) and distributed (column-partitioned)
drivers grew copy-pasted plumbing — mode (de)serialization for the
allgather rounds, transport-counter collection, and the tracing wrapper
handed to :func:`repro.mpi.spmd.run_spmd`.  One copy of each lives here.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from repro.config import AlgorithmOptions, NumericPolicy
from repro.core.state import ModeMatrix
from repro.core.stats import RunStats
from repro.errors import AlgorithmError
from repro.linalg.bitset import PackedSupports
from repro.mpi.comm import Communicator
from repro.mpi.tracing import TracingCommunicator


def pack_modes(modes: ModeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Wire parts of a mode matrix: dense values + packed support words."""
    return modes.values, modes.supports.words


def unpack_modes(parts, q: int, policy: NumericPolicy) -> ModeMatrix:
    """Rebuild one rank's :func:`pack_modes` payload (rows are already
    canonical, so normalization is skipped)."""
    values, words = parts
    return ModeMatrix.from_parts(values, PackedSupports(words, q), policy)


def concat_mode_parts(parts, q: int, policy: NumericPolicy) -> ModeMatrix:
    """Concatenate many ranks' ``(values, words)`` payloads into one mode
    matrix (rank-major order, single allocation per array)."""
    vals = np.concatenate([p[0] for p in parts], axis=0)
    words = np.concatenate([p[1] for p in parts], axis=0)
    return ModeMatrix.from_parts(vals, PackedSupports(words, q), policy)


def collect_wire_stats(comm: Communicator, stats: RunStats) -> None:
    """Copy the backend's measured transport counters into the run stats."""
    w = getattr(comm, "wire", None)
    if w is None:
        return
    stats.ser_bytes = w.ser_bytes
    stats.n_serializations = w.n_ser
    stats.wire_bytes_sent = w.wire_out


def selection_debug_enabled(options: AlgorithmOptions) -> bool:
    """Whether the per-iteration selection-consistency fingerprint check
    runs (debug/trace mode: ``record_trace`` or ``REPRO_SELECTION_DEBUG``).
    Production dynamic selection is communication-free — every replica
    computes the same argmin locally — so the allgathered fingerprint is
    strictly a debugging assertion, never a correctness dependency."""
    return options.record_trace or bool(os.environ.get("REPRO_SELECTION_DEBUG"))


def check_selection_consistency(
    comm: Communicator, fingerprint: tuple[int, int, int]
) -> None:
    """Assert all ranks selected the same row from the same replica state.

    Allgathers each rank's cheap ``(row, n_modes, support-digest)``
    fingerprint (see :meth:`repro.core.ordering.RowSelector.fingerprint`)
    and raises :class:`~repro.errors.AlgorithmError` on the first
    divergence — a replica whose mode matrix drifted, or a
    non-deterministic selector, would otherwise corrupt the run silently.
    """
    gathered = comm.allgather(tuple(int(x) for x in fingerprint))
    bad = [r for r, fp in enumerate(gathered) if tuple(fp) != tuple(gathered[0])]
    if bad:
        raise AlgorithmError(
            f"dynamic row selection diverged across ranks: rank 0 chose "
            f"{gathered[0]} but ranks {bad} chose "
            f"{[tuple(gathered[r]) for r in bad]}"
        )


def _traced_call(worker_fn, comm: Communicator, *args, **kwargs):
    traced = TracingCommunicator(comm)
    result = worker_fn(traced, *args, **kwargs)
    if isinstance(result, tuple):
        return (*result, traced.trace)
    return result, traced.trace


def traced_worker(worker_fn):
    """Wrap an SPMD worker so its communicator is traced and the trace is
    appended to the worker's return value.

    Returns a :func:`functools.partial` over module-level functions, so
    the wrapper stays picklable for the process backend.
    """
    return functools.partial(_traced_call, worker_fn)
