"""Abstract communicator: the MPI subset the parallel algorithms use.

The combinatorial parallel Nullspace Algorithm is bulk-synchronous — its
only hot operation is the per-iteration ``allgather`` of locally accepted
candidate modes (Communicate&Merge) — but the full point-to-point API is
provided so the column-partitioned variant and tests can express richer
patterns.  The interface follows mpi4py's lower-case object API (pickled
Python objects); the backends are in-process substitutes for an MPI
cluster, which this host cannot run (no mpi4py, single core).
"""

from __future__ import annotations

import abc
import pickle
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.mpi.wire import WireCounters


class Communicator(abc.ABC):
    """One rank's endpoint of a communicator of ``size`` ranks.

    Every communicator carries :attr:`wire` —
    :class:`~repro.mpi.wire.WireCounters` that the backends update with
    serialization and transport byte counts; the tracing wrapper takes
    deltas around each operation to attribute them to events.
    """

    def __init__(self, rank: int, size: int) -> None:
        if not (0 <= rank < size):
            raise CommunicatorError(f"rank {rank} out of range for size {size}")
        self._rank = rank
        self._size = size
        self.wire = WireCounters()

    @property
    def rank(self) -> int:
        """This process's rank (``Get_rank`` in MPI terms)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks (``Get_size``)."""
        return self._size

    # -- point to point ------------------------------------------------------

    @abc.abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-semantics send of a picklable object."""

    @abc.abstractmethod
    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive matching ``(source, tag)``."""

    # -- collectives -----------------------------------------------------------

    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronize all ranks."""

    @abc.abstractmethod
    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object from every rank onto every rank; the returned
        list is indexed by rank."""

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; default implementation over allgather."""
        return self.allgather(obj if self.rank == root else None)[root]

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather to ``root`` (None elsewhere); default over allgather."""
        everything = self.allgather(obj)
        return everything if self.rank == root else None

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce a value across ranks (default: sum for numbers/arrays)."""
        parts = self.allgather(value)
        if op is None:
            acc = parts[0]
            for p in parts[1:]:
                acc = acc + p
            return acc
        acc = parts[0]
        for p in parts[1:]:
            acc = op(acc, p)
        return acc

    def __repr__(self) -> str:
        return f"<{type(self).__name__} rank {self.rank}/{self.size}>"


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload.

    Arrays and objects exposing ``nbytes`` are measured directly (what an
    MPI buffer send would move); lists, tuples and dict values are summed
    recursively, element by element, so the structured wire payloads of
    the parallel drivers — e.g. the support-first candidate batch's ``(words,
    pair_i, pair_j)`` allgather tuple, or a dict of named array parts — are
    measured by their array contents rather than a whole-container
    pickle.  Everything else is
    measured by pickling — exactly what the in-process backends (and
    mpi4py's lower-case API) would serialize.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    nb = getattr(obj, "nbytes", None)
    if callable(nb):
        return int(nb())
    if isinstance(nb, (int, np.integer)):
        return int(nb)
    if isinstance(obj, (list, tuple)):
        return int(sum(payload_nbytes(x) for x in obj))
    if isinstance(obj, dict):
        # Keys are metadata (short strings); the payload is the values.
        return int(sum(payload_nbytes(v) for v in obj.values()))
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable payloads are caller bugs
        return 0


def check_same_value(comm: Communicator, value: Any, *, what: str) -> None:
    """Debugging collective: assert all ranks hold an equal ``value``."""
    everything = comm.allgather(value)
    for r, v in enumerate(everything):
        same = v == everything[0]
        if isinstance(same, np.ndarray):
            same = bool(same.all())
        if not same:
            raise CommunicatorError(
                f"ranks diverged on {what}: rank 0 has {everything[0]!r}, "
                f"rank {r} has {v!r}"
            )


def partition_evenly(n_items: int, size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shares of ``n_items`` for each rank."""
    base, extra = divmod(n_items, size)
    out: list[tuple[int, int]] = []
    start = 0
    for r in range(size):
        stop = start + base + (1 if r < extra else 0)
        out.append((start, stop))
        start = stop
    return out


def ranks_of(seq: Sequence[Any]) -> range:
    """Convenience: ``range(len(seq))`` with intent."""
    return range(len(seq))
