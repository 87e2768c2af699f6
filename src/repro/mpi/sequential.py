"""Deterministic sequential backend.

Runs the same SPMD callable as the other engines, but schedules the rank
"fibers" one at a time on worker threads guarded by a turn lock: exactly
one rank executes at any instant, and ranks hand the turn over only when
they block in a communication call.  Execution is therefore fully
deterministic (rank 0 runs to its first communication point, then rank 1,
...), which makes failures reproducible — this is the default engine for
tests and for modeled-time benchmark runs, where wall-clock overlap is
irrelevant because the clock is the platform model, not the host.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.errors import CommunicatorError
from repro.mpi import wire
from repro.mpi.comm import Communicator


class _Scheduler:
    """Round-robin turn scheduler over rank threads."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.cv = threading.Condition()
        self.runnable: deque[int] = deque(range(size))
        self.current: int | None = None
        self.done = [False] * size
        self.failed: BaseException | None = None

    def wait_turn(self, rank: int) -> None:
        with self.cv:
            while self.current != rank:
                if self.failed is not None:
                    raise CommunicatorError("another rank failed") from self.failed
                self.cv.wait(timeout=60.0)

    def start(self) -> None:
        with self.cv:
            self.current = self.runnable.popleft() if self.runnable else None
            self.cv.notify_all()

    def yield_turn(self, rank: int, *, finished: bool = False) -> None:
        """Give the turn to the next runnable rank (requeuing this one
        unless finished), then wait to be rescheduled."""
        with self.cv:
            if finished:
                self.done[rank] = True
            else:
                self.runnable.append(rank)
            self.current = self.runnable.popleft() if self.runnable else None
            self.cv.notify_all()
        if not finished:
            self.wait_turn(rank)


class SequentialCommunicator(Communicator):
    """Rank endpoint of the sequential engine."""

    def __init__(self, rank: int, size: int, world: "_World") -> None:
        super().__init__(rank, size)
        self._world = world

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise CommunicatorError(f"send to invalid rank {dest}")
        blob = wire.pack_message(obj, self.wire)
        self.wire.wire_out += len(blob)
        self._world.mail[dest].append((self.rank, tag, blob))

    def recv(self, source: int, tag: int = 0) -> Any:
        world = self._world
        for _ in range(10_000_000):
            box = world.mail[self.rank]
            for i, (src, t, blob) in enumerate(box):
                if src == source and t == tag:
                    del box[i]
                    self.wire.wire_in += len(blob)
                    return wire.unpack_message(blob)
            # Nothing yet: cede the turn so the sender can run.
            world.scheduler.yield_turn(self.rank)
        raise CommunicatorError("recv starved")  # pragma: no cover

    def barrier(self) -> None:
        self._rendezvous("barrier", None)

    def allgather(self, obj: Any) -> list[Any]:
        blob = wire.pack_message(obj, self.wire)
        self.wire.wire_out += len(blob)
        slots = self._rendezvous("allgather", blob)
        out = []
        for r, s in enumerate(slots):
            if r != self.rank:
                self.wire.wire_in += len(s)
            out.append(wire.unpack_message(s))
        return out

    def _rendezvous(self, kind: str, payload: Any) -> list[Any]:
        """Generic collective: deposit a slot, spin (yielding the turn)
        until all ranks of this collective round have deposited."""
        world = self._world
        round_no = world.round_counter[self.rank]
        world.round_counter[self.rank] += 1
        key = (kind, round_no)
        slots = world.collectives.setdefault(key, [None] * self.size)
        deposited = world.deposited.setdefault(key, [False] * self.size)
        slots[self.rank] = payload
        deposited[self.rank] = True
        while not all(deposited):
            world.scheduler.yield_turn(self.rank)
        result = list(slots)
        world.arrived.setdefault(key, set()).add(self.rank)
        if len(world.arrived[key]) == self.size:
            # Last reader cleans up the round.
            del world.collectives[key], world.deposited[key], world.arrived[key]
        return result


class _World:
    def __init__(self, size: int) -> None:
        self.scheduler = _Scheduler(size)
        self.mail: list[list[tuple[int, int, bytes]]] = [[] for _ in range(size)]
        self.collectives: dict[tuple, list[Any]] = {}
        self.deposited: dict[tuple, list[bool]] = {}
        self.arrived: dict[tuple, set[int]] = {}
        self.round_counter = [0] * size


class SequentialEngine:
    """Deterministic one-rank-at-a-time SPMD engine."""

    name = "sequential"

    def __init__(self, *, comm_timeout: float | None = None) -> None:
        self.comm_timeout = wire.resolve_timeout(comm_timeout)

    def run(self, fn, size: int, args: tuple = (), kwargs: dict | None = None) -> list[Any]:
        kwargs = kwargs or {}
        world = _World(size)
        sched = world.scheduler
        results: list[Any] = [None] * size
        errors: list[BaseException | None] = [None] * size

        def worker(rank: int) -> None:
            comm = SequentialCommunicator(rank, size, world)
            try:
                sched.wait_turn(rank)
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                with sched.cv:
                    if sched.failed is None:  # keep the root cause
                        sched.failed = exc
                    sched.cv.notify_all()
            finally:
                if errors[rank] is None:
                    sched.yield_turn(rank, finished=True)

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"seq-rank-{r}", daemon=True)
            for r in range(size)
        ]
        for t in threads:
            t.start()
        sched.start()
        for t in threads:
            t.join(timeout=600.0)
        if sched.failed is not None:
            raise sched.failed  # the root cause, not a secondary stall
        for exc in errors:
            if exc is not None:
                raise exc
        for t in threads:
            if t.is_alive():
                raise CommunicatorError("sequential engine deadlocked")
        return results
