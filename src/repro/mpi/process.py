"""Multiprocessing backend: ranks as OS processes with pipe mesh.

The closest in-box substitute for a real MPI job: genuinely separate
address spaces, explicit serialization on every message, and per-process
peak-memory isolation.  On a single-core host this demonstrates semantics
rather than speedup; on multi-core hosts the heavy phases parallelize.

Transport: every pipe message is a pickled blob shipped with
``Connection.send_bytes`` — a payload is serialized **once** no matter how
many peers it goes to.  The hot allgather is a ring — P-1 neighbor hops
that forward each already-serialized blob verbatim, the pattern a real
MPI implementation uses on a network.  Even ranks send before they
receive and odd ranks receive before they send, so no cycle of blocking
sends can form and blobs of any size pass through the bounded pipes.

The SPMD callable and its arguments must be picklable module-level
objects (the same restriction ``mpiexec python script.py`` imposes in
spirit).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing.connection import Connection, wait
from typing import Any

from repro.errors import CommunicatorError
from repro.mpi import wire
from repro.mpi.comm import Communicator

#: Reserved (negative) tags of the collective operations.
_TAG_BARRIER = -1
_TAG_BCAST = -3
_TAG_RING_BASE = -1000  # ring step ``s`` uses tag ``_TAG_RING_BASE - s``


class ProcessCommunicator(Communicator):
    """Rank endpoint over a full pipe mesh."""

    def __init__(
        self,
        rank: int,
        size: int,
        pipes: dict[int, Connection],
        *,
        recv_timeout: float = 300.0,
    ) -> None:
        super().__init__(rank, size)
        self._pipes = pipes  # peer rank -> Connection
        self._stash: list[tuple[int, int, Any]] = []
        self._recv_timeout = float(recv_timeout)
        self.wire.counts_messages = True  # real transport, real counts

    # -- blob plumbing -------------------------------------------------------

    def _pack(self, src: int, tag: int, obj: Any, *, count: bool = True) -> bytes:
        """Serialize one ``(src, tag, payload)`` message exactly once.

        ``count=False`` marks control traffic (barrier tokens, ring
        forwards) whose serialization is not payload work.
        """
        return wire.pack_message((src, tag, obj), self.wire if count else None)

    def _send_raw(self, blob: bytes, dest: int) -> None:
        try:
            self._pipes[dest].send_bytes(blob)
        except KeyError:
            raise CommunicatorError(f"send to invalid rank {dest}") from None
        self.wire.msgs_out += 1

    def _send_blob(self, blob: bytes, dest: int) -> None:
        """Ship a serialized-payload blob (counted on the payload plane)."""
        self._send_raw(blob, dest)
        self.wire.wire_out += len(blob)

    def _send_ctrl(self, blob: bytes, dest: int, *, payload_bytes: int = 0) -> None:
        """Ship a control message; ``payload_bytes`` of it (a
        ring-forwarded blob) count on the payload plane, the envelope on
        the control plane."""
        self._send_raw(blob, dest)
        self.wire.wire_out += payload_bytes
        self.wire.ctrl_out += len(blob) - payload_bytes

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if dest == self.rank:
            self._stash.append((self.rank, tag, obj))
            return
        self._send_blob(self._pack(self.rank, tag, obj), dest)

    def recv(self, source: int, tag: int = 0) -> Any:
        for i, (src, t, obj) in enumerate(self._stash):
            if src == source and t == tag:
                del self._stash[i]
                return obj
        if source == self.rank:
            raise CommunicatorError("self-recv with no matching self-send")
        conn = self._pipes[source]
        while True:
            if not conn.poll(timeout=self._recv_timeout):
                raise CommunicatorError(
                    f"rank {self.rank} timed out receiving from {source} "
                    f"after {self._recv_timeout:g}s"
                )
            raw = conn.recv_bytes()
            self.wire.wire_in += len(raw)
            src, t, obj = wire.unpack_message(raw)
            if src == source and t == tag:
                return obj
            self._stash.append((src, t, obj))

    def barrier(self) -> None:
        # Dissemination barrier over the mesh (log rounds); pure control
        # traffic, packed once and kept off the payload counters.
        blob: bytes | None = None
        round_ = 1
        while round_ < self.size:
            peer_to = (self.rank + round_) % self.size
            peer_from = (self.rank - round_) % self.size
            if blob is None:
                blob = self._pack(self.rank, _TAG_BARRIER, None, count=False)
            self._send_ctrl(blob, peer_to)
            self.recv(peer_from, tag=_TAG_BARRIER)
            round_ <<= 1

    # -- collectives ---------------------------------------------------------

    def allgather(self, obj: Any) -> list[Any]:
        """Ring allgather of pre-serialized blobs.

        P-1 neighbor hops; each rank pickles its payload once and forwards
        received blobs verbatim.  A blocking send completes only once the
        neighbor drains the pipe, so the hop order alternates by rank
        parity: every send of an even rank meets a receiving odd neighbor,
        and the sends of odd ranks follow.  With P odd the last rank and
        rank 0 are both even, which makes a chain, not a cycle.
        """
        if self.size == 1:
            return [obj]
        out: list[Any] = [None] * self.size
        out[self.rank] = obj
        nxt = (self.rank + 1) % self.size
        prv = (self.rank - 1) % self.size
        send_first = self.rank % 2 == 0
        cur = wire.pack_message(obj, self.wire)
        for step in range(1, self.size):
            tag = _TAG_RING_BASE - step
            # The forwarded blob is payload moved; the envelope is not.
            env = self._pack(self.rank, tag, cur, count=False)
            sent = len(cur)
            if send_first:
                self._send_ctrl(env, nxt, payload_bytes=sent)
            cur = self.recv(prv, tag=tag)
            if not send_first:
                self._send_ctrl(env, nxt, payload_bytes=sent)
            out[(self.rank - step) % self.size] = wire.unpack_message(cur)
        return out

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Root-only payload movement: root serializes once and ships the
        blob to each peer; nothing else moves (the allgather-based default
        shipped every non-root rank's ``None`` and root's payload P
        times)."""
        if self.size == 1:
            return obj
        if self.rank == root:
            blob = self._pack(self.rank, _TAG_BCAST, obj)
            for peer in range(self.size):
                if peer != self.rank:
                    self._send_blob(blob, peer)
            return obj
        return self.recv(root, tag=_TAG_BCAST)


def _worker(rank, size, fan, fn, args, kwargs, result_conn, recv_timeout):
    comm = ProcessCommunicator(rank, size, fan, recv_timeout=recv_timeout)
    try:
        result_conn.send(("ok", fn(comm, *args, **kwargs)))
    except BaseException as exc:  # noqa: BLE001 - marshalled to parent
        result_conn.send(("error", repr(exc)))


class ProcessEngine:
    """Launches an SPMD callable across N rank processes."""

    name = "process"

    def __init__(self, *, comm_timeout: float | None = None) -> None:
        self.comm_timeout = wire.resolve_timeout(comm_timeout)

    def run(self, fn, size: int, args: tuple = (), kwargs: dict | None = None) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; returns per-rank
        results.

        The parent waits on the result pipes and the process sentinels
        together, so the first rank that reports an error or exits without
        a result fails the run at once: the surviving ranks are terminated
        and :class:`CommunicatorError` names the failed rank.
        """
        kwargs = kwargs or {}
        ctx = mp.get_context("fork")
        # Full mesh of pipes: mesh[i][j] is i's endpoint to j.
        mesh: list[dict[int, Connection]] = [dict() for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                a, b = ctx.Pipe(duplex=True)
                mesh[i][j] = a
                mesh[j][i] = b
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(size)]
        procs = [
            ctx.Process(
                target=_worker,
                args=(r, size, mesh[r], fn, args, kwargs, result_pipes[r][1],
                      self.comm_timeout),
                name=f"proc-rank-{r}",
            )
            for r in range(size)
        ]
        for p in procs:
            p.start()
        results: list[Any] = [None] * size
        failed: list[str] = []
        waiting = {r: (result_pipes[r][0], procs[r].sentinel) for r in range(size)}
        deadline = time.monotonic() + max(600.0, 2.0 * self.comm_timeout)
        while waiting and not failed:
            handles = [h for pair in waiting.values() for h in pair]
            ready = wait(handles, timeout=max(0.0, deadline - time.monotonic()))
            if not ready:
                failed = [f"rank {r}: timed out" for r in waiting]
                break
            for r, (rx, sentinel) in list(waiting.items()):
                # Poll the pipe even when only the sentinel fired: a rank
                # writes its result before it exits.
                if rx.poll():
                    status, payload = rx.recv()
                    if status == "ok":
                        results[r] = payload
                    else:
                        failed.append(f"rank {r}: {payload}")
                elif sentinel in ready:
                    procs[r].join()
                    failed.append(
                        f"rank {r} exited with code {procs[r].exitcode} "
                        "before returning a result"
                    )
                else:
                    continue
                del waiting[r]
        for p in procs:
            if failed and p.is_alive():
                p.terminate()
            p.join(timeout=30.0)
            if p.is_alive():  # pragma: no cover - stuck worker
                p.kill()
                p.join()
        if failed:
            raise CommunicatorError("; ".join(failed))
        return results
