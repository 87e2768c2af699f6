"""Wire serialization and transport accounting of the message-passing
substrate.

Every backend ships a payload as one ``pickle.HIGHEST_PROTOCOL`` blob,
serialized **once** per message or collective no matter how many peers
receive it; receivers unpickle private, writable copies.  Backends call
:func:`pack_message` / :func:`unpack_message` and account the byte counts
in their :class:`WireCounters`.
"""

from __future__ import annotations

import os
import pickle
from typing import Any

from repro.errors import CommunicatorError


def resolve_timeout(value: float | None = None) -> float:
    """Blocking-receive poll timeout in seconds (``REPRO_COMM_TIMEOUT_S``,
    default 300 — the previously hard-coded process-backend constant)."""
    if value is not None:
        out = float(value)
    else:
        out = float(os.environ.get("REPRO_COMM_TIMEOUT_S", "300"))
    if out <= 0:
        raise CommunicatorError(f"comm timeout must be positive, got {out}")
    return out


class WireCounters:
    """Per-communicator transport accounting, updated by every backend.

    ``ser_bytes``/``n_ser`` measure serialization *work* (bytes produced
    by payload pickles); ``wire_out``/``wire_in`` measure *serialized
    payload* bytes physically moved through the transport (pipe writes,
    slot deposits); ``ctrl_out`` separately counts control-plane bytes
    (barrier tokens, ring forwarding envelopes) that a real MPI allgather
    would not put on the network.
    """

    __slots__ = (
        "n_ser",
        "ser_bytes",
        "wire_out",
        "wire_in",
        "ctrl_out",
        "msgs_out",
        "counts_messages",
    )

    def __init__(self) -> None:
        self.n_ser = 0
        self.ser_bytes = 0
        self.wire_out = 0
        self.wire_in = 0
        self.ctrl_out = 0
        #: transport messages this rank put on the wire; only meaningful
        #: when the backend sets ``counts_messages`` (the process backend
        #: does — simulator backends keep the legacy mesh estimate).
        self.msgs_out = 0
        self.counts_messages = False

    def count_ser(self, nbytes: int) -> None:
        self.n_ser += 1
        self.ser_bytes += int(nbytes)

    def snapshot(self) -> tuple[int, int, int, int, int]:
        """(wire_out, wire_in, ser_bytes, n_ser, msgs_out) — tracing
        takes deltas around an operation to attribute counters to
        events."""
        return (
            self.wire_out,
            self.wire_in,
            self.ser_bytes,
            self.n_ser,
            self.msgs_out,
        )


def pack_message(obj: Any, counters: WireCounters | None = None) -> bytes:
    """Serialize one payload exactly once."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if counters is not None:
        counters.count_ser(len(blob))
    return blob


def unpack_message(blob) -> Any:
    """Deserialize a blob produced by :func:`pack_message`."""
    return pickle.loads(blob)
