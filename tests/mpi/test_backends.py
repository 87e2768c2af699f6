"""Cross-backend tests for the message-passing substrate."""

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.errors import CommunicatorError
from repro.mpi.spmd import get_engine, run_spmd

BACKENDS = ("sequential", "thread", "process")


# Module-level SPMD bodies (the process backend requires picklables).

def _job_allgather(comm, base):
    return comm.allgather(comm.rank * base)


def _job_ring(comm):
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    comm.send(f"from-{comm.rank}", dest, tag=5)
    return comm.recv(src, tag=5)


def _job_barrier_order(comm):
    for _ in range(3):
        comm.barrier()
    return comm.rank


def _job_bcast(comm):
    return comm.bcast("payload" if comm.rank == 1 else None, root=1)


def _job_gather(comm):
    return comm.gather(comm.rank ** 2, root=0)


def _job_allreduce(comm):
    return comm.allreduce(comm.rank + 1)


def _job_numpy(comm):
    data = np.full(100, comm.rank, dtype=np.int64)
    parts = comm.allgather(data)
    return int(sum(p.sum() for p in parts))


def _job_no_aliasing(comm):
    data = np.zeros(4)
    parts = comm.allgather(data)
    peer = (comm.rank + 1) % comm.size
    parts[peer][:] = 99.0  # a received buffer must never reach the sender
    again = comm.allgather(data)
    return float(again[peer].sum())


def _job_tag_matching(comm):
    if comm.rank == 0:
        comm.send("b", 1, tag=2)
        comm.send("a", 1, tag=1)
    if comm.rank == 1:
        first = comm.recv(0, tag=1)  # out of arrival order
        second = comm.recv(0, tag=2)
        return first, second
    return None


def _job_fails_on_rank(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.barrier()
    return comm.rank


@pytest.mark.parametrize("backend", BACKENDS)
class TestCollectives:
    def test_allgather(self, backend):
        outs = run_spmd(_job_allgather, 4, backend=backend, args=(10,))
        assert all(o == [0, 10, 20, 30] for o in outs)

    def test_ring_send_recv(self, backend):
        outs = run_spmd(_job_ring, 4, backend=backend)
        assert outs == [f"from-{(r - 1) % 4}" for r in range(4)]

    def test_repeated_barriers(self, backend):
        assert run_spmd(_job_barrier_order, 3, backend=backend) == [0, 1, 2]

    def test_bcast(self, backend):
        assert run_spmd(_job_bcast, 3, backend=backend) == ["payload"] * 3

    def test_gather(self, backend):
        outs = run_spmd(_job_gather, 3, backend=backend)
        assert outs[0] == [0, 1, 4]
        assert outs[1] is None and outs[2] is None

    def test_allreduce_default_sum(self, backend):
        assert run_spmd(_job_allreduce, 4, backend=backend) == [10] * 4

    def test_numpy_payloads(self, backend):
        outs = run_spmd(_job_numpy, 3, backend=backend)
        assert outs == [300] * 3  # 0*100 + 1*100 + 2*100

    def test_tag_matching_out_of_order(self, backend):
        outs = run_spmd(_job_tag_matching, 2, backend=backend)
        assert outs[1] == ("a", "b")

    def test_single_rank(self, backend):
        outs = run_spmd(_job_allgather, 1, backend=backend, args=(5,))
        assert outs == [[0]]


@pytest.mark.parametrize("backend", BACKENDS)
class TestIsolation:
    def test_pickle_copies_do_not_leak(self, backend):
        outs = run_spmd(_job_no_aliasing, 3, backend=backend)
        # Received buffers are private writable copies.
        assert outs == [0.0] * 3


@pytest.mark.parametrize("backend", BACKENDS)
class TestErrors:
    def test_rank_failure_propagates(self, backend):
        with pytest.raises((ValueError, CommunicatorError)):
            run_spmd(_job_fails_on_rank, 3, backend=backend)


_ISOLATED_TIMEOUT_S = 60


def _run_isolated(script: str) -> str:
    """Run ``script`` in a fresh interpreter and return its stdout.

    A hang fails the test after :data:`_ISOLATED_TIMEOUT_S` instead of
    stalling the suite; the child gets its own session so the rank
    processes it forks are killed with it.
    """
    env = dict(os.environ)
    env.pop("REPRO_COMM_TIMEOUT_S", None)  # exercise the default timeout
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=_ISOLATED_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"hung for more than {_ISOLATED_TIMEOUT_S}s")
    assert proc.returncode == 0, err
    return out


_LARGE_ALLGATHER = """
import numpy as np
from repro.mpi.spmd import run_spmd

N = {n}

def job(comm):
    parts = comm.allgather(np.full(N, float(comm.rank)))
    return [(p.shape, float(p.min()), float(p.max())) for p in parts]

outs = run_spmd(job, {size}, backend="process")
expected = [((N,), float(r), float(r)) for r in range({size})]
assert outs == [expected] * {size}, outs
print("ok")
"""

_KILLED_RANK = """
import os, signal, time
from repro.errors import CommunicatorError
from repro.mpi.process import ProcessEngine

def job(comm):
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return comm.allgather(comm.rank)

t0 = time.monotonic()
try:
    ProcessEngine().run(job, 2)
except CommunicatorError as exc:
    print(time.monotonic() - t0)
    print(exc)
"""


class TestProcessTransport:
    @pytest.mark.parametrize("size", (2, 3, 5))
    def test_large_allgather_completes(self, size):
        # 2 MiB of float64 per rank: far beyond a pipe buffer, so every
        # hop blocks until its neighbor drains the pipe.
        out = _run_isolated(_LARGE_ALLGATHER.format(n=1 << 18, size=size))
        assert out.strip() == "ok"

    def test_killed_rank_fails_fast(self):
        lines = _run_isolated(_KILLED_RANK).splitlines()
        assert len(lines) == 2, lines
        assert float(lines[0]) < 30.0
        assert "rank 1 exited with code -9" in lines[1]


class TestSequentialDeterminism:
    def test_root_cause_preserved(self):
        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(_job_fails_on_rank, 3, backend="sequential")


class TestEngineFactory:
    def test_unknown_backend(self):
        with pytest.raises(CommunicatorError):
            get_engine("smoke-signals")

    def test_zero_ranks(self):
        with pytest.raises(CommunicatorError):
            run_spmd(_job_allgather, 0, args=(1,))

    def test_names(self):
        for b in BACKENDS:
            assert get_engine(b).name == b
