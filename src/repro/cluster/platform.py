"""HPC platform models: Blue Gene/P and "Calhoun" (SGI Altix XE 1300).

The paper ran on physical machines this reproduction does not have; the
algorithm's *work* (candidate pairs, rank tests, bytes exchanged) is
measured exactly, and these specs convert work into modeled seconds so the
benchmark tables have the same columns and the same qualitative shape as
Tables II–IV.  The per-operation throughput constants are calibrated from
the paper's own Table II (Network I, 1 core: 159.6e9 candidates in 2744.76
s of generation → ~58.1e6 pairs/s/core on the 2.66 GHz Clovertown) so the
modeled single-core time of the full Network I run reproduces the paper's
number by construction, and everything else follows from measured counts.

§IV of the paper describes both machines in detail; the numbers below are
taken from that section.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ReproError
from repro.mpi.tracing import CommTrace


@dataclasses.dataclass(frozen=True)
class PlatformSpec:
    """A distributed-memory platform for modeled timing.

    Parameters
    ----------
    name:
        Display name.
    cores_per_node, memory_per_node:
        Node shape; ``memory_per_node`` in bytes.
    pair_rate:
        Candidate pairs generated+prefiltered per second per core.
    ranktest_rate:
        Algebraic rank tests per second per core.
    merge_rate:
        Candidate modes merged (sorted/deduplicated) per second per core.
    latency, bandwidth:
        Per-message interconnect latency (s) and per-rank bandwidth (B/s).
    """

    name: str
    cores_per_node: int
    memory_per_node: int
    pair_rate: float
    ranktest_rate: float
    merge_rate: float
    latency: float
    bandwidth: float

    def memory_per_core(self, cores_used_per_node: int | None = None) -> int:
        cores = cores_used_per_node or self.cores_per_node
        if not (1 <= cores <= self.cores_per_node):
            raise ReproError(
                f"{self.name} nodes have {self.cores_per_node} cores; "
                f"cannot use {cores}"
            )
        return self.memory_per_node // cores

    # -- modeled phase times ---------------------------------------------------

    def t_gen_cand(self, n_pairs: int) -> float:
        """Modeled candidate-generation seconds for one core's pair share."""
        return n_pairs / self.pair_rate

    def t_rank_test(self, n_tests: int) -> float:
        return n_tests / self.ranktest_rate

    def t_merge(self, n_modes: int) -> float:
        return n_modes / self.merge_rate

    def t_communicate(self, trace: CommTrace) -> float:
        """Replay a communication trace: latency per message plus bytes over
        per-rank bandwidth.  When the trace carries measured wire sizes
        (the pickle blobs the backends produce), those are replayed — true
        serialized volume, one copy per peer for collectives; traces
        without measurements fall back to the logical payload sizes, so
        hand-built traces model as before."""
        return trace.n_messages * self.latency + (
            trace.modeled_bytes_sent + trace.modeled_bytes_received
        ) / self.bandwidth

    def t_communicate_bytes(self, n_messages: int, n_bytes: int) -> float:
        return n_messages * self.latency + n_bytes / self.bandwidth


#: "Calhoun": SGI Altix XE 1300, 256 nodes x 2 quad-core 2.66 GHz Intel Xeon
#: "Clovertown", 16 GB/node, 20 Gbit non-blocking InfiniBand (§IV).
#: pair_rate calibrated from Table II (see module docstring); rank-test and
#: merge rates calibrated from the same table's 1-core rank-test (112.88 s)
#: and 16-core merge rows.
CALHOUN = PlatformSpec(
    name="calhoun",
    cores_per_node=8,
    memory_per_node=16 * 1024**3,
    pair_rate=58.1e6,
    ranktest_rate=6.0e5,
    merge_rate=2.0e7,
    latency=4e-6,
    bandwidth=2.0e9,  # ~20 Gbit/s effective per rank
)

#: Blue Gene/P: PowerPC 450 quad-core 850 MHz, 4 GB/node, 13.6 GF/chip
#: (§IV).  Per-core rates scaled from Calhoun by the clock ratio
#: (850 MHz / 2.66 GHz ≈ 0.32); the 3-D torus has lower latency and lower
#: per-link bandwidth than Calhoun's InfiniBand fabric.
BLUE_GENE_P = PlatformSpec(
    name="bluegene-p",
    cores_per_node=4,
    memory_per_node=4 * 1024**3,
    pair_rate=18.6e6,
    ranktest_rate=1.9e5,
    merge_rate=6.4e6,
    latency=3e-6,
    bandwidth=0.425e9,  # 3.4 Gbit/s per torus link direction
)

#: Registry for CLI lookups.
PLATFORMS: dict[str, PlatformSpec] = {
    CALHOUN.name: CALHOUN,
    BLUE_GENE_P.name: BLUE_GENE_P,
}


def get_platform(name: str) -> PlatformSpec:
    try:
        return PLATFORMS[name]
    except KeyError:
        raise ReproError(
            f"unknown platform {name!r}; available: {', '.join(PLATFORMS)}"
        ) from None


@dataclasses.dataclass(frozen=True)
class JobShape:
    """How many ranks a job runs and how they map onto nodes.

    Mirrors Table II's header rows ("# nodes / # cores per node / total #
    cores / memory per core") and Blue Gene/P's boot modes: SMP mode = 1
    rank/node (4 GB each), dual mode = 2, virtual-node mode = 4 (1 GB
    each).
    """

    platform: PlatformSpec
    n_nodes: int
    ranks_per_node: int

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node

    @property
    def memory_per_rank(self) -> int:
        return self.platform.memory_per_node // self.ranks_per_node

    def describe(self) -> str:
        gb = self.memory_per_rank / 1024**3
        return (
            f"{self.platform.name}: {self.n_nodes} nodes x {self.ranks_per_node} "
            f"ranks = {self.n_ranks} ranks, {gb:.2g} GB/rank"
        )


def bluegene_smp(n_nodes: int) -> JobShape:
    """Blue Gene/P in symmetric-multiprocessing mode (Table IV's setup:
    256 compute nodes, one rank per node)."""
    return JobShape(BLUE_GENE_P, n_nodes, 1)


def bluegene_vn(n_nodes: int) -> JobShape:
    """Blue Gene/P in virtual-node mode (4 ranks/node, 1 GB each)."""
    return JobShape(BLUE_GENE_P, n_nodes, 4)
