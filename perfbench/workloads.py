"""The benchmark's workloads and its seeded input generator.

Each workload is one ``repro.compute_efms`` call with default
``AlgorithmOptions``; README.md records why each one exists.  The program
receives only the generated ``MetabolicNetwork``.

Inputs are a *panel*: run seed ``s`` measures inputs ``(s, 0)``, ``(s, 1)``,
... in turn, one per fresh-interpreter sample.  Input ``(s, i)`` is the
published model with its metabolites shuffled and its reactions locally
shuffled -- a reaction trades places only with near neighbours -- by a
generator seeded from ``(s, i)``; input ``(0, 0)`` is the published order.  A
reordering leaves the EFM set unchanged (as reaction-name-keyed modes)
while it moves the work: kernel pivots, the D&C partition picked by
``partition_method="tail"``, candidate counts.  A full reaction shuffle
moves it too far for one run to be comparable with the next: some full
shuffles make the serial run 3x slower than others (README.md).

This module imports nothing from ``repro`` at import time, so a sample can
start its set-up clock before the program is imported.
"""

from __future__ import annotations

import dataclasses
import random


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    network: str
    kwargs: dict
    expected_efms: int
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Runnable by hand but not listed in BENCHMARK.json: the runs for
        # three workloads do not fit the time limit at 60 s each, and
        # ``allgather-y2-p2`` measures the same iteration core (README.md).
        Workload(
            name="serial-y2",
            network="yeast-II-small",
            kwargs={"method": "serial"},
            expected_efms=7331,
            why="serial Algorithm 1 on the largest mode matrix; the iteration "
            "core (generation, dedup, rank test) dominates",
        ),
        Workload(
            name="dnc-y1-q5",
            network="yeast-I-small",
            kwargs={"method": "combined", "partition": 5, "executor": "inline"},
            expected_efms=530,
            why="Algorithm 3 with 2^5 subsets on the inline executor; "
            "per-subset kernel build dominates",
        ),
        Workload(
            name="allgather-y2-p2",
            network="yeast-II-small",
            kwargs={"method": "parallel", "n_ranks": 2, "backend": "process"},
            expected_efms=7331,
            why="Algorithm 2 on 2 forked ranks over the largest mode matrix; "
            "carries the iteration core and is the only workload that crosses "
            "the shared-memory allgather and wire protocol",
        ),
    )
}


#: reactions ``DISPLACEMENT`` or more places apart keep their relative order
DISPLACEMENT = 2


def build_input(workload: Workload, seed: int, index: int):
    """The generated network for panel input ``(seed, index)``."""
    from repro import MetabolicNetwork, get_network  # noqa: PLC0415

    published = get_network(workload.network)
    if seed == 0 and index == 0:
        return published
    rng = random.Random(f"perfbench:{seed}:{index}")
    metabolites = list(published.metabolites)
    reactions = list(published.reactions)
    rng.shuffle(metabolites)
    keys = [j + rng.uniform(0, DISPLACEMENT) for j in range(len(reactions))]
    reactions = [r for _, r in sorted(zip(keys, reactions), key=lambda t: t[0])]
    return MetabolicNetwork(published.name, metabolites, reactions)
