"""Tests for the combined parallel Nullspace Algorithm (Algorithm 3)."""

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel
from repro.core.kernel import build_problem
from repro.core.serial import nullspace_algorithm
from repro.dnc.combined import combined_parallel, prepare_subset, solve_subset
from repro.dnc.subsets import SubsetSpec
from repro.errors import PartitionError
from repro.models.generators import random_network
from repro.network.compression import compress_network
from repro.network.parser import network_from_equations
from tests.conftest import assert_same_modes


class TestToyPartition:
    def test_union_equals_serial(self, toy_record, toy_problem):
        run = combined_parallel(toy_record.reduced, ("r6r", "r8r"), 2)
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())

    def test_subsets_disjoint(self, toy_record):
        run = combined_parallel(toy_record.reduced, ("r6r", "r8r"), 1)
        j6 = toy_record.reduced.reaction_index("r6r")
        j8 = toy_record.reduced.reaction_index("r8r")
        for s in run.subsets:
            for row in s.efms:
                assert (abs(row[j6]) > 1e-9) == ("r6r" in s.spec.nonzero)
                assert (abs(row[j8]) > 1e-9) == ("r8r" in s.spec.nonzero)

    def test_single_reaction_partition(self, toy_record, toy_problem):
        run = combined_parallel(toy_record.reduced, ("r8r",), 1)
        assert len(run.subsets) == 2
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())

    def test_irreversible_partition_reaction(self, toy_record, toy_problem):
        # Partitioning across an irreversible reaction must filter by sign.
        run = combined_parallel(toy_record.reduced, ("r7",), 1)
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())

    def test_three_reaction_partition(self, toy_record, toy_problem):
        run = combined_parallel(toy_record.reduced, ("r7", "r6r", "r8r"), 1)
        assert len(run.subsets) == 8
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())


class TestRandomNetworks:
    @pytest.mark.parametrize("seed", range(8))
    def test_union_invariant(self, seed):
        net = random_network(5, 9, seed=seed, reversible_fraction=0.3)
        rec = compress_network(net)
        red = rec.reduced
        if red.n_reactions < 4:
            pytest.skip("over-compressed instance")
        serial = nullspace_algorithm(build_problem(red))
        partition = red.reaction_names[-2:]
        run = combined_parallel(red, partition, 2)
        assert_same_modes(serial.efms_input_order(), run.efms())


class TestSubsetMechanics:
    def test_empty_subset_graceful(self, toy_record):
        # Zeroing r1 and r5 cuts all glucose input paths in some subsets.
        run = combined_parallel(toy_record.reduced, ("r1", "r5"), 1)
        total = sum(s.n_efms for s in run.subsets)
        assert total == 8  # union still complete

    def test_trivial_nullspace_subset_is_empty(self):
        # Zeroing r2 of the chain => A => B => leaves a stoichiometry of
        # full column rank: no flux is possible, so the subset is empty.
        net = network_from_equations(
            "chain", ["r1 : => A", "r2 : A => B", "r3 : B =>"]
        )
        spec = SubsetSpec(subset_id=0, partition=("r2",))
        assert spec.zero == ("r2",)
        assert prepare_subset(net, spec).problem is None
        result = solve_subset(net, spec, 1)
        assert result.completed
        assert result.n_efms == 0
        run = combined_parallel(net, ("r2",), 1)
        assert [s.n_efms for s in run.subsets] == [0, 1]

    def test_solve_subset_reports_candidates(self, toy_record):
        spec = SubsetSpec(subset_id=3, partition=("r6r", "r8r"))
        result = solve_subset(toy_record.reduced, spec, 1)
        assert result.completed
        assert result.n_candidates >= 0
        assert result.wall_time > 0

    def test_oom_captured_not_raised(self, toy_record):
        spec = SubsetSpec(subset_id=0, partition=("r6r", "r8r"))
        result = solve_subset(
            toy_record.reduced, spec, 1,
            memory_model=MemoryModel(capacity_bytes=4),
        )
        assert not result.completed
        assert result.oom is not None
        assert result.n_efms == 0

    def test_unknown_partition_reaction(self, toy_record):
        with pytest.raises(PartitionError):
            combined_parallel(toy_record.reduced, ("bogus",), 1)

    def test_subset_ids_filter(self, toy_record):
        run = combined_parallel(
            toy_record.reduced, ("r6r", "r8r"), 1, subset_ids=[0, 3]
        )
        assert [s.spec.subset_id for s in run.subsets] == [0, 3]
        assert run.n_efms == 4  # two of the four 2-mode subsets

    def test_incomplete_union_raises(self, toy_record):
        run = combined_parallel(
            toy_record.reduced, ("r6r", "r8r"), 1,
            memory_model=MemoryModel(capacity_bytes=4),
        )
        assert not run.complete
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError):
            run.efms()

    def test_candidate_counts_sum(self, toy_record):
        run = combined_parallel(toy_record.reduced, ("r6r", "r8r"), 1)
        assert run.total_candidates == sum(s.n_candidates for s in run.subsets)
