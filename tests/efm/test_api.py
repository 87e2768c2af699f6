"""Tests for the high-level compute_efms facade."""

import numpy as np
import pytest

from repro.config import AlgorithmOptions
from repro.efm.api import compute_efms
from repro.errors import AlgorithmError, PartitionError
from repro.models.generators import random_network
from repro.models.toy import TOY_N_EFMS
from repro.network.parser import network_from_equations
from tests.conftest import assert_same_modes, brute_force_efms


class TestMethods:
    @pytest.mark.parametrize("method,ranks", [
        ("serial", 1), ("parallel", 3), ("distributed", 2),
    ])
    def test_methods_agree_on_toy(self, toy, method, ranks):
        base = compute_efms(toy)
        other = compute_efms(toy, method=method, n_ranks=ranks)
        assert base.same_modes_as(other)
        assert other.method == method

    def test_combined_with_names(self, toy):
        base = compute_efms(toy)
        run = compute_efms(toy, method="combined", partition=("r6r", "r8r"))
        assert base.same_modes_as(run)
        assert "subsets" in run.meta

    def test_combined_with_qsub_int(self, toy):
        base = compute_efms(toy)
        run = compute_efms(toy, method="combined", partition=2)
        assert base.same_modes_as(run)
        assert len(run.meta["partition"]) == 2

    def test_combined_without_partition_raises(self, toy):
        with pytest.raises(PartitionError):
            compute_efms(toy, method="combined")

    def test_serial_rejects_multiple_ranks(self, toy):
        with pytest.raises(AlgorithmError):
            compute_efms(toy, n_ranks=4)

    def test_unknown_method(self, toy):
        with pytest.raises(AlgorithmError):
            compute_efms(toy, method="quantum")


class TestCompression:
    def test_compress_false_same_result(self, toy):
        a = compute_efms(toy, compress=True)
        b = compute_efms(toy, compress=False)
        assert a.same_modes_as(b)

    def test_meta_records_compression(self, toy):
        r = compute_efms(toy)
        assert "5x9 -> 4x8" in r.meta["compression"]

    def test_singletons_appended(self):
        # A network whose only mode is resolved during compression.
        net = network_from_equations(
            "chain", ["a : Aext => A", "b : A => B", "c : B => Bext"]
        )
        r = compute_efms(net)
        assert r.n_efms == 1
        assert r.supports()[0].all()  # all three reactions active
        r.validate()

    def test_fully_blocked_network(self):
        net = network_from_equations("dead", ["a : Aext => A", "b : Bext => A"])
        r = compute_efms(net)
        assert r.n_efms == 0


class TestAutoSplit:
    def test_reversible_heavy_network_splits(self):
        net = random_network(4, 8, seed=1001, reversible_fraction=0.8)
        r = compute_efms(net)
        r.validate()
        assert "split" in r.meta

    def test_auto_split_disabled_raises(self):
        from repro.errors import ReversibleIdentityError

        net = random_network(4, 8, seed=1001, reversible_fraction=0.8)
        with pytest.raises(ReversibleIdentityError):
            compute_efms(net, auto_split=False)

    def test_bittree_acceptance_forces_full_split(self, toy):
        base = compute_efms(toy)
        r = compute_efms(toy, options=AlgorithmOptions(acceptance="bittree"))
        assert base.same_modes_as(r)
        assert set(r.meta["split"]) == {"r6r", "r8r"}


class TestOptionMatrix:
    """Every method x acceptance combination on the toy either returns the
    canonical EFM set or is rejected before any work is done."""

    CASES = [
        ("serial", {}),
        ("parallel", {"n_ranks": 3, "pair_strategy": "strided"}),
        ("parallel", {"n_ranks": 3, "pair_strategy": "block"}),
        ("distributed", {"n_ranks": 2}),
        ("combined", {"partition": 2}),
    ]

    @pytest.mark.parametrize("acceptance", ["rank", "bittree", "both"])
    @pytest.mark.parametrize(
        "method,kwargs", CASES,
        ids=["serial", "parallel-strided", "parallel-block", "distributed",
             "combined"],
    )
    def test_runs_or_rejects_up_front(
        self, toy, monkeypatch, method, kwargs, acceptance
    ):
        opts = AlgorithmOptions(acceptance=acceptance)
        if acceptance != "rank" and method in ("combined", "distributed"):
            def no_work(*args, **kw):
                raise AssertionError("work started before the option check")

            monkeypatch.setattr("repro.efm.api.compress_network", no_work)
            with pytest.raises(AlgorithmError, match="'serial' and .*'parallel'"):
                compute_efms(toy, method=method, options=opts, **kwargs)
            return
        r = compute_efms(toy, method=method, options=opts, **kwargs)
        assert r.n_efms == TOY_N_EFMS
        assert_same_modes(brute_force_efms(toy), r.fluxes)

    def test_exact_distributed_rejected_up_front(self, toy, monkeypatch):
        def no_work(*args, **kw):
            raise AssertionError("work started before the option check")

        monkeypatch.setattr("repro.efm.api.compress_network", no_work)
        with pytest.raises(AlgorithmError, match="arithmetic='exact'"):
            compute_efms(
                toy, method="distributed", n_ranks=2,
                options=AlgorithmOptions(arithmetic="exact"),
            )


class TestOutputShape:
    def test_canonical_order(self, toy):
        r = compute_efms(toy)
        assert np.array_equal(r.fluxes, r.canonical().fluxes)

    def test_columns_follow_original_network(self, toy):
        r = compute_efms(toy)
        assert r.fluxes.shape == (8, 9)
        # r9 flux always equals r3 flux (merged pair).
        j3, j9 = toy.reaction_index("r3"), toy.reaction_index("r9")
        assert np.allclose(r.fluxes[:, j3], r.fluxes[:, j9])
