"""Parity suite: the batched and modular rank-test engines vs. the loop
reference.

Both accelerated backends must be pure optimizations —
decision-for-decision identical to the per-candidate loop on every
input: random networks, float and exact policies, reversible and
irreversible rows, degenerate buckets, cold and warm caches, across
divide-and-conquer subproblems sharing one memo, and on the 530-EFM
yeast-I-small pin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AlgorithmOptions, DEFAULT_POLICY
from repro.core.kernel import build_problem
from repro.core.ranktest import rank_test
from repro.core.state import ModeMatrix
from repro.core.stats import IterationStats
from repro.dnc.combined import combined_parallel, shared_rank_cache
from repro.dnc.selection import select_partition_reactions
from repro.efm.api import compute_efms
from repro.linalg import rational
from repro.linalg.batched import (
    CacheBinding,
    RankCache,
    bucketed_ranks,
    problem_token,
)
from repro.linalg.bitset import pack_supports
from repro.models.generators import random_network
from repro.models.registry import get_network
from repro.network.compression import compress_network

from tests.conftest import assert_same_modes


def _candidate_batch(problem, seed: int) -> ModeMatrix:
    """A diverse candidate batch: nullspace combinations (realistic
    supports), plus crafted degenerate rows — a zero row, single-column
    supports, and a dense row that summary rejection must discard."""
    rng = np.random.default_rng(seed)
    q, f = problem.q, problem.n_free
    coeffs = rng.normal(size=(25, f))
    # Sparsify some combinations for small supports.
    coeffs[rng.random(size=coeffs.shape) < 0.5] = 0.0
    vals = coeffs @ problem.kernel.T
    vals[np.abs(vals) < 1e-10] = 0.0
    crafted = np.zeros((3, q))
    crafted[1, rng.integers(q)] = 1.0
    crafted[2, :] = rng.normal(size=q)  # dense: support q > rank + 1
    return ModeMatrix(np.concatenate([vals, crafted], axis=0))


def _problem_for(seed: int):
    from repro.errors import AlgorithmError

    # Some seeds compress to a trivial nullspace; step until one doesn't.
    for attempt in range(seed, seed + 1000, 100):
        net = random_network(
            6 + attempt % 4, 12 + attempt % 5, seed=attempt,
            reversible_fraction=0.4,
        )
        reduced = compress_network(net).reduced
        try:
            return build_problem(reduced)
        except AlgorithmError:
            continue
    raise RuntimeError("no usable random network found")


class TestFloatParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_masks_bit_identical_on_random_networks(self, seed):
        problem = _problem_for(seed)
        cand = _candidate_batch(problem, seed)
        by_loop = rank_test(
            cand, problem.n_perm, problem.rank, backend="loop"
        )
        for backend in ("batched", "modular"):
            mask = rank_test(
                cand, problem.n_perm, problem.rank, backend=backend
            )
            assert np.array_equal(by_loop, mask), backend

    @pytest.mark.parametrize("seed", range(12))
    def test_masks_bit_identical_with_cache(self, seed):
        problem = _problem_for(seed)
        cand = _candidate_batch(problem, seed)
        by_loop = rank_test(
            cand, problem.n_perm, problem.rank, backend="loop"
        )
        for backend in ("batched", "modular"):
            binding = CacheBinding(
                RankCache(),
                problem_token(problem.n_perm, DEFAULT_POLICY, False),
            )
            cold = rank_test(
                cand, problem.n_perm, problem.rank,
                backend=backend, cache=binding,
            )
            warm = rank_test(
                cand, problem.n_perm, problem.rank,
                backend=backend, cache=binding,
            )
            assert np.array_equal(by_loop, cold), backend
            assert np.array_equal(by_loop, warm), backend
            # Second pass served from the memo.
            assert binding.cache.hits > 0, backend

    def test_modular_hits_entries_stored_by_batched(self):
        """The memo is backend-agnostic: entries certified by one backend
        must serve lookups from the other (same keys, same ranks)."""
        problem = _problem_for(5)
        cand = _candidate_batch(problem, 5)
        binding = CacheBinding(
            RankCache(), problem_token(problem.n_perm, DEFAULT_POLICY, False)
        )
        by_batched = rank_test(
            cand, problem.n_perm, problem.rank,
            backend="batched", cache=binding,
        )
        misses_before = binding.cache.misses
        by_modular = rank_test(
            cand, problem.n_perm, problem.rank,
            backend="modular", cache=binding,
        )
        assert np.array_equal(by_batched, by_modular)
        assert binding.cache.misses == misses_before  # every lookup hit
        assert {tag for _, tag in binding.cache._table.values()} == {
            "batched"
        }

    def test_stats_counters_populated(self):
        problem = _problem_for(3)
        cand = _candidate_batch(problem, 3)
        binding = CacheBinding(
            RankCache(), problem_token(problem.n_perm, DEFAULT_POLICY, False)
        )
        it = IterationStats(position=0, reaction="r", reversible=False)
        rank_test(
            cand,
            problem.n_perm,
            problem.rank,
            backend="batched",
            cache=binding,
            stats=it,
        )
        assert it.n_rank_batches >= 1
        assert it.rank_batch_max >= 1
        rank_test(
            cand,
            problem.n_perm,
            problem.rank,
            backend="batched",
            cache=binding,
            stats=it,
        )
        assert it.n_rank_cache_hits > 0


class TestExactParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_masks_bit_identical_exact(self, seed):
        problem = _problem_for(seed)
        n_exact = rational.from_numpy(problem.n_perm)
        cand = _candidate_batch(problem, seed)
        by_loop = rank_test(
            cand, problem.n_perm, problem.rank, n_exact=n_exact, backend="loop"
        )
        for backend in ("batched", "modular"):
            mask = rank_test(
                cand,
                problem.n_perm,
                problem.rank,
                n_exact=n_exact,
                backend=backend,
            )
            assert np.array_equal(by_loop, mask), backend

    def test_exact_cache_hits_agree(self):
        problem = _problem_for(1)
        n_exact = rational.from_numpy(problem.n_perm)
        cand = _candidate_batch(problem, 1)
        binding = CacheBinding(
            RankCache(), problem_token(problem.n_perm, DEFAULT_POLICY, True)
        )
        cold = rank_test(
            cand,
            problem.n_perm,
            problem.rank,
            n_exact=n_exact,
            backend="batched",
            cache=binding,
        )
        warm = rank_test(
            cand,
            problem.n_perm,
            problem.rank,
            n_exact=n_exact,
            backend="batched",
            cache=binding,
        )
        assert np.array_equal(cold, warm)
        assert binding.cache.hits > 0


class TestDegenerateBuckets:
    def test_empty_batch(self, toy_problem):
        cand = ModeMatrix.empty(toy_problem.q)
        for backend in ("loop", "batched", "modular"):
            mask = rank_test(
                cand, toy_problem.n_perm, toy_problem.rank, backend=backend
            )
            assert mask.shape == (0,)

    def test_zero_support_row(self, toy_problem):
        cand = ModeMatrix(np.zeros((2, toy_problem.q)))
        for backend in ("loop", "batched", "modular"):
            mask = rank_test(
                cand, toy_problem.n_perm, toy_problem.rank, backend=backend
            )
            assert not mask.any()

    def test_all_summarily_rejected(self, toy_problem):
        dense = np.ones((3, toy_problem.q))
        cand = ModeMatrix(dense)
        binding = CacheBinding(
            RankCache(), problem_token(toy_problem.n_perm, DEFAULT_POLICY, False)
        )
        mask = rank_test(
            cand,
            toy_problem.n_perm,
            toy_problem.rank,
            backend="batched",
            cache=binding,
        )
        assert not mask.any()
        assert len(binding.cache) == 0  # engine never invoked

    def test_single_candidate_bucket(self, toy_problem):
        cand = ModeMatrix(np.array([[0, 2, 0, 1, 0, 0, 0, -1]], dtype=float))
        for backend in ("loop", "batched", "modular"):
            assert rank_test(
                cand, toy_problem.n_perm, toy_problem.rank, backend=backend
            )[0]

    def test_duplicate_supports_one_bucket(self, toy_problem):
        # Same support, different values: one bucket, duplicate cache keys.
        base = np.array([0, 2, 0, 1, 0, 0, 0, -1], dtype=float)
        cand = ModeMatrix(np.stack([base, 2 * base, -base]))
        binding = CacheBinding(
            RankCache(), problem_token(toy_problem.n_perm, DEFAULT_POLICY, False)
        )
        mask = rank_test(
            cand,
            toy_problem.n_perm,
            toy_problem.rank,
            backend="batched",
            cache=binding,
        )
        assert mask.all()


class TestCanonicalCacheKeys:
    """Cross-subproblem sharing: permuted, sign-flipped and duplicated
    columns must address the same memo entries."""

    def _ranks(self, n, mask, binding):
        sizes = mask.sum(axis=0).astype(np.int64)
        words = pack_supports(mask)
        return bucketed_ranks(
            n,
            mask,
            sizes,
            policy=DEFAULT_POLICY,
            words=words,
            cache=binding,
        )

    def test_permuted_and_flipped_columns_hit(self):
        rng = np.random.default_rng(0)
        n = rng.normal(size=(5, 8))
        cache = RankCache()
        token = b"tok"
        ident = CacheBinding(cache, token, np.arange(8))
        mask = rng.random(size=(8, 10)) < 0.4
        r1 = self._ranks(n, mask, ident)

        perm = rng.permutation(8)
        signs = rng.choice([-1.0, 1.0], size=8)
        n2 = n[:, perm] * signs
        binding2 = CacheBinding(cache, token, perm)
        misses_before = cache.misses
        # The same column selections, expressed in the permuted frame.
        inv_mask = mask[perm]
        r2 = self._ranks(n2, inv_mask, binding2)
        assert np.array_equal(r1, r2)
        assert cache.misses == misses_before  # every lookup hit

    def test_split_column_copies_hit(self):
        rng = np.random.default_rng(1)
        n = rng.normal(size=(4, 6))
        cache = RankCache()
        ident = CacheBinding(cache, b"t", np.arange(6))
        mask = np.zeros((6, 2), dtype=bool)
        mask[[0, 2], 0] = True
        mask[[1, 3, 4], 1] = True
        r1 = self._ranks(n, mask, ident)

        # A work network where column 0 was split into fwd/bwd copies:
        # local column 6 is -N[:, 0], canonical id 0.
        n_split = np.concatenate([n, -n[:, [0]]], axis=1)
        binding = CacheBinding(cache, b"t", np.array([0, 1, 2, 3, 4, 5, 0]))
        mask_bwd = np.zeros((7, 2), dtype=bool)
        mask_bwd[[2, 6], 0] = True  # {bwd-copy of 0, 2} == {0, 2}
        mask_bwd[[1, 3, 4], 1] = True
        misses_before = cache.misses
        r2 = self._ranks(n_split, mask_bwd, binding)
        assert np.array_equal(r1, r2)
        assert cache.misses == misses_before


class TestDnCSharedCache:
    def test_two_subproblems_share_entries(self):
        """The memo primed by one subset must serve (and not corrupt) the
        next: a combined run with the shared cache matches the loop
        backend's EFM set exactly, with cross-subproblem hits observed."""
        net = get_network("yeast-I-small")
        reduced = compress_network(net).reduced
        part = select_partition_reactions(
            reduced, 2, method="tail", options=AlgorithmOptions()
        )
        runs = {}
        for backend in ("loop", "batched", "modular"):
            runs[backend] = combined_parallel(
                reduced, part, 1, options=AlgorithmOptions(rank_backend=backend)
            )
        for backend in ("batched", "modular"):
            assert runs["loop"].n_efms == runs[backend].n_efms, backend
            assert_same_modes(runs["loop"].efms(), runs[backend].efms())
            hits = sum(
                s.stats.total_rank_cache_hits
                for s in runs[backend].subsets
                if s.stats is not None
            )
            assert hits > 0, backend
        reused = sum(
            s.stats.total_prefix_reused_cols
            for s in runs["modular"].subsets
            if s.stats is not None
        )
        assert reused > 0  # elimination-prefix sharing actually engaged

    def test_shared_cache_off_for_loop_backend(self):
        net = get_network("toy")
        reduced = compress_network(net).reduced
        assert (
            shared_rank_cache(reduced, AlgorithmOptions(rank_backend="loop"))
            is None
        )
        memo = shared_rank_cache(
            reduced, AlgorithmOptions(rank_backend="modular")
        )
        assert memo is not None and isinstance(memo[0], RankCache)


class TestRegistryEquivalence:
    """Identical EFM sets from all three backends on the registry
    workloads that finish at test speed (the medium variants run in the
    benchmark suite, same assertion)."""

    @pytest.mark.parametrize(
        "name", ["toy", "yeast-I-small", "yeast-II-small"]
    )
    def test_same_efms(self, name):
        net = get_network(name)
        results = {
            be: compute_efms(net, options=AlgorithmOptions(rank_backend=be))
            for be in ("loop", "batched", "modular")
        }
        for be in ("batched", "modular"):
            assert results["loop"].n_efms == results[be].n_efms, be
            assert results["loop"].same_modes_as(results[be]), be

    @pytest.mark.parametrize("backend", ["batched", "modular"])
    @pytest.mark.parametrize("method", ["serial", "parallel", "distributed"])
    def test_methods_agree(self, method, backend):
        net = get_network("yeast-I-small")
        kwargs = {} if method == "serial" else {"n_ranks": 2}
        res = compute_efms(
            net,
            method=method,
            options=AlgorithmOptions(rank_backend=backend),
            **kwargs,
        )
        assert res.n_efms == 530


class TestOptionMatrixParity:
    """The 530-EFM yeast-I-small pin must hold for every backend, with all
    three backends producing the same mode set."""

    def test_yeast_pin_across_backends(self):
        net = get_network("yeast-I-small")
        results = {}
        for be in ("loop", "batched", "modular"):
            opts = AlgorithmOptions(rank_backend=be)
            results[be] = compute_efms(net, options=opts)
            assert results[be].n_efms == 530, be
        for be in ("batched", "modular"):
            assert results["loop"].same_modes_as(results[be]), be
