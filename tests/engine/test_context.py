"""RunContext: construction, rank-cache wiring, per-run helpers."""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.memory import MemoryModel
from repro.config import AlgorithmOptions
from repro.engine import RunContext, TraceRecorder
from repro.linalg.batched import CacheBinding, RankCache


class TestEnsure:
    def test_passthrough(self):
        ctx = RunContext()
        assert RunContext.ensure(ctx) is ctx

    def test_built_from_legacy_kwargs(self):
        opts = AlgorithmOptions(rank_backend="loop")
        mm = MemoryModel(capacity_bytes=123)
        ctx = RunContext.ensure(None, options=opts, memory_model=mm)
        assert ctx.options is opts
        assert ctx.memory_model is mm

    def test_context_wins_over_kwargs(self):
        ctx = RunContext(options=AlgorithmOptions(rank_backend="loop"))
        out = RunContext.ensure(ctx, options=AlgorithmOptions())
        assert out is ctx
        assert out.options.rank_backend == "loop"

    def test_checkpoint_path_coerced(self, tmp_path):
        ctx = RunContext(checkpoint_path=str(tmp_path / "run.npz"))
        assert isinstance(ctx.checkpoint_path, Path)


class TestRankBindingFor:
    def test_loop_backend_gets_no_cache(self, toy_problem):
        ctx = RunContext(options=AlgorithmOptions(rank_backend="loop"))
        assert ctx.rank_binding_for(toy_problem) is None

    def test_bittree_gets_no_cache(self, toy_problem):
        ctx = RunContext(options=AlgorithmOptions(acceptance="bittree"))
        assert ctx.rank_binding_for(toy_problem) is None

    def test_default_gets_fresh_private_binding(self, toy_problem):
        # Pin a caching backend: the env-sensitive default may be "loop"
        # on the loop CI leg, which legitimately gets no binding at all.
        ctx = RunContext(options=AlgorithmOptions(rank_backend="modular"))
        a = ctx.rank_binding_for(toy_problem)
        b = ctx.rank_binding_for(toy_problem)
        assert isinstance(a, CacheBinding)
        # Private memos: each run gets its own cache instance.
        assert a.cache is not b.cache

    def test_shared_memo_used_with_col_ids(self, toy_record, toy_problem):
        ctx = RunContext(options=AlgorithmOptions(rank_backend="modular"))
        ctx.bind_shared_rank_memo(toy_record.reduced)
        assert ctx.shared_rank_memo is not None
        col_ids = np.arange(toy_problem.q, dtype=np.int64)
        binding = ctx.rank_binding_for(toy_problem, col_ids)
        assert binding.cache is ctx.shared_rank_memo[0]
        assert binding.col_ids is col_ids

    def test_shared_memo_bypassed_without_col_ids(self, toy_record, toy_problem):
        # Without a canonical column map, raw support words are ambiguous
        # across subproblems — the binding must NOT address the shared memo.
        ctx = RunContext(options=AlgorithmOptions(rank_backend="modular"))
        ctx.bind_shared_rank_memo(toy_record.reduced)
        binding = ctx.rank_binding_for(toy_problem)
        assert binding is not None
        assert binding.cache is not ctx.shared_rank_memo[0]

    def test_bind_shared_memo_noop_for_loop_backend(self, toy_record):
        ctx = RunContext(options=AlgorithmOptions(rank_backend="loop"))
        ctx.bind_shared_rank_memo(toy_record.reduced)
        assert ctx.shared_rank_memo is None


class TestHelpers:
    def test_fresh_memory_is_zeroed_copy(self):
        mm = MemoryModel(capacity_bytes=1000)
        mm.peak_bytes = 555
        ctx = RunContext(memory_model=mm)
        fresh = ctx.fresh_memory()
        assert fresh is not mm
        assert fresh.peak_bytes == 0
        assert fresh.capacity_bytes == 1000

    def test_fresh_memory_none_without_model(self):
        assert RunContext().fresh_memory() is None

    def test_n_exact_only_for_exact_arithmetic(self, toy_problem):
        assert RunContext().n_exact_for(toy_problem) is None
        ctx = RunContext(options=AlgorithmOptions(arithmetic="exact"))
        assert ctx.n_exact_for(toy_problem) is not None

    def test_trace_recorder_follows_options(self, toy_problem):
        assert RunContext().trace_recorder().enabled is False
        ctx = RunContext(options=AlgorithmOptions(record_trace=True))
        rec = ctx.trace_recorder()
        assert rec.enabled is True
        assert rec.snapshots == []

    def test_disabled_recorder_is_noop(self, toy_problem):
        from repro.core.state import ModeMatrix

        rec = TraceRecorder(enabled=False)
        modes = ModeMatrix.from_kernel(toy_problem.kernel)
        rec.capture(0, toy_problem, modes)
        assert rec.snapshots == []

    def test_new_iteration_labels_row(self, toy_problem):
        it = RunContext().new_iteration(toy_problem, toy_problem.first_row)
        assert it.position == toy_problem.first_row
        assert it.reaction == toy_problem.names[toy_problem.first_row]

    def test_collect_appends(self):
        from repro.core.stats import RunStats

        ctx = RunContext()
        ctx.collect(RunStats())
        assert len(ctx.collected_stats) == 1


def test_context_is_picklable(toy_record):
    ctx = RunContext(
        options=AlgorithmOptions(rank_backend="modular"),
        memory_model=MemoryModel(capacity_bytes=4096),
        checkpoint_path="/tmp/x.npz",
    )
    ctx.bind_shared_rank_memo(toy_record.reduced)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone.memory_model.capacity_bytes == 4096
    assert clone.shared_rank_memo is not None
    assert clone.shared_rank_memo[1] == ctx.shared_rank_memo[1]
