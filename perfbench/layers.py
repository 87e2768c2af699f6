"""Outside-in layer trace: spans around calls into each layer's public
functions, plus counters read from the result objects those calls return.

``install()`` replaces each function at the module (or class) attribute
its caller resolves with a wrapper that records a span ``[name, start,
end, parent, raised]``; spans stay in memory until the sample ends.
Nothing inside the program changes.  Work done in forked rank processes
(``backend="process"``) is invisible to the wrappers; its counters come
from the per-rank ``RunStats`` the driver returns.

``layer_metrics()`` turns one traced call into the per-layer metrics that
BENCHMARK.json lists; a layer the workload does not cross reads 0.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, class or None, attribute, span name, keep the return value)
WRAPS = (
    ("repro.efm.api", None, "compress_network", "network.compress", False),
    ("repro.efm.api", None, "select_partition_reactions", "dnc.select_partition", False),
    ("repro.efm.api", None, "combined_parallel", "dnc.combined", True),
    ("repro.efm.api", None, "build_problem", "core.kernel.build", False),
    ("repro.efm.api", None, "nullspace_algorithm", "core.iterate", False),
    ("repro.efm.api", None, "combinatorial_parallel", "core.iterate", True),
    ("repro.dnc.combined", None, "prepare_subset", "dnc.prepare_subset", False),
    ("repro.dnc.combined", None, "build_problem", "core.kernel.build", False),
    ("repro.dnc.combined", None, "combinatorial_parallel", "dnc.subset_iterate", False),
    ("repro.dnc.combined", "PreparedSubset", "finalize", "dnc.finalize", False),
    ("repro.core.serial", None, "rank_test", "core.rank_test", False),
    ("repro.core.iterstream", None, "rank_test", "core.rank_test", False),
    ("repro.network.compression", "CompressionRecord", "expand_fluxes", "efm.expand", False),
    ("repro.core.serial", "NullspaceResult", "efms_input_order", "efm.input_order", False),
    ("repro.efm.splitting", "SplitRecord", "fold_modes", "efm.fold_splits", False),
    ("repro.efm.result", "EFMResult", "canonical", "efm.canonical", False),
)

ROOT = "compute_efms"

#: every per-layer metric and its unit; ``sample.py`` adds ``run.cpu_s`` and
#: ``mpi.rank_peak_rss_mb``, ``run.py`` adds ``trace.overhead_frac``
UNITS = {
    "network.compress_s": "s",
    "dnc.select_partition_s": "s",
    "dnc.prepare_subset_s": "s",
    "dnc.prepare_subset_calls": "count",
    "dnc.subset_iterate_s": "s",
    "dnc.finalize_s": "s",
    "dnc.subset_wall_p50_s": "s",
    "dnc.subset_wall_max_s": "s",
    "dnc.total_candidates": "count",
    "core.kernel.build_s": "s",
    "core.kernel.build_calls": "count",
    "core.kernel.build_failed": "count",
    "core.kernel.build_useful_ratio": "ratio",
    "core.iterate_s": "s",
    "core.gen_cand_s": "s",
    "core.rank_test_s": "s",
    "core.rank_test_calls": "count",
    "core.merge_s": "s",
    "core.candidates": "count",
    "core.rank_tests": "count",
    "core.accept_ratio": "ratio",
    "core.prefilter_kept_ratio": "ratio",
    "core.duplicates": "count",
    "core.peak_mode_bytes": "bytes",
    "linalg.rank_cache_hit_ratio": "ratio",
    "linalg.rank_fallbacks": "count",
    "linalg.prefix_reused_cols": "count",
    "mpi.communicate_s": "s",
    "mpi.bytes_sent": "bytes",
    "mpi.messages_sent": "count",
    "mpi.wire_bytes_sent": "bytes",
    "mpi.rank_peak_rss_mb": "MB",
    "parallel.rank_imbalance": "ratio",
    "engine.schedule_s": "s",
    "efm.expand_s": "s",
    "efm.input_order_s": "s",
    "efm.fold_splits_s": "s",
    "efm.canonical_s": "s",
    "run.cpu_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.returned: dict[str, list] = {}

    def call(self, name: str, fn, *args, keep: bool = False, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, False]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span[4] = True
            raise
        finally:
            self.stack.pop()
            span[2] = time.perf_counter()
        if keep:
            self.returned.setdefault(name, []).append(out)
        return out

    def install(self) -> "Tracer":
        for module, cls, attr, name, keep in WRAPS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)

            def wrapper(*args, _orig=orig, _name=name, _keep=keep, **kwargs):
                return self.call(_name, _orig, *args, keep=_keep, **kwargs)

            setattr(owner, attr, functools.update_wrapper(wrapper, orig))
        return self

    # -- reading the spans ---------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def count(self, name: str, *, raised: bool | None = None) -> int:
        return sum(
            1 for s in self.spans if s[0] == name and (raised is None or s[4] == raised)
        )

    def coverage(self) -> float:
        """Time in the root's direct child spans / root span time."""
        roots = [i for i, s in enumerate(self.spans) if s[0] == ROOT]
        if not roots:
            return 0.0
        r = roots[0]
        wall = self.spans[r][2] - self.spans[r][1]
        covered = sum(s[2] - s[1] for s in self.spans if s[3] == r)
        return covered / wall if wall > 0 else 0.0


def _sum(stats_list, attr: str):
    return sum(getattr(s, attr) for s in stats_list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result) -> dict[str, float]:
    """Per-layer metrics of one traced ``compute_efms`` call."""
    m: dict[str, float] = {}
    combined = tracer.returned.get("dnc.combined", [])
    parallel = tracer.returned.get("core.iterate", [])
    run = combined[-1] if combined else None

    if run is not None:
        stats = [s.stats for s in run.subsets if s.stats is not None]
        walls = sorted(s.wall_time for s in run.subsets)
    else:
        stats = [result.stats] if result.stats is not None else []
        walls = []

    m["network.compress_s"] = tracer.total("network.compress")

    m["dnc.select_partition_s"] = tracer.total("dnc.select_partition")
    m["dnc.prepare_subset_s"] = tracer.total("dnc.prepare_subset")
    m["dnc.prepare_subset_calls"] = tracer.count("dnc.prepare_subset")
    m["dnc.subset_iterate_s"] = tracer.total("dnc.subset_iterate")
    m["dnc.finalize_s"] = tracer.total("dnc.finalize")
    m["dnc.subset_wall_p50_s"] = walls[(len(walls) - 1) // 2] if walls else 0.0
    m["dnc.subset_wall_max_s"] = walls[-1] if walls else 0.0
    m["dnc.total_candidates"] = run.total_candidates if run is not None else 0

    builds = tracer.count("core.kernel.build")
    failed = tracer.count("core.kernel.build", raised=True)
    m["core.kernel.build_s"] = tracer.total("core.kernel.build")
    m["core.kernel.build_calls"] = builds
    m["core.kernel.build_failed"] = failed
    m["core.kernel.build_useful_ratio"] = _ratio(builds - failed, builds)

    its = [it for s in stats for it in s.iterations]
    n_pairs = sum(it.n_pairs for it in its)
    n_tested = sum(it.n_tested for it in its)
    m["core.iterate_s"] = tracer.total("core.iterate") + tracer.total("dnc.subset_iterate")
    m["core.gen_cand_s"] = _sum(stats, "t_gen_cand")
    m["core.rank_test_s"] = _sum(stats, "t_rank_test")
    m["core.rank_test_calls"] = tracer.count("core.rank_test")
    m["core.merge_s"] = _sum(stats, "t_merge")
    m["core.candidates"] = n_pairs
    m["core.rank_tests"] = n_tested
    m["core.accept_ratio"] = _ratio(sum(it.n_accepted for it in its), n_tested)
    m["core.prefilter_kept_ratio"] = _ratio(sum(it.n_prefilter_kept for it in its), n_pairs)
    m["core.duplicates"] = sum(it.n_duplicates for it in its)
    m["core.peak_mode_bytes"] = max((s.peak_mode_bytes for s in stats), default=0)

    m["linalg.rank_cache_hit_ratio"] = _ratio(
        sum(it.n_rank_cache_hits for it in its), n_tested
    )
    m["linalg.rank_fallbacks"] = sum(it.n_rank_fallback for it in its)
    m["linalg.prefix_reused_cols"] = sum(it.n_prefix_reused_cols for it in its)

    prun = parallel[-1] if parallel and len(parallel[-1].rank_stats) > 1 else None
    if prun is not None:
        r0 = prun.rank_stats[0]
        busy = [s.t_gen_cand + s.t_rank_test for s in prun.rank_stats]
        m["mpi.communicate_s"] = prun.stats.t_communicate
        m["mpi.bytes_sent"] = r0.bytes_sent
        m["mpi.messages_sent"] = r0.messages_sent
        m["mpi.wire_bytes_sent"] = r0.wire_bytes_sent
        m["parallel.rank_imbalance"] = _ratio(max(busy), sum(busy) / len(busy))
    else:
        for key in ("mpi.communicate_s", "mpi.bytes_sent", "mpi.messages_sent",
                    "mpi.wire_bytes_sent", "parallel.rank_imbalance"):
            m[key] = 0

    m["engine.schedule_s"] = (
        tracer.total("dnc.combined") - run.total_wall_time if run is not None else 0.0
    )
    m["efm.expand_s"] = tracer.total("efm.expand")
    m["efm.input_order_s"] = tracer.total("efm.input_order")
    m["efm.fold_splits_s"] = tracer.total("efm.fold_splits")
    m["efm.canonical_s"] = tracer.total("efm.canonical")
    m["trace.coverage"] = tracer.coverage()
    return m
