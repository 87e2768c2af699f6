"""Per-node memory accounting for the replicated mode matrix.

The combinatorial parallel Nullspace Algorithm replicates the current mode
matrix on every rank (§IV.B: "requires the storage of the current nullspace
matrix in the local memory across all compute nodes at each step").  This
model charges each rank for that replica — values plus packed supports plus
a transient factor for the iteration's working set — and raises
:class:`~repro.errors.OutOfMemoryError` when the configured capacity is
exceeded, reproducing the paper's Network II failure ("abandoned at the
59th iteration, two iterations before completion") and driving the adaptive
divide-and-conquer splitter.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.state import ModeMatrix
from repro.errors import OutOfMemoryError
from repro.linalg.numeric import kernel_identity_form

if TYPE_CHECKING:  # pragma: no cover
    from repro.dnc.subsets import SubsetSpec
    from repro.network.model import MetabolicNetwork


@dataclasses.dataclass
class MemoryModel:
    """Models one rank's memory budget for mode storage.

    Parameters
    ----------
    capacity_bytes:
        Budget for the replicated mode matrix on one rank.  Pass e.g.
        ``JobShape.memory_per_rank`` (scaled down for tractable benchmark
        networks) or an artificial cap for tests.
    working_factor:
        Multiplier accounting for the iteration's transient allocations
        (candidate chunks, dedup buffers).  The replicated matrix is
        charged at ``working_factor * nbytes``.
    enforcing:
        When False the model only records the peak (dry-run mode).
    """

    capacity_bytes: int
    working_factor: float = 1.5
    enforcing: bool = True
    peak_bytes: int = 0
    last_iteration: int = -1

    def charge(self, iteration: int, modes: ModeMatrix) -> None:
        """Account one iteration's footprint; raises on overflow."""
        need = int(self.working_factor * modes.nbytes())
        self.peak_bytes = max(self.peak_bytes, need)
        self.last_iteration = iteration
        if self.enforcing and need > self.capacity_bytes:
            raise OutOfMemoryError(
                f"replicated mode matrix needs {need} bytes at iteration "
                f"{iteration} but the rank capacity is {self.capacity_bytes}",
                iteration=iteration,
                required_bytes=need,
                capacity_bytes=self.capacity_bytes,
            )

    def check(self, iteration: int, modes: ModeMatrix) -> None:
        """Alias matching the ``memory_check`` callback signature."""
        self.charge(iteration, modes)

    def fresh(self) -> "MemoryModel":
        """A zeroed copy with the same configuration (per-subproblem use)."""
        return MemoryModel(
            capacity_bytes=self.capacity_bytes,
            working_factor=self.working_factor,
            enforcing=self.enforcing,
        )


def estimate_mode_bytes(n_modes: int, q: int) -> int:
    """Closed-form footprint estimate for ``n_modes`` float modes over
    ``q`` reactions (values + packed supports), used by the divide-and-
    conquer planner before a subproblem runs."""
    words = max(1, (q + 63) // 64)
    return n_modes * (8 * q + 8 * words)


def prefilter_working_bytes(q: int, n_pairs: int, chunk_pairs: int) -> int:
    """Transient working-set bytes of one candidate-generation chunk.

    Generation gathers, per pair in a chunk of ``min(n_pairs,
    chunk_pairs)``: the pair-index vectors (4 int64), the ORed support
    words and the prefilter mask — plus, for survivors, the transient
    dense candidate chunk and its canonical support mask and packed words,
    which die with the chunk but exist at the peak.  on_oom="degrade"
    decisions that ignored this undercounted the true peak by exactly
    these buffers.
    """
    words = max(1, (q + 63) // 64)
    chunk = max(0, min(int(n_pairs), int(chunk_pairs)))
    return chunk * (32 + 24 * words + 1 + 8 * q + q + 8 * words)


#: Transient-byte budget of one candidate chunk when
#: ``iter_chunk_bytes="auto"``.  Large enough that per-chunk dispatch
#: overhead stays negligible, small enough that a chunk's dense values
#: never dominate a 4 GB-class node.
DEFAULT_STREAM_CHUNK_BYTES: int = 16 << 20

#: Upper bound on the pairs of one candidate chunk, whatever the budget.
DEFAULT_PAIR_CHUNK: int = 65536


def streaming_chunk_pairs(q: int, iter_chunk_bytes: int | str = "auto") -> int:
    """Pairs per candidate chunk implied by a transient-byte budget.

    The budget (``iter_chunk_bytes``, or :data:`DEFAULT_STREAM_CHUNK_BYTES`
    for ``"auto"``) is divided by the per-pair transient cost of one
    generation chunk (:func:`prefilter_working_bytes` at ``n_pairs=1``:
    pair vectors, gathered words, prefilter mask, the dense candidate row
    and its canonical mask + packed words).  The result is clamped to
    ``[1, DEFAULT_PAIR_CHUNK]``.
    """
    budget = (
        DEFAULT_STREAM_CHUNK_BYTES
        if iter_chunk_bytes == "auto"
        else int(iter_chunk_bytes)
    )
    per_pair = max(1, prefilter_working_bytes(q, 1, 1))
    return max(1, min(DEFAULT_PAIR_CHUNK, budget // per_pair))


def modular_workset_bytes(q: int, rank: int, batch: int) -> int:
    """Transient working-set bytes of one modular rank-kernel batch
    (:mod:`repro.linalg.modular`).

    The kernel answers nullity queries in complement form against a
    ``(d, q)`` basis panel, ``d = q - rank``: per batch it holds the
    gathered complement stack plus one transposed elimination copy
    (``batch * d * w`` float64 each, ``w ≈ d`` complement members after
    padding), the phase-A class snapshots (bounded by the per-candidate
    states), the padded member-index matrix, and the basis panel with one
    residue image.  Small next to the mode matrix, but the scheduler's
    admission model should still see it.
    """
    d = max(1, int(q) - int(rank))
    w = d + 1  # padded complement width: |S̄| ≤ d - 1, plus slack
    b = max(0, int(batch))
    stack = b * d * w * 8 * 2  # gathered stack + transposed copy
    snapshots = b * d * q * 8  # phase-A class states, ≤ one per candidate
    indices = b * w * 8
    basis = d * q * 8 * 2  # float panel + one residue image
    return stack + snapshots + indices + basis


def candidate_row_bytes(q: int) -> int:
    """Retained bytes per candidate between generation and acceptance:
    the packed support words plus two int64 pair indices (dense values
    and combination coefficients are rebuilt at materialization, not
    stored) — for realistic ``q`` over an order of magnitude less than a
    dense mode row."""
    words = max(1, (q + 63) // 64)
    return 8 * words + 16


def _pair_trajectory_ratio(n: np.ndarray, reversible: np.ndarray) -> float:
    """Peak pair-count ratio of dynamic greedy selection vs the static
    paper order, on the *no-growth surrogate*.

    Both orders are simulated on the initial kernel's sign pattern alone:
    each step charges the chosen row its ``|pos| * |neg|`` pair count among
    the surviving modes, then (for irreversible rows) removes the negative
    modes — accepted candidates are ignored, mirroring the linear-growth
    surrogate's spirit of cheap, deterministic planning.  The returned
    ratio ``max(dynamic trajectory) / max(static trajectory)`` is how much
    the dynamic order shrinks the worst iteration's pair space; callers
    clamp and apply it to the pair-count surrogate only.

    The kernel is :func:`~repro.linalg.numeric.kernel_identity_form`
    without pivot priorities: one exact integer elimination, about a
    millisecond per subset on the yeast networks.
    """
    kernel, col_perm = kernel_identity_form(n)
    q, n_free = kernel.shape
    if n_free == 0 or q <= n_free:
        return 1.0
    rev = np.asarray(reversible, dtype=bool)[col_perm]
    signs = np.sign(np.asarray(kernel, dtype=np.float64)).astype(np.int8)
    tail = np.arange(n_free, q)
    nnz = np.count_nonzero(kernel[tail], axis=1)
    static = tail[np.lexsort((tail, nnz, rev[tail].astype(np.int8)))]

    def simulate(dynamic: bool) -> int:
        alive = np.ones(n_free, dtype=bool)
        remaining = [int(r) for r in static]
        peak = 0
        while remaining:
            if dynamic:
                rows = np.array(remaining, dtype=np.int64)
                sub = signs[rows][:, alive]
                n_p = (sub > 0).sum(axis=1)
                n_n = (sub < 0).sum(axis=1)
                pairs_all = n_p * n_n
                irr = ~rev[rows]
                cand = np.nonzero(irr)[0] if irr.any() else np.arange(rows.size)
                # Same (active, pairs, position) key as RowSelector._pick.
                pick = cand[
                    np.lexsort((rows[cand], pairs_all[cand], (n_p + n_n)[cand]))[0]
                ]
                r = int(rows[pick])
                pairs = int(pairs_all[pick])
                remaining.remove(r)
            else:
                r = remaining.pop(0)
                srow = signs[r][alive]
                pairs = int((srow > 0).sum()) * int((srow < 0).sum())
            peak = max(peak, pairs)
            if not rev[r]:
                alive &= signs[r] >= 0
        return peak

    peak_static = simulate(False)
    if peak_static <= 0:
        return 1.0
    return simulate(True) / peak_static


def predict_subset_peak_bytes(
    reduced: "MetabolicNetwork",
    spec: "SubsetSpec",
    *,
    working_factor: float = 1.5,
    iter_chunk_bytes: int | str = "auto",
    rank_backend: str = "modular",
    ordering: str = "paper",
) -> int:
    """A-priori peak-footprint prediction for one divide-and-conquer
    subproblem, before its kernel is built.

    The subproblem's stoichiometry is the reduced network's with the
    subset's zero-flux columns deleted; its kernel starts with ``nullity``
    modes and grows over the ``q_work - rank - |pinned|`` processed rows.
    The true peak is exponential in the worst case and unknowable a
    priori, so this uses the linear-growth surrogate
    ``nullity * (1 + rows_to_process)`` — a deterministic, monotone proxy
    good enough for two scheduler decisions that only need *ordering* and
    *relative magnitude*: largest-predicted-first dispatch (LPT
    makespan heuristic) and the admission budget that bounds how much
    predicted peak may be in flight concurrently.

    The iteration's retained candidate set is charged per candidate at
    :func:`candidate_row_bytes` (packed supports + pair indices); that
    surrogate upper-bounds the streamed state (accepted set + dedup
    index).  On top of it the prediction charges the *transient*
    generation working set of one chunk (:func:`prefilter_working_bytes`
    at the ``iter_chunk_bytes`` chunk size of
    :func:`streaming_chunk_pairs`, bounded by the predicted pair count).

    With ``rank_backend="modular"`` the residue-field kernel's per-batch
    working set (:func:`modular_workset_bytes`) is charged on top of the
    candidate transients.

    With ``ordering="dynamic"`` the pair-count surrogate consumes the
    dynamic order's no-growth trajectory (:func:`_pair_trajectory_ratio`):
    dynamic selection picks the cheapest remaining row each iteration, so
    its worst pair space is at most the static order's — the simulated
    ratio, clamped to ``[0.25, 1.0]`` (never below a quarter, never an
    inflation), scales ``peak_pairs`` only.  The mode-storage and
    retained-candidate surrogates are left untouched: the final EFM set
    (and thus the mode-count growth envelope) is order-independent.

    Returns 0 for structurally empty subproblems (no flux possible).
    """
    from repro.network.stoichiometry import stoichiometric_matrix  # noqa: PLC0415

    n = stoichiometric_matrix(reduced)
    names = reduced.reaction_names
    keep = list(range(n.shape[1]))
    if spec.zero:
        zero = set(spec.zero)
        keep = [j for j, nm in enumerate(names) if nm not in zero]
        n = n[:, keep]
    q_work = n.shape[1]
    if q_work == 0:
        return 0
    rank = int(np.linalg.matrix_rank(n)) if n.size else 0
    nullity = q_work - rank
    if nullity <= 0:
        return 0
    rows_to_process = max(0, rank - len(spec.nonzero))
    peak_modes = nullity * (1 + rows_to_process)
    # Candidate surrogate: the retained candidate set at the peak iteration
    # is on the order of the mode count itself (most pairs die in the
    # union-support prefilter), charged at the per-candidate cost.
    cand_bytes = peak_modes * candidate_row_bytes(q_work)
    # Pair-count surrogate at the peak iteration: the two sign classes
    # split the peak mode count roughly in half.
    peak_pairs = (peak_modes // 2) * (peak_modes - peak_modes // 2)
    if ordering == "dynamic" and peak_pairs:
        try:
            rev_keep = np.asarray(reduced.reversibility, dtype=bool)[keep]
            ratio = min(1.0, max(0.25, _pair_trajectory_ratio(n, rev_keep)))
        except Exception:  # planning surrogate — never fail the prediction
            ratio = 1.0
        peak_pairs = max(1, int(peak_pairs * ratio))
    cand_bytes += prefilter_working_bytes(
        q_work, peak_pairs, streaming_chunk_pairs(q_work, iter_chunk_bytes)
    )
    if rank_backend == "modular":
        # The residue-field kernel's per-batch working set; batches are at
        # most the surviving candidate count, surrogated by the peak modes.
        cand_bytes += modular_workset_bytes(q_work, rank, peak_modes)
    return int(
        working_factor * estimate_mode_bytes(peak_modes, q_work) + cand_bytes
    )
