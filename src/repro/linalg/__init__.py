"""Linear-algebra substrate: exact integer elimination for the initial
kernel and the modular rank test, exact rational rank, tolerant floating
routines, and packed bitset support patterns."""

from repro.linalg.batched import (
    CacheBinding,
    RankCache,
    batched_ranks,
    bucketed_ranks,
    problem_token,
)
from repro.linalg.bitset import (
    PackedSupports,
    pack_supports,
    popcount,
    subset_rows,
    unique_rows,
)
from repro.linalg.numeric import (
    column_normalize,
    kernel_identity_form,
    numeric_rank,
    nullity,
    support_of,
)
from repro.linalg.rational import exact_rank, rref

__all__ = [
    "CacheBinding",
    "RankCache",
    "batched_ranks",
    "bucketed_ranks",
    "problem_token",
    "PackedSupports",
    "pack_supports",
    "popcount",
    "subset_rows",
    "unique_rows",
    "column_normalize",
    "kernel_identity_form",
    "numeric_rank",
    "nullity",
    "support_of",
    "exact_rank",
    "rref",
]
