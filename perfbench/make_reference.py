"""Regenerate ``reference.json``: the certified EFM-set digest of each model
and a record of the work each benchmark input exercises.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py [--seeds 0 1 2] [--indices 0 1]

For each model the published order is solved serially, checked with the
exact certificate *and* with the program's O(n^2) ``EFMResult.validate``
(minimality included), checked for duplicate rows, and cross-checked
against the digest of every workload input recorded below.  The input
record lists, per workload and input ``(seed, index)``, the candidate
count and the partition ``partition_method="tail"`` chose, so a run on a
held-out seed shows whether it exercised different work.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import certify  # noqa: E402
import workloads  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"make_reference: {what}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="*", default=[0, 1, 2, 3])
    ap.add_argument("--indices", type=int, nargs="*", default=[0, 1])
    args = ap.parse_args()

    from repro import compute_efms, get_network  # noqa: PLC0415

    networks = {}
    for name in sorted({w.network for w in workloads.WORKLOADS.values()}):
        net = get_network(name)
        result = compute_efms(net, method="serial")
        result.validate()
        failures, digest = certify.certify(result, net, None)
        check(not failures, f"{name}: {failures}")
        modes = certify.integerize(result.fluxes)
        check(np.unique(modes, axis=0).shape[0] == modes.shape[0], f"{name}: duplicate modes")
        networks[name] = {"efms": int(modes.shape[0]), "digest": digest}
        print(name, networks[name], flush=True)

    inputs: dict[str, list] = {}
    for w in workloads.WORKLOADS.values():
        check(networks[w.network]["efms"] == w.expected_efms, f"{w.name}: EFM count")
        for seed in args.seeds:
            for index in args.indices:
                net = workloads.build_input(w, seed, index)
                result = compute_efms(net, **w.kwargs)
                failures, _ = certify.certify(result, net, networks[w.network])
                check(not failures, f"{w.name} input ({seed}, {index}): {failures}")
                meta = result.meta
                row = {
                    "seed": seed,
                    "index": index,
                    "candidates": meta.get("total_candidates")
                    or result.stats.total_candidates,
                    "partition": list(meta.get("partition", ())),
                }
                inputs.setdefault(w.name, []).append(row)
                print(w.name, row, flush=True)

    doc = {
        "networks": networks,
        "inputs": inputs,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
