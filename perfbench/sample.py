"""One benchmark sample: a fresh interpreter, one ``compute_efms`` call.

Usage (``run.py`` spawns it; the environment must carry no ``REPRO_*``
variable and ``PYTHONPATH`` must point at the program's ``src``)::

    python perfbench/sample.py '{"workload": "serial-y2", "seed": 1,
                                 "index": 0, "trace": false}'

Prints one JSON object.  The clocks:

* ``setup_s`` -- from before ``import repro`` until the generated network
  is built;
* ``wall_s`` -- the call itself (the first call in this interpreter, so
  the program's lazy caches are paid, as a user pays them);
* ``peak_rss_mb`` -- growth of this process's ``ru_maxrss`` across it.

The output certificate runs after the clocks stop.
"""

from __future__ import annotations

import time

T_SETUP = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    args = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[args["workload"]]
    out: dict = {"ok": False, "failures": []}

    import repro  # noqa: F401, PLC0415

    network = workloads.build_input(workload, args["seed"], args["index"])
    out["setup_s"] = time.perf_counter() - T_SETUP

    tracer = None
    if args["trace"]:
        import layers  # noqa: PLC0415

        tracer = layers.Tracer().install()
    call = repro.compute_efms
    rss0 = _maxrss_mb(resource.RUSAGE_SELF)
    cpu0 = os.times()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            result = tracer.call(layers.ROOT, call, network, **workload.kwargs)
        else:
            result = call(network, **workload.kwargs)
    except Exception:  # counted as a failed call, never hidden
        out["failures"].append(traceback.format_exc(limit=4))
        print(json.dumps(out))
        return 0
    out["wall_s"] = time.perf_counter() - t0
    # user + sys of this process and of the waited-for (rank) children
    cpu_s = sum(os.times()[:4]) - sum(cpu0[:4])
    out["peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_SELF) - rss0

    import certify  # noqa: PLC0415

    reference = certify.load_reference()["networks"][workload.network]
    out["failures"] += certify.certify(result, network, reference)[0]
    out["ok"] = not out["failures"]
    meta = result.meta
    out["partition"] = list(meta.get("partition", ()))
    out["candidates"] = (
        meta["total_candidates"]
        if "total_candidates" in meta
        else result.stats.total_candidates
    )
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, result)
        out["layers"]["run.cpu_s"] = cpu_s
        # ru_maxrss of the largest waited-for child: the biggest rank process
        out["layers"]["mpi.rank_peak_rss_mb"] = (
            _maxrss_mb(resource.RUSAGE_CHILDREN) if out["layers"]["mpi.bytes_sent"] else 0.0
        )
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
