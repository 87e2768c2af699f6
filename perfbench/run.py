"""End-to-end benchmark of ``repro.compute_efms``.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload dnc-y1-q5 --seed 1 --seconds 60 --trace 0

Each sample is a fresh interpreter making one ``compute_efms`` call on one
generated input (``sample.py``); samples run one at a time (closed loop)
until ``--seconds`` would be exceeded.  Every output is certified
(``certify.py``) outside the timed region.  With ``--trace 0`` the last
line carries the end-to-end metrics; with ``--trace 1`` samples alternate
untraced / traced on the same input and the last line carries the
per-layer metrics (``layers.py``), the tracing overhead among them.
README.md records why each workload exists and which layer metric should
move which end-to-end metric.

Exits non-zero without a result line when the program source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SAMPLE_TIMEOUT_S = 60.0
COVERAGE_FLOOR = 0.95

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def log(msg: str) -> None:
    print(msg, flush=True)


def clean_env(root: Path) -> tuple[dict[str, str], list[str]]:
    """The samples' environment: no ``REPRO_*`` variable (each silently
    changes a default), the program's ``src`` on the path, a fixed hash
    seed.  Returns the environment and the removed names."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def stamp(root: Path, env: dict[str, str]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**env, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    # Byte-compile the program and the benchmark once, so that no sample's
    # clock pays for it, whatever PYTHONDONTWRITEBYTECODE says.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
        env=env, capture_output=True, timeout=SAMPLE_TIMEOUT_S,
    )
    versions = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, numpy, scipy, repro; print(json.dumps({"
            "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__}))",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
        check=True,
    )
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        **json.loads(versions.stdout.strip().splitlines()[-1]),
    }


def run_sample(root: Path, env: dict[str, str], spec: dict) -> dict:
    """Spawn one sample process and return its JSON report."""
    # A session of its own, so that a timeout also kills forked rank processes.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "failures": ["timed out"]}
    lines = stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = stderr.strip().splitlines()[-3:]
        return {"ok": False, "failures": [f"exit {proc.returncode}: {tail}"]}
    if proc.returncode != 0:
        rep["ok"] = False
        rep["failures"].append(f"exit {proc.returncode}")
    return rep


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (
        f"{name:34s} median {statistics.median(values):.6g} {unit}"
        f"  (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env, removed = clean_env(root)
    log(f"stamp {json.dumps(stamp(root, env))}")
    log(f"env: removed REPRO_* variables: {removed}")
    log(f"workload {workload.name}: compute_efms({workload.network}, "
        f"{workload.kwargs}) -- {workload.why}")

    reports: list[dict] = []
    steps: list[float] = []
    traced_flags = (False, True) if args.trace else (False,)
    t_start = time.perf_counter()
    index = 0
    # Start another input only if a typical one still fits in the window.
    while not steps or (
        time.perf_counter() - t_start + statistics.median(steps) <= args.seconds
    ):
        t_step = time.perf_counter()
        # Alternate which of the pair runs first, so an order effect
        # cancels out of trace.overhead_frac.
        for traced in traced_flags[::-1] if index % 2 else traced_flags:
            spec = {"workload": workload.name, "seed": args.seed,
                    "index": index, "trace": traced}
            rep = run_sample(root, env, spec)
            rep.update(index=index, traced=traced)
            reports.append(rep)
            log(
                f"sample input=({args.seed},{index}) traced={int(traced)} "
                f"ok={rep['ok']} wall_s={rep.get('wall_s', float('nan')):.4f} "
                f"setup_s={rep.get('setup_s', float('nan')):.4f} "
                f"peak_rss_mb={rep.get('peak_rss_mb', float('nan')):.1f} "
                f"candidates={rep.get('candidates')} partition={rep.get('partition')}"
                + ("" if rep["ok"] else f" FAILED {rep['failures']}")
            )
        steps.append(time.perf_counter() - t_step)
        index += 1

    attempted = len(reports)
    failed = sum(1 for r in reports if not r["ok"])
    good = [r for r in reports if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    log(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g}")

    metrics: dict[str, dict] = {}
    if not args.trace and plain:
        for name, unit in END_TO_END_UNITS.items():
            values = ([len(good) / attempted] if name == "ok_frac"
                      else [r[name] for r in plain])
            log(describe(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced = [r for r in good if r["traced"]]
    if args.trace and traced:
        walls = {r["index"]: r["wall_s"] for r in plain}
        overheads = [(r["wall_s"] - walls[r["index"]]) / walls[r["index"]]
                     for r in traced if r["index"] in walls]
        for name, unit in layers.UNITS.items():
            values = ((overheads or [0.0]) if name == "trace.overhead_frac"
                      else [r["layers"][name] for r in traced])
            log(describe(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        coverage = metrics["trace.coverage"]["value"]
        if coverage < COVERAGE_FLOOR:
            log(f"WARNING trace.coverage {coverage:.4f} is below {COVERAGE_FLOOR}: "
                "the outside-in spans miss part of the call")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            [{"input": [args.seed, r["index"]], "spans": r["spans"]} for r in traced]
        ))
        log(f"spans written to {os.path.relpath(trace_file, root)}")

    correct = bool(reports) and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
