"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-periodic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the timed part runs untraced and the end-to-end
metrics are printed. With ``--trace 1`` the first half of the time runs
untraced and the second half traced; the per-layer metrics come from the
traced half, with the tracing overhead against the untraced half. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results and span
dumps go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is repeated for at least this long, and at least SETUP_REPS
# times, and its median reported: one set-up of the audit takes about 5 ms,
# too short to time once on a shared machine.
SETUP_REPS = 5
SETUP_SECONDS = 1.0


def _import_program():
    """Import markovnmt from this checkout's ``src/`` and nowhere else.

    The benchmark's own modules import markovnmt, so they are imported
    inside the functions below, after this has run."""
    src = ROOT / "src"
    if not (src / "markovnmt" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src / 'markovnmt'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import markovnmt

    if Path(markovnmt.__file__).resolve().parent != (src / "markovnmt").resolve():
        sys.exit(f"bench: imported markovnmt from {markovnmt.__file__}, not from {src}")


def timed_rounds(workload, ctx, seconds: float, tracer=None) -> list:
    """Whole rounds, one operation per model each, until ``seconds`` pass."""
    from spans import ROLES
    from workloads import attempt

    ops = []
    start = time.perf_counter()
    r = 0
    while True:
        for role in ROLES:
            if tracer is not None:
                tracer.role = role
            ops.append(attempt(role, lambda: workload.op(ctx, role, r)))
        r += 1
        if time.perf_counter() - start >= seconds:
            return ops


def rate(ops: list, role: str) -> float:
    """Median over operations of units per second."""
    rates = [op.units / op.seconds for op in ops if op.role == role and not op.failed and op.seconds > 0]
    return statistics.median(rates) if rates else 0.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    setup_s = []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_SECONDS:
        start = time.perf_counter()
        ctx = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
    ctx["pause"] = contextlib.nullcontext
    ops = workload.prepare(ctx)
    timed = timed_rounds(workload, ctx, seconds / 2 if trace else seconds)
    if trace:
        tracer = Tracer()
        ctx["pause"] = tracer.paused
        with tracer.patched():
            traced = timed_rounds(workload, ctx, seconds / 2, tracer)
            tracer.role = "mat5"
            workload.setup(seed)  # spans of the data layer
        ops += timed + traced
        untraced_rate, traced_rate = rate(timed, "mat5"), rate(traced, "mat5")
        metrics = per_layer_metrics(tracer, name)
        metrics["trace.overhead_pct"] = (
            100.0 * (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0
        )
        metrics["blas.threads"] = float(ctx["threads"][0] if ctx["threads"] else 0)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json.gz")
        if tracer.absent:
            print(f"absent names (not traced): {', '.join(tracer.absent)}", file=sys.stderr)
    else:
        ops += timed
        metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mat5_units_per_s": rate(ops, "mat5"),
            "ref_units_per_s": rate(ops, "ref"),
        }
    ops += workload.finish(ctx)
    seen = ctx["threads"][0] if ctx["threads"] else None  # None: no operation got that far
    return {"ops": ops, "metrics": metrics, "blas_threads": seen}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _import_program()

    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    ops = result["ops"]
    failed = [op for op in ops if op.failed]
    for op in failed:
        print(f"FAILED {op.role}: {op.error or '; '.join(op.problems)}", file=sys.stderr)
    listed = {
        name: {"value": value, "unit": unit}
        for name, value, unit in _with_units(result["metrics"], bool(args.trace))
    }
    doc = {
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": listed,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(
        doc,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        blas_threads=result["blas_threads"],
        machine=f"{platform.machine()}, {os.cpu_count()} cpus",
        python=platform.python_version(),
        numpy=np.__version__,
        blas=np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    )
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"{args.workload} seed {args.seed}: BLAS threads seen {result['blas_threads']}")
    print(json.dumps(doc, sort_keys=True))
    return 0


def _with_units(metrics: dict, trace: bool):
    """(name, value, unit) in BENCHMARK.json's order; every listed metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    for entry in listed:
        yield entry["name"], float(metrics[entry["name"]]), entry["unit"]


if __name__ == "__main__":
    sys.exit(main())
