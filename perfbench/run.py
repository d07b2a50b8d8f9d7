"""sparsebeam benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the workload's inputs from the
seed, runs units in a closed loop (one caller, one process) for S
seconds, checks every unit, runs the workload's out-of-loop gates and
prints, as the last line of standard output, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  The line before it
holds the run's details (environment, unit count, p90, CSV hash).

`--trace 0` reports the end-to-end metrics with tracing off; `--trace 1`
reports the per-layer metrics from a traced run and writes its spans to
perfbench/out/.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
P90_MIN_UNITS = 100  # at least ten units beyond the 90th percentile
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads() -> int:
    """Cap BLAS/OpenMP pools at nproc (numpy's OpenBLAS is built for 64)
    and keep the sweep on one thread; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["SPARSEBEAM_THREADS"] = "1"
    return nproc


def _import_program():
    """Import sparsebeam from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sparsebeam

    if Path(sparsebeam.__file__).resolve().parent != (SRC / "sparsebeam").resolve():
        raise ImportError(f"sparsebeam imported from {sparsebeam.__file__}, not from {SRC}")
    import workloads

    return workloads


def _environment(nproc: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in (*THREAD_VARS, "SPARSEBEAM_THREADS")},
    }


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of import plus input set-up, as
    (scaled, wall) seconds."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        child = json.loads(done.stdout.splitlines()[-1])
        scaled.append(child["scaled"])
        wall.append(child["wall"])
    return statistics.median(scaled), statistics.median(wall)


def _run_rounds(wl, state, seconds: float, tracer) -> list[tuple[bool, float, float, bool]]:
    """Run rounds until `seconds` have passed; returns (traced, wall s,
    scaled s, ok) per unit.  With a tracer, odd rounds are traced and
    even rounds are not, so both see the same conditions."""
    import clock

    timer = clock.UnitClock(wl.reference)
    flags = []
    deadline = time.perf_counter() + seconds
    index = 0
    with timer:
        while index < (2 if tracer else 1) or time.perf_counter() < deadline:
            traced = tracer is not None and index % 2 == 1
            if traced:
                timer.tracer = tracer
                tracer.install()
                try:
                    oks = wl.run_round(state, index, timer, tracer)
                finally:
                    tracer.uninstall()
                    timer.tracer = None
                tracer.units += len(oks)
            else:
                oks = wl.run_round(state, index, timer)
            flags += [(traced, ok) for ok in oks]
            index += 1
    return [(was_traced, wall, scaled, ok) for (was_traced, ok), (wall, scaled) in zip(flags, timer.units, strict=True)]


def _probe(workloads, name: str, seed: int, metrics: dict):
    """Fill per-layer metrics the named workload never reaches from one
    traced round of each other workload, in the order workloads are listed.
    Returns the probe tracers and the probes' (attempted, failed) counts."""
    import clock
    import spans

    attempted = failed = 0
    tracers = {}
    for other, wl in workloads.WORKLOADS.items():
        if other == name:
            continue
        tr = spans.Tracer()
        state = wl.setup(seed, tr)
        tr.install()
        try:
            oks = wl.run_round(state, 0, clock.UnitClock(wl.reference), tr)
        finally:
            tr.uninstall()
        tr.units = len(oks)
        checks, _, extra = wl.finish(state, OUT)
        attempted += len(oks) + len(checks)
        failed += oks.count(False) + sum(not ok for _, ok in checks)
        for key, value in {**spans.layer_metrics(tr), **extra}.items():
            if metrics.get(key) is None and value is not None:
                metrics[key] = value
        tracers[other] = tr
    return tracers, attempted, failed


def _timing(seconds: list[float]) -> dict:
    return {"units_per_s": len(seconds) / sum(seconds), "unit_p50_s": statistics.median(seconds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sparsebeam" / "__init__.py").is_file():
        print(f"error: no sparsebeam sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = _pin_threads()
    start = time.perf_counter()
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed)
        wall = time.perf_counter() - start
        import clock

        # Import and input building are interpreter-bound on every workload.
        ref = statistics.median(clock.interpreter_reference() for _ in range(SETUP_REPEATS))
        print(json.dumps({"wall": wall, "scaled": clock.scaled(wall, ref)}))
        return 0

    import spans

    OUT.mkdir(exist_ok=True)
    setup = None if args.trace else _setup_seconds(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    state = wl.setup(args.seed, tracer)
    units = _run_rounds(wl, state, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, info, extra = wl.finish(state, OUT)

    attempted = len(units) + len(checks)
    failed = sum(not ok for *_, ok in units) + sum(not ok for _, ok in checks)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(nproc),
        "units": len(units),
        "failed_frac": failed / attempted,
        "failed_gates": [name for name, ok in checks if not ok],
        **info,
    }
    if args.trace:
        traced = [s for was_traced, _, s, _ in units if was_traced]
        untraced = [s for was_traced, _, s, _ in units if not was_traced]
        metrics = {**spans.layer_metrics(tracer), **extra}
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        probes, probe_attempted, probe_failed = _probe(workloads, args.workload, args.seed, metrics)
        attempted += probe_attempted
        failed += probe_failed
        details["probed"] = sorted(probes)
        details["missing"] = sorted(k for k in spans.UNITS if metrics.get(k) is None)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, probes)
        details["trace_file"] = str(trace_path.relative_to(HERE.parent))
        report = {k: {"value": float(metrics.get(k) or 0.0), "unit": unit} for k, unit in spans.UNITS.items()}
    else:
        scaled = [s for _, _, s, _ in units]
        wall = [w for _, w, _, _ in units]
        details["wall"] = {"setup_s": setup[1], **_timing(wall)}
        details["unit_p90_s"] = statistics.quantiles(scaled, n=10)[-1] if len(scaled) >= P90_MIN_UNITS else None
        timing = _timing(scaled)
        report = {
            "setup_s": {"value": setup[0], "unit": "s"},
            "units_per_s": {"value": timing["units_per_s"], "unit": "1/s"},
            "unit_p50_s": {"value": timing["unit_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
