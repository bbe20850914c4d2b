#!/usr/bin/env python3
"""skelclip benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload replicate --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Set-up builds the workload's inputs from the seed (several times,
reporting the median), then units of work repeat for as long as the next
one is expected to end within ``--seconds`` of measured time. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced units alternate and the per-layer metrics from the
spans are printed, with the tracing overhead. Human-readable lines
come first; the last line of stdout is the JSON result. The exit code is 0
only when every output passed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MAX_BLAS_THREADS = 2

# (name, unit) of every end-to-end metric; BENCHMARK.json lists the same.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("entry_ms_p50", "ms"),
    ("entry_ms_p90", "ms"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["replicate", "encode_ntu", "paper_scale"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def machine_record(threads: int) -> dict:
    import platform

    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": threads}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "skelclip" / "__init__.py").is_file():
        print(f"perfbench: no skelclip sources under {SRC}", file=sys.stderr)
        return 2
    threads = min(os.cpu_count() or 1, MAX_BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)   # read when numpy loads BLAS, just below
    sys.path.insert(0, str(SRC))
    import numpy as np

    import skelclip
    if Path(skelclip.__file__).resolve().parent != (SRC / "skelclip").resolve():
        print(f"perfbench: imported skelclip from {skelclip.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer
    import workloads
    import_s = time.perf_counter() - t_start

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, setup_layers = [], []
        for r in range(workload.setup_rounds):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            setup_layers.append(workload.setup(work))
            setup_s.append(time.perf_counter() - t0)
        os.sync()   # flush the written inputs now, not during the timed units
        run = measure(workload, args.seconds, tracer.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units, traced_units, spans = run
    all_units = units + traced_units
    attempted = sum(u.attempted for u in all_units)
    failed = sum(u.failed for u in all_units)
    problems = [p for u in all_units for p in u.problems]

    if args.trace:
        metrics = tracer.layer_metrics(spans.spans, max(len(traced_units), 1))
        metrics["features.weights_ms"] = statistics.median(
            s.get("features.weights_ms", 0.0) for s in setup_layers)
        traced_s = sum(u.wall for u in traced_units)
        metrics["trace.coverage_pct"] = (
            100.0 * sum(u.covered for u in traced_units) / traced_s if traced_s else 0.0)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(u.wall for u in traced_units)
            / statistics.median(u.wall for u in units) - 1.0) if traced_s else 0.0
        result = {name: (metrics[name], unit) for name, unit, _ in tracer.LAYER_METRICS}
        spans.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        entry_ms = 1e3 * np.array([e for u in units for e in u.entry_s])
        p50, p90 = np.percentile(entry_ms, [50, 90]) if entry_ms.size else (0.0, 0.0)
        values = {
            "wall_s": statistics.median(u.wall for u in units),
            "setup_s": import_s + statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "entry_ms_p50": float(p50),
            "entry_ms_p90": float(p90),
        }
        result = {name: (values[name], unit) for name, unit in END_TO_END}

    correct = failed == 0 and not problems
    first = all_units[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(units)} untraced + {len(traced_units)} traced units, "
          f"{sum(len(u.entry_s) for u in units)} entry samples")
    for name, (value, unit) in result.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for mode, acc in first.accuracy.items():
        print(f"  {'acc.' + mode:34s} {acc:14.6g} ratio")
    for p in problems:
        print(f"  FAILED: {p}")
    print("fingerprint " + json.dumps({
        "seed": args.seed,
        "accuracy": first.accuracy,
        **first.fingerprint,
        "units_identical": all(u.fingerprint == first.fingerprint and u.accuracy == first.accuracy
                               for u in all_units),
    }, sort_keys=True))
    print("machine " + json.dumps(machine_record(threads), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }))
    return 0 if correct else 1


def measure(workload, seconds: float, spans):
    """Run units while the next one is expected to end within ``seconds`` of
    measured time (at least one, and with a tracer at least one traced);
    untraced and traced units alternate, starting untraced. Each unit starts
    from a collected heap, so no unit pays for garbage left by the last."""
    import tracer

    units, traced_units = [], []
    targets, methods = tracer.layer_targets(), tracer.layer_methods()
    measured = 0.0
    while True:
        gc.collect()
        if spans is not None and len(traced_units) < len(units):
            first = len(spans.spans)
            with spans.active(targets, methods):
                unit = workload.run_unit()
            unit.covered = tracer.root_coverage(spans.spans, first, unit.start, unit.end)
            traced_units.append(unit)
        else:
            unit = workload.run_unit()
            units.append(unit)
        workload.check(unit)
        measured += unit.wall
        if unit.failed:
            break
        typical = statistics.median(u.wall for u in units + traced_units)
        if measured + typical >= seconds and (spans is None or traced_units):
            break
    return units, traced_units, spans


if __name__ == "__main__":
    sys.exit(main())
