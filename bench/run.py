#!/usr/bin/env python3
"""Solve benchmark for etacurv.

Run from the repository root:

    python3 bench/run.py --workload cap2d --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

--trace 0 repeats the untraced pipeline for --seconds and prints the
end-to-end metrics; --trace 1 runs one untraced pass and then traced
passes for --seconds and prints the per-layer metrics.  `--workload all`
runs every workload in both modes.  Metric names and units come from
BENCHMARK.json; README.md beside this file documents them.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import os

# a single-threaded baseline: pinned before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def source_digest():
    """sha256 over the package sources: records are kept per code version."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "etacurv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def write_trace(name, seed, case, env, tracer, metrics):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{name}-seed{seed}.json"
    doc = {
        "workload": name, "seed": seed, "case": vars(case), "env": env,
        "unwrapped": tracer.missing,
        "span_fields": ["id", "parent", "name", "start_s", "end_s", "paused_s",
                        "attrs"],
        "spans": [sp.as_list() for sp in tracer.spans],
        "metrics": metrics,
    }
    path.write_text(json.dumps(doc))
    print(f"# spans of the last traced pass -> {path.relative_to(ROOT)}")


def report(case, seed, result, metrics, units, trace, pl):
    """Print the run's '#' lines and metric table; returns the metrics in
    the JSON form {name: {"value", "unit"}}."""
    good = result.good
    if good:
        print(f"# {case.name} seed={seed} n={case.n} h={case.h!r} psi={case.psi} "
              f"passes={len(result.passes)} solution_sha256={good[0].sha256}")
        print("# wall-clock medians before speed normalization: "
              + " ".join(f"{k}={v:.4g}" for k, v in pl.wall_medians(result).items()))
    for s in result.passes:
        for reason in (["pass raised (traceback on stderr)"] if s is None
                       else s.failures):
            print(f"# FAILED {case.name}: {reason}")
    shown = {}
    for key, unit in units.items():
        if key in metrics:
            shown[key] = {"value": metrics[key], "unit": unit}
            print(f"{case.name:13s} {'traced' if trace else 'e2e':6s} {key:32s} "
                  f"{metrics[key]:<14.6g} {unit}")
    return shown


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "etacurv" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {SRC / 'etacurv'}")
    sys.path.insert(0, str(SRC))
    import pipeline as pl

    if Path(pl.cli.__file__).resolve().parent != SRC / "etacurv":
        sys.exit(f"error: imported etacurv from {pl.cli.__file__}, not {SRC}")

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    runs = ([(w, t) for w in names for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    attempted = failed = 0
    shown = {}
    for name, trace in runs:
        case = pl.make_case(name, args.seed)
        records = pl.SeedRecords(RESULTS / "seed-records.json",
                                 f"{name}/seed{args.seed}/src-{source_digest()}")
        result = pl.run_workload(case, args.seconds, trace, records)
        metrics = {}
        if result.good:
            metrics = pl.per_layer(result) if trace else pl.end_to_end(result)
        if result.tracer is not None:
            write_trace(name, args.seed, case, env, result.tracer, metrics)
        attempted += len(result.passes)
        failed += len(result.passes) - len(result.good)
        got = report(case, args.seed, result, metrics, units[trace], trace, pl)
        if args.workload == "all":
            got = {f"{name}.{k}": v for k, v in got.items()}
        shown.update(got)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
