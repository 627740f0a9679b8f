"""envasr benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the machine and the run. The full result (and, traced, every span)
is written under ``.perfbench_out/``. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_id,
            "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                                if k in os.environ}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="minimum timed training time; whole runs are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "envasr" / "__init__.py").is_file():
        print(f"error: no envasr package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True)
    try:
        bench = workloads.Bench(workloads.WORKLOADS[args.workload], args.seed, work)
        spans = None
        if args.trace:
            metrics, info, tracer = bench.traced()
            spans = {"fields": ["name", "start_s", "end_s", "parent", "ctx"],
                     "spans": tracer.spans, "counts": tracer.counts}
        else:
            metrics, info = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = bench.checks
    host = machine()
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host, "info": info,
              "failures": checks.failures, "result": result}
    if spans is not None:
        record["trace_data"] = spans
    (out_dir / f"{label}.json").write_text(json.dumps(record))

    print("machine " + json.dumps(host))
    print("info " + json.dumps({k: v for k, v in info.items()
                                if k not in ("span_table", "unresolved")}))
    for row in info.get("span_table", []):
        print(f"span {row['span']:34s} {row['phase']:5s} calls="
              f"{row['calls']:9.1f} total_ms={row['total_ms']:10.3f} "
              f"self_ms={row['self_ms']:10.3f}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in info.get("unresolved", {}).items():
        print(f"unresolved {name} = {value:.6g} {unit}")
    print(f"ops_failed_frac = {len(checks.failures) / checks.attempted:.4f} "
          f"({len(checks.failures)} of {checks.attempted} stage calls and checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
