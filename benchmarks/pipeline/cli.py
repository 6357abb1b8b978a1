"""Pipeline benchmark parent: seeded inputs, one fresh child per workload.

For each workload the parent builds the inputs from ``--seed``, runs
one child process that measures the workload
(:mod:`benchmarks.pipeline.child`) and, around it, times
:data:`SETUP_RUNS` fresh interpreters doing the set-up work
(``setup_s``). It prints every metric with its
unit, writes the full record (with the seed, host and repeat counts)
to ``--out`` and the spans of the traced pass next to it as
``trace-<workload>.json``, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are the end-to-end set with ``--trace 0`` and the
per-layer set with ``--trace 1``. The exit code is 0 only when every
op succeeded; 2 means ``repro`` could not be imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from benchmarks.pipeline import workloads
from benchmarks.pipeline.child import (
    DEFAULT_MIN_SAMPLES,
    MAX_SAMPLES,
    MIN_SAMPLES,
    SAMPLE_FLOOR_S,
    summary,
)

ROOT = Path(__file__).resolve().parents[2]
RESULTS = Path(__file__).resolve().parent / "results"

DEFAULT_SEED = 2012
DEFAULT_SECONDS = 10

#: Fresh interpreters timed per workload for ``setup_s``.
SETUP_RUNS = 5

#: Set-up work runs on this many leading bytes of the workload.
SETUP_BYTES = 4096

#: Wall-time limit of one workload (set-up samples plus child).
WORKLOAD_TIMEOUT_S = 170


class ChildFailed(Exception):
    """A child process exited badly or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One caller, one thread: no numpy/BLAS worker threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    # Pin glibc's mmap and trim thresholds. Left dynamic, whether a
    # freed 1 MiB buffer is reused or returned to the kernel (and paid
    # for again in page faults) depends on the heap's history, and the
    # same call read 500 or 1200 MB/s from one process to the next.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    # Fixed string hashing, so dict and set layouts repeat across runs.
    env["PYTHONHASHSEED"] = "0"
    # Byte-code is cached in one place whatever the caller's settings,
    # so set-up time is an import from cache, as for an installed
    # package, after the first child compiles it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def _run_child(header: dict, data: bytes, extra: List[str],
               timeout: float) -> dict:
    """Run the child module; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.pipeline.child", *extra],
            input=json.dumps(header).encode() + b"\n" + data,
            stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(),
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"unreadable result: {exc}") from exc


def _setup_sample(data: bytes, deadline: float) -> tuple:
    """One timed set-up interpreter: ``(seconds or None, its ops)``."""
    start = perf_counter()
    try:
        sample = _run_child({}, data[:SETUP_BYTES], ["--setup"],
                            deadline - perf_counter())
    except ChildFailed as exc:
        return None, {"attempted": 1, "failed": 1,
                      "errors": [f"set-up child failed: {exc}"]}
    return perf_counter() - start, sample


def run_workload(workload: workloads.Workload, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """Set-up samples plus one measuring child for one workload."""
    deadline = perf_counter() + WORKLOAD_TIMEOUT_S
    data = workload.data
    runs = 1 if quick else SETUP_RUNS
    # The set-up samples sit on both sides of the measuring child, so a
    # slow second on the host cannot move all of them at once.
    setups = [_setup_sample(data, deadline) for _ in range(runs // 2)]
    header = {
        "workload": workload.name,
        "calls": [len(p) for p in workload.calls],
        "batch": [len(p) for p in workload.batch],
        "seconds": seconds,
        "trace": trace,
        "floor": 1 if quick else None,
    }
    try:
        result = _run_child(header, data, [], deadline - perf_counter())
    except ChildFailed as exc:
        result = {"attempted": 1, "failed": 1, "end_to_end": {},
                  "per_layer": {}, "spans": [], "plan": {},
                  "errors": [f"workload child failed: {exc}"]}
    setups += [_setup_sample(data, deadline)
               for _ in range(runs - runs // 2)]
    attempted = result["attempted"]
    failed = result["failed"]
    errors: List[str] = []
    for _, ops in setups:
        attempted += ops["attempted"]
        failed += ops["failed"]
        errors += ops["errors"]
    setup_times = [elapsed for elapsed, _ in setups if elapsed is not None]
    end_to_end = {}
    if setup_times:
        end_to_end["setup_s"] = summary(setup_times, "s")
    end_to_end.update(result["end_to_end"])
    # The share of ops that succeeded, so that the metric is never 0.
    end_to_end["ok_rate"] = summary([1 - failed / max(attempted, 1)],
                                    "op/op")
    return {
        "why": workloads.WHY[workload.name],
        "input_bytes": len(data),
        "calls": len(workload.calls),
        "batch_payloads": len(workload.batch),
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / max(attempted, 1),
        "errors": errors + result["errors"],
        "plan": result["plan"],
        "end_to_end": end_to_end,
        "per_layer": result["per_layer"],
        "spans": result["spans"],
    }


def _numpy_version() -> Optional[str]:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def _meta(args) -> dict:
    return {
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "repeats": {
            "min_samples": ({"all": 1} if args.quick else
                            {**MIN_SAMPLES, "default": DEFAULT_MIN_SAMPLES}),
            "max_samples": MAX_SAMPLES,
            "sample_floor_s": SAMPLE_FLOOR_S,
            "setup_runs": 1 if args.quick else SETUP_RUNS,
        },
    }


def _check_repro() -> Optional[str]:
    """Why ``repro`` cannot be measured from this checkout, or ``None``."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro from {src}: {exc}"
    if Path(repro.__file__).resolve().parents[1] != src:
        return f"repro was imported from {repro.__file__}, not from {src}"
    return None


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_workload(name: str, record: dict) -> None:
    print(f"== {name}: {record['input_bytes']} B in {record['calls']} "
          f"call(s); {record['why']}")
    for metric, m in record["end_to_end"].items():
        print(f"  {metric:<32} {_fmt(m['value']):>12} {m['unit']:<6}"
              f" q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  n={m['n']}")
    for metric, m in record["per_layer"].items():
        print(f"  {metric:<32} {_fmt(m['value']):>12} {m['unit']}")
    print(f"  ops: {record['attempted']} attempted, {record['failed']} "
          f"failed, fail_rate {_fmt(float(record['fail_rate']))}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.pipeline",
        description="Profile x workload compress/decompress benchmark.",
    )
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed loop; minimum sample "
                             f"counts may make it longer (default "
                             f"{DEFAULT_SECONDS}, 0 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run the traced replay; the last "
                             "line then reports per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="16 KiB inputs, one sample per unit")
    parser.add_argument("--out", type=Path,
                        default=RESULTS / "latest.json",
                        help="result file; trace files go next to it")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else DEFAULT_SECONDS
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    problem = _check_repro()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from benchmarks.pipeline.replay import SPAN_FIELDS

    names = [args.workload] if args.workload else list(workloads.NAMES)
    report = {"meta": _meta(args), "workloads": {}}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for name in names:
        workload = workloads.build(name, args.seed, quick=args.quick)
        record = run_workload(workload, args.seconds, bool(args.trace),
                              args.quick)
        spans = record.pop("spans")
        if args.trace:
            trace_file = args.out.parent / f"trace-{name}.json"
            trace_file.write_text(json.dumps({
                "workload": name, "meta": report["meta"],
                "fields": SPAN_FIELDS, "spans": spans,
            }))
        report["workloads"][name] = record
        _print_workload(name, record)
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, record in report["workloads"].items():
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, m in record[kind].items():
            metrics[prefix + metric] = {"value": m["value"],
                                        "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in report["workloads"].values())
    failed = sum(r["failed"] for r in report["workloads"].values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
