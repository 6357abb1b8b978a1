"""Compare two pipeline-benchmark result files against the bounds.

Usage, from the repository root::

    python3 benchmarks/pipeline/compare.py A.json B.json

``A`` is the reference (the parent commit), ``B`` the change. Both must
come from runs with the same ``--seed``, ``--quick`` and ``--seconds``;
otherwise nothing is compared and the exit code is 2. For each
(end-to-end metric, workload) pair of A, one row:

* ``worse``: B's median is worse than A's by more than the metric's
  ``bound`` in ``BENCHMARK.json``, or B lacks the pair (its child
  crashed, timed out or failed every sample of a unit);
* ``unresolved``: the pair's quartile spread, ``(q3 - q1) / median`` of
  either file, exceeds the bound, so the medians cannot settle it (unless
  every sample of B is better than every sample of A, which is ``ok``);
* ``ok``: otherwise.

Exits 1 if any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Run settings that must match for two result files to be comparable.
SAME_RUN = ("seed", "quick", "seconds")


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: dict, b: Optional[dict], bound: float, higher: bool) -> tuple:
    """``(verdict, worse_by, spread)`` for one metric of one workload."""
    if b is None:
        return "worse", None, None
    sign = 1 if higher else -1
    worse_by = sign * (a["value"] - b["value"]) / abs(a["value"])
    spread = max(_spread(a), _spread(b))
    if spread > bound:
        a_samples, b_samples = a.get("samples"), b.get("samples")
        all_better = bool(a_samples and b_samples) and (
            min(b_samples) > max(a_samples) if higher
            else max(b_samples) < min(a_samples))
        return ("ok" if all_better else "unresolved"), worse_by, spread
    return ("worse" if worse_by > bound else "ok"), worse_by, spread


def mismatch(a_report: dict, b_report: dict) -> list:
    """The run settings in which the two files differ."""
    return [key for key in SAME_RUN
            if a_report["meta"].get(key) != b_report["meta"].get(key)]


def compare(a_report: dict, b_report: dict, metrics: list) -> list:
    rows = []
    for workload, a_record in a_report["workloads"].items():
        b_end_to_end = b_report["workloads"].get(
            workload, {}).get("end_to_end", {})
        for spec in metrics:
            name = spec["name"]
            a = a_record["end_to_end"].get(name)
            if a is None:
                continue
            b = b_end_to_end.get(name)
            result, worse_by, spread = verdict(
                a, b, spec["bound"], spec["better"] == "higher")
            rows.append((workload, name, a, b, worse_by, spread,
                         spec["bound"], result))
    return rows


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:+.2f}%"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_report, b_report = (json.loads(Path(p).read_text()) for p in argv)
    differ = mismatch(a_report, b_report)
    if differ:
        print("error: the files come from different runs: "
              + ", ".join(f"{key} {a_report['meta'].get(key)!r} vs "
                          f"{b_report['meta'].get(key)!r}" for key in differ),
              file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(a_report, b_report, metrics)
    print(f"{'workload':<15} {'metric':<24} {'A':>11} {'B':>11} "
          f"{'worse by':>9} {'spread':>8} {'bound':>7}  verdict")
    for workload, name, a, b, worse_by, spread, bound, result in rows:
        b_text = "-" if b is None else f"{b['value']:.5g}"
        print(f"{workload:<15} {name:<24} {a['value']:>11.5g} {b_text:>11} "
              f"{_pct(worse_by):>9} {_pct(spread):>8} {100 * bound:>6.2f}%"
              f"  {result}")
    counts = {v: sum(r[-1] == v for r in rows)
              for v in ("ok", "worse", "unresolved")}
    print(f"{len(rows)} pairs: {counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
