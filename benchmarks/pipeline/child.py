"""The measuring process: one workload, one caller, one call at a time.

The parent starts this module in a fresh interpreter and writes one
JSON header line followed by the workload's raw input bytes to its
stdin; the child answers with one JSON object on stdout. It never sees
the seed or the generators, only bytes.

* ``python -m benchmarks.pipeline.child`` measures a workload
  (:func:`measure`): one untimed warm-up call per unit, then the timed
  loop, then (with tracing on) the traced replay.
* ``python -m benchmarks.pipeline.child --setup`` is one set-up sample:
  import ``repro`` and make one compress + decompress call per profile
  on the bytes it is given. The parent times the whole interpreter.

Every compress and decompress call is an *op*. A compress op fails if
it raises or if CPython's ``zlib.decompress`` or our own decompress
does not give the input back; a decompress op fails if it raises or
returns other bytes. The traced replay's byte-identity check is an op
too. Failures are counted, never raised.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import zlib
from time import perf_counter
from typing import Callable, Dict, List, Optional

PROFILES = ("fastest", "balanced", "best")

#: Minimum timed samples per unit: 3 for ``best`` compress, 7 for the
#: rest. Units faster than their share of ``--seconds`` get more.
MIN_SAMPLES = {"best.compress": 3}
DEFAULT_MIN_SAMPLES = 7

#: Upper limit on samples of one unit in one run.
MAX_SAMPLES = 200

#: A unit whose pass takes less than this repeats the pass within one
#: sample, so no sample is shorter than this.
SAMPLE_FLOOR_S = 0.05

#: Iterations of the host reference loop (:func:`reference_mops`).
REFERENCE_ITERATIONS = 200_000

MB = 1e6


class Ops:
    """Attempted and failed op counts, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def _call(fn: Callable, *args, **kwargs):
    """``fn``'s result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed op by the caller
        return exc


def _round_trips(stream: bytes, payload: bytes) -> bool:
    """Both CPython's zlib and our decoder give ``payload`` back."""
    from repro.deflate import zlib_container

    try:
        return (zlib.decompress(stream) == payload
                and zlib_container.decompress(stream) == payload)
    except Exception:  # any decode error means the stream is wrong
        return False


def plan_samples(costs: Dict[str, float], seconds: float,
                 floor: Optional[int] = None) -> Dict[str, int]:
    """Samples per unit: an equal share of ``seconds`` for every unit.

    A unit never gets fewer samples than its minimum (``floor``
    overrides every minimum), so a slow unit's minimum can make the loop
    last longer than ``seconds``, nor more than :data:`MAX_SAMPLES`.
    """
    share = seconds / len(costs)
    plan = {}
    for unit, cost in costs.items():
        minimum = (floor if floor is not None
                   else MIN_SAMPLES.get(unit, DEFAULT_MIN_SAMPLES))
        plan[unit] = max(minimum, min(MAX_SAMPLES, int(share / cost)))
    return plan


def reference_mops() -> float:
    """Million iterations per second of a fixed pure-Python loop.

    Timed in the same process as the pipeline, so throughputs divided
    by it can be trended across hosts of different speed.
    """
    rates = []
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        rates.append(REFERENCE_ITERATIONS / (perf_counter() - start) / MB)
    return statistics.median(rates)


class Pipeline:
    """The timed units over one workload's inputs.

    Each unit runs one *sample*: ``repeat`` passes over its calls
    (every call payload once, or one batch call), each timed and then
    checked outside the timing. It returns the mean wall time of a
    pass, or ``None`` if any op in the sample failed. A unit's first
    sample is its warm-up: its verified outputs become the reference
    that later byte-equal outputs are checked against.
    """

    def __init__(self, calls: List[bytes], batch: List[bytes],
                 ops: Ops) -> None:
        self.calls = calls
        self.batch = batch
        self.ops = ops
        #: Unit -> verified output per payload (``None`` where it failed).
        self.reference: Dict[str, list] = {}

    def units(self) -> Dict[str, Callable[[int], Optional[float]]]:
        units: Dict[str, Callable[[int], Optional[float]]] = {}
        for profile in PROFILES:
            units[f"{profile}.compress"] = (
                lambda repeat, p=profile: self.compress(p, repeat))
        for profile in PROFILES:
            units[f"{profile}.decompress"] = (
                lambda repeat, p=profile: self.decompress(p, repeat))
        units["batch.compress"] = self.compress_batch
        return units

    def _verify(self, unit: str, streams: list, payloads: List[bytes],
                count: bool = True) -> bool:
        reference = self.reference.get(unit)
        verified = []
        good = True
        for index, (stream, payload) in enumerate(zip(streams, payloads)):
            if isinstance(stream, Exception):
                ok, why = False, f"raised {stream!r}"
            elif reference is not None and reference[index] is not None \
                    and stream == reference[index]:
                ok, why = True, ""
            else:
                ok, why = _round_trips(stream, payload), "no round trip"
            if count:
                self.ops.record(ok, f"{unit}[{index}] {why}")
            good = good and ok
            verified.append(stream if ok else None)
        if reference is None:
            self.reference[unit] = verified
        return good

    def compress(self, profile: str, repeat: int = 1) -> Optional[float]:
        from repro import api

        unit = f"{profile}.compress"
        total, good = 0.0, True
        for _ in range(repeat):
            streams = []
            start = perf_counter()
            for payload in self.calls:
                streams.append(_call(api.compress, payload, profile=profile))
            total += perf_counter() - start
            good = self._verify(unit, streams, self.calls) and good
        return total / repeat if good else None

    def decompress(self, profile: str, repeat: int = 1) -> Optional[float]:
        from repro.deflate import zlib_container

        pairs = [(stream, payload) for stream, payload in zip(
            self.reference[f"{profile}.compress"], self.calls)
            if stream is not None]
        total, good = 0.0, bool(pairs)
        for _ in range(repeat):
            outputs = []
            start = perf_counter()
            for stream, _ in pairs:
                outputs.append(_call(zlib_container.decompress, stream))
            total += perf_counter() - start
            for index, (out, (_, payload)) in enumerate(zip(outputs, pairs)):
                why = (f"raised {out!r}" if isinstance(out, Exception)
                       else "returned other bytes")
                good = self.ops.record(
                    out == payload, f"{profile}.decompress[{index}] {why}"
                ) and good
        return total / repeat if good else None

    def compress_batch(self, repeat: int = 1) -> Optional[float]:
        import repro

        total, good = 0.0, True
        for _ in range(repeat):
            start = perf_counter()
            result = _call(repro.compress_batch, self.batch)
            total += perf_counter() - start
            if isinstance(result, Exception):
                ok, why = False, f"batch raised {result!r}"
            else:
                streams = list(result.streams)
                ok = len(streams) == len(self.batch) and self._verify(
                    "batch.compress", streams, self.batch, count=False)
                why = "batch streams do not round-trip"
            good = self.ops.record(ok, why) and good
        return total / repeat if good else None

    def output_bytes(self, unit: str) -> int:
        return sum(len(s) for s in self.reference[unit] if s is not None)


def summary(values: List[float], unit: str) -> dict:
    """A metric from its samples: median, quartiles, ``n``, samples.

    Quartiles are those of ``statistics.quantiles(values, n=4)``.
    """
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _throughput(nbytes: int, times: List[float]) -> dict:
    """MB/s from per-sample wall times."""
    return summary([nbytes / t / MB for t in times], "MB/s")


def _exact(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit, "q1": value, "q3": value, "n": 1}


def measure(calls: List[bytes], batch: List[bytes], *, seconds: float,
            trace: bool, workload: str = "workload",
            floor: Optional[int] = None) -> dict:
    """Warm up, run the timed loop and (with ``trace``) the replay.

    Returns ``attempted``/``failed``/``errors``, the ``end_to_end``
    metrics (except ``setup_s``, which the parent measures), the
    ``per_layer`` metrics when traced, the sample plan, and the
    recorded ``spans``.
    """
    ops = Ops()
    pipe = Pipeline(calls, batch, ops)
    units = pipe.units()
    costs = {}
    for unit, run in units.items():  # the untimed warm-up call
        start = perf_counter()
        run(1)
        costs[unit] = max(perf_counter() - start, 1e-6)
    repeats = {unit: max(1, math.ceil(SAMPLE_FLOOR_S / cost))
               for unit, cost in costs.items()}
    plan = plan_samples({unit: costs[unit] * repeats[unit]
                         for unit in units}, seconds, floor)
    times: Dict[str, List[float]] = {unit: [] for unit in units}
    for round_index in range(max(plan.values())):
        for unit, run in units.items():
            if round_index < plan[unit]:
                elapsed = run(repeats[unit])
                if elapsed is not None:
                    times[unit].append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    in_bytes = sum(len(p) for p in calls)
    e2e: Dict[str, dict] = {}
    for profile in PROFILES:
        unit = f"{profile}.compress"
        if times[unit]:
            e2e[f"{profile}.compress_mbps"] = _throughput(
                in_bytes, times[unit])
            e2e[f"{profile}.ratio"] = _exact(
                in_bytes / pipe.output_bytes(unit), "B/B")
        if times[f"{profile}.decompress"]:
            e2e[f"{profile}.decompress_mbps"] = _throughput(
                in_bytes, times[f"{profile}.decompress"])
    if times["batch.compress"]:
        batch_bytes = sum(len(p) for p in batch)
        e2e["batch.compress_mbps"] = _throughput(
            batch_bytes, times["batch.compress"])
        e2e["batch.ratio"] = _exact(
            batch_bytes / pipe.output_bytes("batch.compress"), "B/B")
    e2e["peak_rss_mb"] = _exact(peak_rss_mb, "MiB")

    result = {"end_to_end": e2e,
              "plan": {unit: {"samples": plan[unit],
                              "passes_per_sample": repeats[unit]}
                       for unit in units},
              "per_layer": {}, "spans": []}
    if trace:
        from benchmarks.pipeline.replay import traced_pass

        result["per_layer"], result["spans"] = traced_pass(
            pipe, workload, times)
    result.update(attempted=ops.attempted, failed=ops.failed,
                  errors=ops.errors)
    return result


def _setup_sample(data: bytes) -> dict:
    """One set-up sample's work: import, then one round trip per profile."""
    from repro import api
    from repro.deflate import zlib_container

    ops = Ops()
    for profile in PROFILES:
        stream = _call(api.compress, data, profile=profile)
        ok = not isinstance(stream, Exception) and _round_trips(stream, data)
        ops.record(ok, f"setup {profile} compress")
        out = (_call(zlib_container.decompress, stream)
               if ok else None)
        ops.record(out == data, f"setup {profile} decompress")
    return {"attempted": ops.attempted, "failed": ops.failed,
            "errors": ops.errors}


def main() -> int:
    header = json.loads(sys.stdin.buffer.readline())
    data = sys.stdin.buffer.read()
    if "--setup" in sys.argv[1:]:
        result = _setup_sample(data)
    else:
        calls = _split(data, header["calls"])
        batch = _split(data, header["batch"])
        result = measure(calls, batch, seconds=header["seconds"],
                         trace=header["trace"], workload=header["workload"],
                         floor=header.get("floor"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _split(data: bytes, lengths: List[int]) -> List[bytes]:
    out, offset = [], 0
    for length in lengths:
        out.append(data[offset:offset + length])
        offset += length
    return out


if __name__ == "__main__":
    sys.exit(main())
