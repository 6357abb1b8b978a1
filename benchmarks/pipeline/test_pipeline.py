"""Tests of the pipeline benchmark itself.

Run from the repository root (tier-1 ``pytest`` collects only
``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.pipeline import child, compare, replay, workloads

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/pipeline", *args],
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=170)


def test_quick_run_reports_every_named_metric(tmp_path):
    out = tmp_path / "result.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, record in report["workloads"].items():
        assert record["failed"] == 0, record["errors"]
        for kind in ("end_to_end", "per_layer"):
            got = {m: v["unit"] for m, v in record[kind].items()}
            assert got == _units(kind), (name, kind)
        # Stage spans cover most of each op even at 16 KiB, where a
        # stored block decodes in microseconds (full runs: above 95%).
        assert record["per_layer"]["trace.attributed_pct"]["value"] > 50
        spans = json.loads((tmp_path / f"trace-{name}.json").read_text())
        assert spans["fields"] == list(replay.SPAN_FIELDS)
        assert spans["spans"]
        assert spans["meta"] == report["meta"]
    for key in ("seed", "nproc", "python", "numpy", "repeats"):
        assert key in report["meta"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert len(last["metrics"]) \
        == len(SPEC["per_layer"]) * len(SPEC["workloads"])


def test_trace_0_last_line_is_the_end_to_end_set(tmp_path):
    proc = _run("--quick", "--workload", "messages", "--seed", "5",
                "--trace", "0", "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {m: v["unit"] for m, v in last["metrics"].items()} \
        == _units("end_to_end")
    assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_replay_is_byte_identical_to_api_compress(name):
    from repro import api

    rec = replay.Recorder()
    for profile in child.PROFILES:
        for index, payload in enumerate(
                workloads.build(name, 3, quick=True).calls):
            stream = replay.compress(payload, profile, rec, f"t/{profile}",
                                     replay.CompressStats())
            assert stream == api.compress(payload, profile=profile), \
                (name, profile, index)
            assert replay.decompress(stream, rec, "t") == payload


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.NAMES:
        a = workloads.build(name, 7, quick=True)
        assert a == workloads.build(name, 7, quick=True)
        assert a.data != workloads.build(name, 8, quick=True).data
        assert b"".join(a.batch) == a.data


def test_corrupt_stream_counts_as_failed_op(monkeypatch):
    from repro import api

    real = api.compress

    def corrupting(data, **kwargs):
        stream = real(data, **kwargs)
        if kwargs.get("profile") == "balanced":
            return stream[:-1] + bytes([stream[-1] ^ 1])  # bad Adler-32
        return stream

    monkeypatch.setattr(api, "compress", corrupting)
    wl = workloads.build("syslog", 1, quick=True)
    result = child.measure(wl.calls, wl.batch, seconds=0, trace=True,
                           workload="syslog", floor=1)
    assert 0 < result["failed"] < result["attempted"]
    assert "balanced.compress_mbps" not in result["end_to_end"]
    assert "fastest.compress_mbps" in result["end_to_end"]
    assert any("balanced.compress" in e for e in result["errors"])


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PACKAGE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("--workload", "wiki", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _metric(value, q1, q3, samples=None):
    return {"value": value, "q1": q1, "q3": q3, "samples": samples}


def test_compare_verdicts():
    base = _metric(10.0, 9.9, 10.1)
    assert compare.verdict(base, _metric(9.5, 9.4, 9.6), 0.1, True)[0] == "ok"
    assert compare.verdict(base, _metric(8.5, 8.4, 8.6), 0.1, True)[0] \
        == "worse"
    assert compare.verdict(base, _metric(8.5, 8.4, 8.6), 0.1, False)[0] \
        == "ok"
    noisy = _metric(8.5, 7.0, 10.0, [7.0, 8.5, 10.0])
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"
    better = _metric(13.0, 11.0, 15.0, [11.0, 13.0, 15.0])
    base_samples = _metric(10.0, 9.9, 10.1, [9.9, 10.0, 10.1])
    assert compare.verdict(base_samples, better, 0.1, True)[0] == "ok"
    assert compare.verdict(base, None, 0.1, True)[0] == "worse"


def _report(seed=1, quick=False, seconds=10, end_to_end=None):
    return {"meta": {"seed": seed, "quick": quick, "seconds": seconds},
            "workloads": {"wiki": {"end_to_end": end_to_end or {
                "best.ratio": _metric(2.0, 2.0, 2.0),
                "best.compress_mbps": _metric(1.0, 0.99, 1.01)}}}}


def test_compare_missing_pair_is_worse_and_other_runs_are_refused(
        tmp_path, capsys):
    def run(a, b):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, report in zip(paths, (a, b)):
            path.write_text(json.dumps(report))
        return compare.main([str(p) for p in paths])

    assert run(_report(), _report()) == 0
    crashed = _report(end_to_end={"best.ratio": _metric(2.0, 2.0, 2.0)})
    assert run(_report(), crashed) == 1
    assert "best.compress_mbps" in [
        line.split()[1] for line in capsys.readouterr().out.splitlines()
        if line.endswith("worse")]
    gone = _report()
    gone["workloads"] = {}
    assert run(_report(), gone) == 1
    for other in (_report(seed=2), _report(quick=True),
                  _report(seconds=5)):
        assert run(_report(), other) == 2


def test_plan_samples_shares_time_within_the_limits():
    costs = {"best.compress": 2.0, "fastest.compress": 0.001,
             "fastest.decompress": 0.125}
    plan = child.plan_samples(costs, seconds=9.0)
    # A 3 s share each: best is held at its minimum, the fastest unit
    # at the cap, and the other fills its share.
    assert plan["best.compress"] == 3
    assert plan["fastest.decompress"] == 24
    assert plan["fastest.compress"] == child.MAX_SAMPLES
    assert child.plan_samples(costs, seconds=0.0, floor=1) == {
        unit: 1 for unit in costs}
