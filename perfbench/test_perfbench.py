"""Tests of the benchmark itself, at the small sizes (--seconds below FULL_SECONDS).

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

import json
import shutil
import subprocess
import sys
import time

import run

SPEC = run.load_spec()
SCRIPT = str(run.ROOT / "perfbench" / "run.py")


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, SCRIPT, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_metric_name():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench("--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        for m in SPEC[kind]:
            assert m["name"] in proc.stdout, (trace, m["name"])


def test_one_workload_reports_exactly_the_declared_metrics():
    result = last_json(bench("--workload", "large", "--seconds", "1"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_planted_wrong_reference_shows_in_failed(monkeypatch):
    run.import_slimlat()
    import oracle
    import workloads

    monkeypatch.setitem(oracle.ENUM_COUNTS, 5, 20)
    tally = run.Tally()
    run.measure(workloads.Enumerate(full=False), 1, 1, tally)
    assert tally.attempted >= 1
    assert tally.failed == tally.wrong == tally.attempted


def test_traced_call_counts_repeat_for_a_seed():
    for name in (w["name"] for w in SPEC["workloads"]):
        first, second = (
            last_json(bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1"))
            for _ in range(2)
        )
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        assert calls == {k: second["metrics"][k]["value"] for k in calls}, name
        assert sum(calls.values()) > 0


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_clock_counts_work_and_leaves_out_its_probes():
    from refclock import RefClock

    with RefClock() as ref:
        start = ref.now()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        took = ref.now() - start
    assert ref.probes > 5
    assert 0.03 < took < 3.0
