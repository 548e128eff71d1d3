"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import read_spans  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(workload: str, trace: int) -> dict:
    p = bench(workload, trace)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def expected_units(key: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[key]}


def check_shape(res: dict, key: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == expected_units(key)
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    res = result(workload, 0)
    check_shape(res, "end_to_end")
    for m in res["metrics"].values():
        assert m["value"] != 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    check_shape(first, "per_layer")
    counts = {k for k, u in expected_units("per_layer").items()
              if u in ("count", "cycles", "kcyc", "ratio")}
    assert counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
    spans = read_spans(HERE / "out" / f"spans-{workload}-seed1-trace1.bin")
    assert spans
    for i, (_name, parent, _run, start, end) in enumerate(spans):
        assert -1 <= parent < i and start <= end
        assert parent == -1 or spans[parent][3] <= start <= end <= spans[parent][4]
    m = first["metrics"]
    if workload.startswith("matmul24"):
        assert m["ecc.decode.calls"]["value"] == 0
    if workload == "matmul24-parallel":
        assert m["soc.fast_burst.calls"]["value"] == 0


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
