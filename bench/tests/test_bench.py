"""Self-tests of the benchmark: span arithmetic, tracing, inputs, and a smoke run.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from inputs import WORKLOAD_NAMES, _generator, edge_list, reference_core_csv  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import TracePoint, Tracer, self_times  # noqa: E402
from units import PER_LAYER  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 6.5]
    spans = [
        ["root", 0.0, 10.0, -1, -1, None],
        ["a", 1.0, 4.0, 0, -1, None],
        ["b", 2.0, 3.0, 1, -1, None],
        ["a", 5.0, 6.5, 0, -1, None],
    ]
    times = self_times(spans)
    assert times["root"] == (1, pytest.approx(10.0 - 3.0 - 1.5))
    assert times["a"] == (2, pytest.approx((3.0 - 1.0) + 1.5))
    assert times["b"] == (1, pytest.approx(1.0))
    assert sum(t for _, t in times.values()) == pytest.approx(10.0)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(x, n):
        return sum(mod.leaf(x) for _ in range(n))

    class Builder:
        @classmethod
        def make(cls, x):
            return mod.leaf(x)

    mod.leaf, mod.outer, mod.Builder = leaf, outer, Builder
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_tracer_wraps_restores_and_marks_absent(fake_module):
    leaf, make = fake_module.leaf, fake_module.Builder.__dict__["make"]
    points = (
        TracePoint("leaf", "fake_layer", "leaf"),
        TracePoint("outer", "fake_layer", "outer", unit=True, note=lambda args: args[1]),
        TracePoint("build", "fake_layer:Builder", "make"),
        TracePoint("gone", "fake_layer", "deleted_function"),
        TracePoint("gone_module", "no_such_module_here", "anything"),
    )
    tracer = Tracer()
    tracer.install(points)
    assert fake_module.outer(1, 3) == 6
    assert fake_module.Builder.make(4) == 5
    tracer.uninstall()
    assert fake_module.leaf is leaf
    assert fake_module.Builder.__dict__["make"] is make
    assert tracer.absent == {"gone", "gone_module"}

    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "leaf", "leaf", "leaf", "build", "leaf"]
    outer_span = tracer.spans[0]
    assert outer_span[5] == 3
    assert all(span[3] == 0 and span[4] == 0 for span in tracer.spans[1:4])
    assert tracer.spans[5][3] == 4 and tracer.spans[5][4] == -1
    assert tracer.count("leaf") == 4 and tracer.count("leaf", 0, 4) == 3


def test_tracer_call_is_plain_when_not_installed():
    tracer = Tracer()
    assert tracer.call("x", max, 2, 3) == 3
    assert tracer.spans == []


def test_reference_core_agrees_with_ringlab(tmp_path):
    from ringlab.cli import main

    users, rings = edge_list(_generator(7, "core_cli"), 300, 280)
    path = tmp_path / "edges.txt"
    path.write_text("300 280\n" + "".join(f"{u} {r}\n" for u, r in zip(users, rings)))
    out = tmp_path / "out.csv"
    assert main(["core", str(path), "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == reference_core_csv(300, 280, users, rings)


def test_core_cli_input_is_pinned_for_seed_0():
    users, rings = edge_list(_generator(0, "core_cli"), 2048, 1920)
    text = "2048 1920\n" + "".join(f"{u} {r}\n" for u, r in zip(users.tolist(), rings.tolist()))
    assert users.size == 15745
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5a64427b39bca50e44dccd6743df4933e47855a8637854e6a5d09bc7b7de17ca")
    csv = reference_core_csv(2048, 1920, users, rings)
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "55fbcfd9233239d58c9863ba988050e7c975858b3bd99e8fef636a51efdafaf7")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_smoke_all_workloads_traced():
    proc = _run("--workload", "all", "--tiny", "--seconds", "1", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for w in WORKLOAD_NAMES:
        assert all(f"{w}.{name}" in metrics for name, _ in PER_LAYER)
    assert metrics["core_cli.cli.matchings_per_invocation"] == 2
    assert metrics["campaign.adversary.core_flags_per_trial.trivial"] == 1
    assert metrics["campaign.adversary.core_flags_per_trial.core"] == 2
    assert metrics["grid_small.samplers.floyd.calls"] == metrics["grid_small.graph.sc_check.calls"]
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["host"]["nproc"] >= 1
    assert all(not summary["absent"] for summary in record["workloads"].values())


def test_smoke_one_workload_end_to_end():
    proc = _run("--workload", "core_cli", "--tiny", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "grid_small", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
