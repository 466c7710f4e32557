"""Smoke test of the benchmark itself, at tiny D.

Run with: python -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "suite-d64": {
        "kind": "battery",
        "command": "suite",
        "config": {"B": run._SUITE_B, "alpha": -1.0, "degree": 64, "inputs": {}},
    },
    "sweep-d48": {
        "kind": "sweep",
        "zeros": [[0.5, 0.0], [-0.3, 0.2], [0.1, 0.0]],
        "degree": 48,
        "shells": 12,
        "weights": [-1.0, 0.0, 1.0],
        "samples": 10,
        "max_degree": 10,
    },
    "mobius-d64": {
        "kind": "battery",
        "command": "reducing",
        "config": {
            "B": {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 2}]},
            "alpha": -1.0,
            "degree": 64,
            "inputs": {"family": "mobius_power", "a": [0.5, 0.0]},
        },
    },
}


def bench(capsys, workloads, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        workloads=workloads,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, lines, result = bench(capsys, TINY, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert f"{name} {m['value']!r} {m['unit']}" in lines
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "git_commit", "seed"):
        assert key in env


def test_trace_counts_shell_cells(capsys):
    _, _, result = bench(capsys, TINY, "suite-d64", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["wold.cell_matrix.calls"] > m["wold.cell_matrix.keys"] > 0
    assert m["checks.decompose_checks.calls"] == 1
    assert m["reducing.mobius_power_reducing_projection.calls"] == 0
    assert 0 <= m["wold.cell_matrix.self_s"] <= m["wold.cell_matrix.total_s"]


def test_failed_check_raises_fail_frac_and_exit_code(capsys):
    failing = json.loads(json.dumps(TINY["suite-d64"]))
    failing["config"]["tolerances"] = {"roundtrip": 0.0}
    code, lines, result = bench(capsys, {"suite-d64": failing}, "suite-d64", 0)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    fail_frac = next(line for line in lines if line.startswith("fail_frac "))
    assert float(fail_frac.split()[1]) > 0


def test_no_sources_exits_nonzero_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "suite-d64", "--seed", "0", "--seconds", "1", "--trace", "0"], workloads=TINY)
    assert code != 0
    assert capsys.readouterr().out == ""
