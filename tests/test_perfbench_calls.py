"""The library calls of the benchmark (perfbench/child.py) at a small size.

Only tests/ is collected by the default test run, so without this file
nothing there would fail if the benchmark's calls stopped working, for
example if norm_equivalence_ratio or analyze lost their basis= argument.
child.py is loaded by path and only read; the sizes are those of the
"sweep-d48" and "suite-d64" entries of perfbench/test_perfbench.py.
"""

import importlib.util
from pathlib import Path

import blaschke_lab as bl
from blaschke_lab import checks, cli, report

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_passes_its_gate():
    child = load_child()
    spec = {
        "kind": "sweep",
        "zeros": [[0.5, 0.0], [-0.3, 0.2], [0.1, 0.0]],
        "degree": 48,
        "shells": 12,
        "weights": [-1.0, 0.0, 1.0],
        "samples": 10,
        "max_degree": 10,
        "seed": 3,
    }
    result = child.sweep_pass(child.sweep_inputs(spec, bl), spec, bl)
    ops, failures = child.sweep_gate(result, checks)
    assert failures == []
    assert ops == 40  # 3 weights x 10 ratios, then 10 round trips


def test_suite_battery_passes_its_gate():
    child = load_child()
    B = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}, {"re": -0.3, "im": 0.0, "mult": 1}]}
    spec = {
        "kind": "battery",
        "command": "suite",
        "config": {"B": B, "alpha": -1.0, "degree": 64, "inputs": {}, "seed": 3},
    }
    result = child.battery_pass(child.battery_inputs(spec, cli), cli, report)
    ops, failures = child.battery_gate(result, report)
    assert failures == []
    assert ops == 25  # 24 checks and the canonical round trip
