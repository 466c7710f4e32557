"""The library calls of the benchmark (perfbench/child.py) at a small size,
and the layer names its tracer (perfbench/tracing.py) wraps.

Only tests/ is collected by the default test run, so without this file
nothing there would fail if the benchmark's calls stopped working, for
example if norm_equivalence_ratio or analyze lost their basis= argument,
or if a traced layer were renamed (the tracer then only reports it with
zero calls). child.py and tracing.py are loaded by path and only read; the
sizes are those of the "sweep-d48" and "suite-d64" entries of
perfbench/test_perfbench.py, except where a test runs the "mobius-d256" or
"suite-d256" workload of perfbench/run.py as it stands.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import blaschke_lab as bl
from blaschke_lab import checks, cli, report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_child():
    return load("child")


def test_every_traced_layer_resolves():
    tracing = load("tracing")
    missing = []
    for name in tracing.LAYERS:
        mod_name, *qual = name.split(".")
        owner = importlib.import_module(f"blaschke_lab.{mod_name}")
        for attr in qual:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
    # the cell counters bind these arguments of cell_matrix by name
    assert {"basis", "B", "M", "D"} <= set(inspect.signature(bl.wold.cell_matrix).parameters)


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


def workload(name):
    """perfbench/run.WORKLOADS[name], read from the source: the entry is
    evaluated among the literal constants assigned above it (_SUITE_B)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WORKLOADS"]:
            [spec] = [v for k, v in zip(node.value.keys, node.value.values) if ast.literal_eval(k) == name]
            return eval(compile(ast.Expression(spec), "run.py", "eval"), {"__builtins__": {}}, constants)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    raise LookupError("perfbench/run.py assigns no WORKLOADS")


def test_mobius_battery_passes_its_gate():
    child = load_child()
    spec = workload("mobius-d256")
    spec["config"]["seed"] = 3
    result = child.battery_pass(child.battery_inputs(spec, cli), cli, report)
    ops, failures = child.battery_gate(result, report)
    assert failures == []
    assert ops == 4  # k0_orthogonality, the residuals of classes 0 and 1, and the canonical round trip


def svd_values(monkeypatch) -> list:
    """The largest singular value of each np.linalg.svd call from here on."""
    values, svd = [], np.linalg.svd

    def spy(*args, **kw):
        s = svd(*args, **kw)
        values.append(s[0])
        return s

    monkeypatch.setattr(np.linalg, "svd", spy)
    return values


def test_mobius_battery_certifies_its_norms_without_an_svd(monkeypatch):
    # the residuals of b_a^N are limited by its tail past the window and so
    # dominated by one direction: operator_norm_safe returns ||S||_F
    spec = workload("mobius-d256")
    spec["config"]["seed"] = 3
    values = svd_values(monkeypatch)
    rep = cli.run(cli.parse_config(spec["config"], spec["command"]))
    assert rep.all_passed
    assert values == []


def test_suite_commutation_residuals_are_largest_singular_values(monkeypatch):
    # rounding-level commutators have a flat spectrum and keep the SVD
    spec = workload("suite-d256")
    spec["config"]["seed"] = 3
    values = svd_values(monkeypatch)
    rep = cli.run(cli.parse_config(spec["config"], spec["command"]))
    commutation = [r.residual for r in rep.records if r.name.endswith("/commutation")]
    assert rep.all_passed and len(commutation) == 3
    assert all(r in values for r in commutation)


def test_suite_analyzes_one_function_only_in_decompose(monkeypatch):
    # wold.analyze.calls of a traced suite pass: the symbols and the
    # intertwiner images are each analysed in one product E^H F, so only
    # the round trips of decompose (5 samples by default) call analyze
    calls, analyze = [], bl.wold.analyze

    def counted(*args, **kw):
        calls.append(args[0])
        return analyze(*args, **kw)

    for name, module in list(sys.modules.items()):
        if name == "blaschke_lab" or name.startswith("blaschke_lab."):
            for attr, value in list(vars(module).items()):
                if value is analyze:
                    monkeypatch.setattr(module, attr, counted)
    B = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}, {"re": -0.3, "im": 0.0, "mult": 1}]}
    rep = cli.run(cli.parse_config({"B": B, "alpha": -1.0, "degree": 64, "inputs": {}, "seed": 3}, "suite"))
    assert rep.all_passed
    assert len(calls) == 5
