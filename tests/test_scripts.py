"""Smoke tests: every script under scripts/ runs to exit 0 at a small size,
and so do the README's python examples."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str | Path, *args: str) -> subprocess.CompletedProcess:
    """Run scripts/<script>, or the file at a Path, with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script if isinstance(script, Path) else ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("residual_vs_shells.py", ["--degree", "48", "--samples", "3"]),
        ("equivalence_constants.py", ["--degree", "48", "--samples", "5"]),
    ],
)
def test_script_exits_zero(script, args):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr


def test_run_suite_writes_report(tmp_path):
    out = tmp_path / "suite.json"
    proc = _run("run_suite.py", "--degree", "64", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0


def test_layer_timings_writes_json(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    proc = _run("layer_timings.py", "--degrees", "64", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["rows"]
    assert [(r["product"], r["D"]) for r in rows] == [("B2", 64), ("(0.8, -0.79i)", 64)]
    for r in rows:
        layers = ("shell_count_s", "power_count_s", "model_basis_s", "x_spaces_s", "cell_matrix_s", "analyze_synthesize_s",
                  "norm_equivalence_ratio_s", "norm_equivalence_ratio_first_s", "build_s",
                  "commutation_residual_s", "realization_s", "operator_norm_safe_s",
                  "operator_norm_safe_rank_one_s", "operator_norm_safe_zero_s",
                  "mobius_projection_s", "reducing_residual_s", "mobius_residual_s", "mobius_sections_s",
                  "monomial_reducing_s")
        assert r["M"] > 0 and min(r[k] for k in layers) > 0


def test_readme_python_examples_run(tmp_path):
    # the docs call the library as it is: every ```python block of the README
    # runs, in order, in one fresh interpreter
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert blocks
    script = tmp_path / "readme_examples.py"
    script.write_text("\n".join(blocks), encoding="utf-8")
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


#: one config each of the Mobius battery, the ortho chain and decompose with an explicit f
COMPARED = ["ortho/kmax/alpha=-1.0/D=64", "decompose/f/alpha=0.0/D=64", "mobius/a=0.5/N=2/D=64"]


def _compare_reports(monkeypatch, edit=None):
    """scripts/compare_reports.py as a module whose base tree is this tree; edit(labels, reports), when given,
    changes the reports of the second tree run, the tree under comparison."""
    spec = importlib.util.spec_from_file_location("compare_reports", ROOT / "scripts" / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "CONFIGS", [c for c in module.CONFIGS if c[0] in COMPARED])
    monkeypatch.setattr(module, "extract", lambda rev, dest: ROOT / "src")
    runs, tree_reports = [], module.tree_reports

    def run(src, configs):
        reports = tree_reports(src, configs)
        runs.append(src)
        if edit is not None and len(runs) == 2:
            edit([label for label, _, _ in configs], reports)
        return reports

    monkeypatch.setattr(module, "tree_reports", run)
    return module


def test_compare_reports_of_the_tree_with_itself_are_the_same(monkeypatch, capsys):
    cr = _compare_reports(monkeypatch)
    assert cr.main(["--base", "HEAD"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"same {label}" for label in COMPARED] + ["3 configs: 3 same, 0 differ; record status changed: no"]


def test_compare_reports_prints_a_moved_residual(monkeypatch, capsys):
    def nudge(labels, reports):
        report = reports[labels.index("mobius/a=0.5/N=2/D=64")]
        report["sha256"] = "moved"
        record = next(r for r in report["records"] if r[0] == "reducing/mobius_1/residual")
        record[3] *= 1.5

    cr = _compare_reports(monkeypatch, nudge)
    assert cr.main(["--base", "HEAD"]) == 0
    out = capsys.readouterr().out.splitlines()
    i = out.index("DIFF mobius/a=0.5/N=2/D=64")
    assert out[i + 1].startswith("    reducing/mobius_#/residual: largest |move| ")
    assert "relative 5.000e-01" in out[i + 1]
    assert out[-1] == "3 configs: 2 same, 1 differ; record status changed: no"


def test_compare_reports_exits_one_on_a_flipped_status(monkeypatch, capsys):
    def flip(labels, reports):
        reports[labels.index("ortho/kmax/alpha=-1.0/D=64")]["records"][0][1] = False

    cr = _compare_reports(monkeypatch, flip)
    assert cr.main(["--base", "HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "same ortho/kmax/alpha=-1.0/D=64"
    assert out[1].startswith("    ortho/") and out[1].endswith(": pass None -> fail None")
    assert out[-1].endswith("record status changed: yes")


def test_compare_reports_sweep_of_the_tree_with_itself_is_identical(monkeypatch, capsys):
    cr = _compare_reports(monkeypatch)
    monkeypatch.setattr(cr, "SWEEP_SEEDS", (3,))
    assert cr.main(["--base", "HEAD", "--sweep"]) == 0
    assert capsys.readouterr().out.splitlines() == ["same shell-sweep-d96/seed=3", "1 sweeps: 1 same, 0 differ"]


def test_compare_reports_sweep_prints_a_moved_value(monkeypatch):
    cr = _compare_reports(monkeypatch)
    old = [[-1.0, [(1.0).hex(), (2.0).hex()]], ["roundtrip", [(1e-15).hex()]]]
    new = [[-1.0, [(1.0).hex(), (2.5).hex()]], ["roundtrip", [(1e-15).hex()]]]
    assert cr.compare_sweep(0, old, old) == ["same shell-sweep-d96/seed=0"]
    assert cr.compare_sweep(0, old, new) == ["DIFF shell-sweep-d96/seed=0", "    -1.0: 1 of 2 moved, largest |move| 5.000e-01 (2.0 -> 2.5)"]
