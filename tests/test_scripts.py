"""Smoke tests: every script under scripts/ runs to exit 0 at a small size,
and so do the README's python examples."""

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
                  "norm_equivalence_ratio_s", "build_s",
                  "commutation_residual_s", "realization_s", "operator_norm_safe_s",
                  "operator_norm_safe_rank_one_s", "operator_norm_safe_zero_s",
                  "mobius_projection_s", "reducing_residual_s")
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
