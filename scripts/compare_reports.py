#!/usr/bin/env python3
"""Compare the canonical reports of this tree with those of a git revision.

Usage: python scripts/compare_reports.py --base REV

The revision is extracted with `git archive REV` into a temporary
directory. Each tree runs the config set CONFIGS through cli.parse_config and
cli.run, all in one child interpreter per tree, with BLAS pinned to one thread. Per config it prints
"same" or "DIFF" for the sha256 of the canonical report. Where the sha256
or any residual's bits differ, it prints each record whose status (pass or
fail) or error changed, and per record family (the record name with each
numeric label suffix read as #) the largest absolute and relative move of
a residual, with the two values.

Exit code 0 when no record changed status or error, 1 when one did (or a
config's records or its exception differ), 2 when a tree cannot be run.

Usage: python scripts/compare_reports.py --base REV --sweep

compares instead the shell-sweep-d96 benchmark pass of the two trees: per
seed of SWEEP_SEEDS, each tree runs sweep_inputs and sweep_pass of its own
perfbench/child.py on the workload spec of its own perfbench/run.py, and
every norm-equivalence ratio and round trip is compared by float.hex. It
prints "same" or "DIFF" per seed and, per weight (and for the round trips),
how many values moved and the largest move. Exit code 0 when every value
is bitwise the same, 1 when one moved, 2 when a tree cannot be run.
"""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _b(zeros) -> dict:
    """The config form of B with the given zeros, each a or (a, mult)."""
    out = []
    for z in zeros:
        a, mult = z if isinstance(z, tuple) else (z, 1)
        out.append({"re": complex(a).real, "im": complex(a).imag, "mult": mult})
    return {"theta": 0.0, "zeros": out}


def _configs() -> list[tuple[str, str, dict]]:
    """(label, command, config) of every compared report."""
    out = []
    # the suite over the regression matrix of tests/test_regression_matrix.py
    products = {
        "B2": [0.5, -0.3],
        "B3": [0.5, -0.3 + 0.2j, 0.1],
        "0.6 double": [(0.6, 2)],
        "0.8, -0.79i": [0.8, -0.79j],
        "near duplicate": [0.5, 0.5 + 1e-9, -0.3],
    }
    for seed in (0, 7):
        for name, zeros in products.items():
            for alpha in (-2.0, -1.0, 0.0, 1.0):
                for D in (48, 128, 256):
                    obj = {"B": _b(zeros), "alpha": alpha, "degree": D, "seed": seed, "inputs": {}}
                    out.append((f"suite/{name}/alpha={alpha}/D={D}/seed={seed}", "suite", obj))
    # the suite-d256 and mobius-d256 workloads of perfbench/run.py
    for seed in (0, 1, 7):
        obj = {"B": _b([0.5, -0.3]), "alpha": -1.0, "degree": 256, "seed": seed, "inputs": {}}
        out.append((f"suite-d256/seed={seed}", "suite", obj))
        mobius = {"family": "mobius_power", "a": [0.8, 0.0]}
        obj = {"B": _b([(0.8, 2)]), "alpha": -1.0, "degree": 256, "seed": seed, "inputs": mobius}
        out.append((f"mobius-d256/seed={seed}", "reducing", obj))
    # explicit inputs on B2
    h = [[0.5**k + (-0.3) ** k, 0.0] for k in range(61)]  # in the model space of B2
    explicit = {
        "f": ("decompose", {"f": [[1.0, 0.0], [0.5, -0.2], [0.25, 0.0]]}),
        "phi": ("commutant", {"phi": [[[[1.0, 0.0], [0.2, 0.1]], [[0.0, 0.0]]], [[[0.3, 0.0]], [[0.5, -0.5], [0.0, 0.1]]]]}),
        "custom-reducing": ("reducing", {"family": "custom", "basis": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "expected": "reducing"}),
        "custom-report-only": ("reducing", {"family": "custom", "basis": [[[0.2, 0.0], [1.0, 0.0]]], "expected": "report-only"}),
        "h": ("shift-equiv", {"mode": "general", "h": h}),
        "default-h": ("shift-equiv", {}),
        "kmax": ("ortho", {"kmax": 4}),
        "cowen-counts": ("cowen", {"num_points": 5, "radius": 0.3}),
        "decompose-counts": ("decompose", {"num_samples": 2, "max_degree": 8}),
    }
    for D in (64, 256):
        for alpha in (-1.0, 0.0):
            for name, (command, inputs) in explicit.items():
                obj = {"B": _b([0.5, -0.3]), "alpha": alpha, "degree": D, "seed": 0, "inputs": inputs}
                out.append((f"{command}/{name}/alpha={alpha}/D={D}", command, obj))
    # the default (monomial) family on products it does not reduce, so that its residuals are not zero
    for name in ("B2", "B3", "0.8, -0.79i"):
        for alpha in (-1.0, 0.0):
            for D in (64, 256):
                obj = {"B": _b(products[name]), "alpha": alpha, "degree": D, "seed": 0, "inputs": {}}
                out.append((f"reducing/monomial/{name}/alpha={alpha}/D={D}", "reducing", obj))
    # the suite on B = z^n, whose shift-equiv mode is monomial
    for n in (2, 3):
        for alpha in (-1.0, 0.0):
            for D in (64, 256):
                obj = {"B": _b([(0.0, n)]), "alpha": alpha, "degree": D, "seed": 0, "inputs": {}}
                out.append((f"suite/z^{n}/alpha={alpha}/D={D}", "suite", obj))
    # each tolerances key of the checks at a tenth of its default, on a battery that reads it
    b2, z2, mobius = [0.5, -0.3], [(0.0, 2)], {"family": "mobius_power"}
    readers = {  # key: (command, zeros, inputs, default)
        "roundtrip": ("decompose", b2, {}, 1e-8),
        "commute": ("commutant", b2, {}, 1e-8),
        "symbol_roundtrip": ("commutant", b2, {}, 1e-7),
        "reducing_monomial": ("reducing", b2, {}, 1e-10),
        "reducing_mobius": ("reducing", [(0.5, 2)], mobius, 1e-6),
        "k0_orthogonality": ("reducing", [(0.5, 2)], mobius, 1e-8),
        "projection_law": ("reducing", b2, {}, 1e-10),
        "block_orthogonality": ("ortho", b2, {}, 1e-9),
        "shift_action": ("ortho", b2, {}, 1e-8),
        "triangularity": ("ortho", b2, {}, 1e-7),
        "unitarity": ("shift-equiv", z2, {}, 1e-10),
        "intertwining": ("shift-equiv", z2, {}, 1e-13),
        "bnorm_identity": ("shift-equiv", b2, {}, 1e-9),
        "shell_shift": ("shift-equiv", b2, {}, 1e-8),
        "cowen_member": ("cowen", b2, {}, 1e-12),
        "witness_margin": ("cowen", b2, {}, 1.0),
    }
    overrides = [(key, command, zeros, inputs, {key: default / 10}) for key, (command, zeros, inputs, default) in readers.items()]
    # and three that change a status: an exact round trip fails, an exact commutation errors the
    # symbol round trips, and a report-only custom record passes whatever reducing_mobius says
    overrides += [
        ("roundtrip=0", "decompose", b2, {}, {"roundtrip": 0.0}),
        ("tol_commute=0", "commutant", b2, {}, {"tol_commute": 0.0}),
        ("report-only", "reducing", b2, explicit["custom-report-only"][1], {"reducing_mobius": 0.0}),
    ]
    for label, command, zeros, inputs, tolerances in overrides:
        obj = {"B": _b(zeros), "alpha": -1.0, "degree": 64, "seed": 0, "inputs": inputs, "tolerances": tolerances}
        out.append((f"tolerances/{label}/{command}", command, obj))
    # the Mobius-power family of b_a^N; D = 100 and 200 are no multiple of the section tile
    for a in (0.5, 0.3 + 0.4j, 0.8, -0.79j):
        for N in (2, 3, 4):
            for D in (64, 100, 128, 200, 256):
                inputs = {"family": "mobius_power", "a": [complex(a).real, complex(a).imag]}
                obj = {"B": _b([(a, N)]), "alpha": -1.0, "degree": D, "seed": 0, "inputs": inputs}
                out.append((f"mobius/a={a}/N={N}/D={D}", "reducing", obj))
    return out


CONFIGS = _configs()

#: runs [(label, command, config)] from stdin in the tree whose src/ is argv[1]
_CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from blaschke_lab import cli, report
out = []
for label, command, obj in json.load(sys.stdin):
    try:
        rep = cli.run(cli.parse_config(obj, command))
    except Exception as exc:
        out.append({"raised": f"{type(exc).__name__}: {exc}"})
        continue
    records = [[r.name, r.passed, r.error, r.residual] for r in rep.records]
    out.append({"sha256": hashlib.sha256(report.render(rep)).hexdigest(), "records": records})
json.dump(out, sys.stdout)
"""

#: the seeds of the shell-sweep-d96 passes that --sweep compares
SWEEP_SEEDS = (0, 1, 7)

#: runs the shell-sweep-d96 pass for each seed of the JSON list argv[3] in the tree whose src/ and perfbench/
#: are argv[1] and argv[2]; per seed, [[weight or "roundtrip", [float.hex of each value]]]
_SWEEP_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import blaschke_lab as bl
import child, run
out = []
for seed in json.loads(sys.argv[3]):
    spec = run.spec_for(run.WORKLOADS["shell-sweep-d96"], seed)
    ratios, roundtrips = child.sweep_pass(child.sweep_inputs(spec, bl), spec, bl)
    out.append([[alpha, [r.hex() for r in vals]] for alpha, vals in ratios] + [["roundtrip", [r.hex() for r in roundtrips]]])
json.dump(out, sys.stdout)
"""


def extract(rev: str, dest: Path) -> Path:
    """The src/ directory of `git archive rev`, unpacked under dest."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _run_child(code: str, src: Path, *args: str, stdin: str = ""):
    """The JSON that code prints, run with argv [src, *args] in a fresh interpreter with BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(src), *args], input=stdin, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the tree at {src} did not run:\n{proc.stderr}")
    return json.loads(proc.stdout)


def tree_reports(src: Path, configs: list) -> list[dict]:
    """Per config, {"sha256", "records": [[name, passed, error, residual]]} or {"raised"}."""
    return _run_child(_CHILD, src, stdin=json.dumps(configs))


def tree_sweep(src: Path) -> list[list]:
    """Per seed of SWEEP_SEEDS, the shell-sweep-d96 values of the tree whose src/ is src (see _SWEEP_CHILD)."""
    return _run_child(_SWEEP_CHILD, src, str(src.parent / "perfbench"), json.dumps(SWEEP_SEEDS))


def _family(name: str) -> str:
    """The record name with each numeric label suffix as #: reducing/mobius_1/residual -> reducing/mobius_#/residual."""
    return re.sub(r"_\d+(?=/|$)", "_#", name)


def compare(label: str, old: dict, new: dict) -> tuple[list[str], bool]:
    """The lines printed for one config, and whether a record changed status or error."""
    if "raised" in old or "raised" in new:
        changed = old.get("raised") != new.get("raised")
        return [f"{'DIFF' if changed else 'same'} {label}"] + changed * [f"    raised: {old.get('raised')} -> {new.get('raised')}"], changed
    lines = [f"{'same' if old['sha256'] == new['sha256'] else 'DIFF'} {label}"]
    if [r[0] for r in old["records"]] != [r[0] for r in new["records"]]:
        return lines + ["    the record names differ"], True
    changed, moves = False, {}
    for (name, passed, error, res), (_, passed_new, error_new, res_new) in zip(old["records"], new["records"]):
        if (passed, error) != (passed_new, error_new):
            changed = True
            lines.append(f"    {name}: {'pass' if passed else 'fail'} {error} -> {'pass' if passed_new else 'fail'} {error_new}")
        if math.isfinite(res) and math.isfinite(res_new) and res.hex() != res_new.hex():
            rel = abs(res_new - res) / abs(res) if res else math.inf
            moves.setdefault(_family(name), []).append((abs(res_new - res), rel, res, res_new))
    for family, found in moves.items():
        (d_abs, _, a0, a1), (_, d_rel, r0, r1) = max(found), max(found, key=lambda m: m[1])
        lines.append(f"    {family}: largest |move| {d_abs:.3e} ({a0!r} -> {a1!r}), relative {d_rel:.3e} ({r0!r} -> {r1!r})")
    return lines, changed


def compare_sweep(seed: int, old: list, new: list) -> list[str]:
    """The lines printed for the sweep of one seed: per weight or for the round trips, the values that moved."""
    lines = []
    for (name, vals), (_, vals_new) in zip(old, new):
        moved = [(abs(float.fromhex(y) - float.fromhex(x)), x, y) for x, y in zip(vals, vals_new) if x != y]
        if moved:
            d, x, y = max(moved)
            lines.append(f"    {name}: {len(moved)} of {len(vals)} moved, largest |move| {d:.3e} ({float.fromhex(x)!r} -> {float.fromhex(y)!r})")
    return [f"{'DIFF' if lines else 'same'} shell-sweep-d96/seed={seed}"] + lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="the git revision to compare against")
    ap.add_argument("--sweep", action="store_true", help="compare the shell-sweep-d96 values bit for bit instead of the reports")
    args = ap.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            base_src = extract(args.base, Path(tmp))
            base = tree_sweep(base_src) if args.sweep else tree_reports(base_src, CONFIGS)
        head = tree_sweep(ROOT / "src") if args.sweep else tree_reports(ROOT / "src", CONFIGS)
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        print(getattr(exc, "stderr", None) or exc, file=sys.stderr)
        return 2
    if args.sweep:
        differ = 0
        for seed, old, new in zip(SWEEP_SEEDS, base, head):
            lines = compare_sweep(seed, old, new)
            differ += lines[0].startswith("DIFF")
            print("\n".join(lines))
        print(f"{len(SWEEP_SEEDS)} sweeps: {len(SWEEP_SEEDS) - differ} same, {differ} differ")
        return int(differ > 0)
    status, differ = False, 0
    for (label, _, _), old, new in zip(CONFIGS, base, head):
        lines, changed = compare(label, old, new)
        status |= changed
        differ += lines[0].startswith("DIFF")
        print("\n".join(lines))
    print(f"{len(CONFIGS)} configs: {len(CONFIGS) - differ} same, {differ} differ; record status changed: {'yes' if status else 'no'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
