#!/usr/bin/env python3
"""blaschke-lab benchmark: time to a verified report.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh child interpreter (perfbench/child.py), one at a
time: a closed loop with one client. A CLI user pays cold-start costs on
every invocation, so no memo carries over from one pass to the next; caches
inside a pass are fair. Passes repeat until S seconds have gone by. BLAS is
pinned to one thread in every child.

--trace 0 prints the end-to-end metrics (medians over the passes):
    pass_ref     pass time over the time of a fixed numpy reference kernel
                 run in the same child right after the pass
    peak_rss_mb  peak resident memory of the child
    setup_s      import of blaschke_lab plus input generation
The pass is the library work of one verified report (battery) or sweep.
pass_ref is the bounded time metric because on a shared 2-core VM the CPU
speed drifted by up to a third over minutes, and the reference kernel
drifts with it; the raw seconds are printed too, as pass_s, reference_s and
ops_per_s
(verified operations per second: checks of a battery, analyses of the
sweep).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of perfbench/tracing.py, medians over the traced passes, plus
trace.overhead_s = traced minus untraced median pass_s. Its spans are
written to .perfbench/spans-<workload>-seed<N>.json.

Every pass runs the correctness gate in child.py. fail_frac (failed over
attempted operations) is printed with the metrics; a failure makes the
result "correct": false and the exit code 1. Exit code 2 means the
benchmark could not run (no blaschke_lab sources in the checkout, bad
arguments); it then prints no result.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, per_layer_units

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
BLAS_THREADS = 1
PASS_TIMEOUT_S = 120

_SUITE_B = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}, {"re": -0.3, "im": 0.0, "mult": 1}]}

#: Why each workload is here: see BENCHMARK.json. The seed is added to each
#: spec by `spec_for`; the library sees only the generated config or inputs.
WORKLOADS = {
    # the scripts/run_suite.py product: the mixed user-facing battery,
    # dominated by shell cells (wold.cell_matrix ~55% of the pass)
    "suite-d256": {
        "kind": "battery",
        "command": "suite",
        "config": {"B": _SUITE_B, "alpha": -1.0, "degree": 256, "inputs": {}},
    },
    # the scripts/equivalence_constants.py loop: many small analyses at one
    # (B, M, D) key instead of a few deep ones
    "shell-sweep-d96": {
        "kind": "sweep",
        "zeros": [[0.5, 0.0], [-0.3, 0.2], [0.1, 0.0]],
        "degree": 96,
        "shells": 24,
        "weights": [-1.0, -0.5, 0.0, 0.5, 1.0],
        "samples": 200,
        "max_degree": 30,
    },
    # the Mobius-power projection at |a| = rho_max: never touches wold or
    # commutant, so shell-frame changes predict no change here
    "mobius-d256": {
        "kind": "battery",
        "command": "reducing",
        "config": {
            "B": {"theta": 0.0, "zeros": [{"re": 0.8, "im": 0.0, "mult": 2}]},
            "alpha": -1.0,
            "degree": 256,
            "inputs": {"family": "mobius_power", "a": [0.8, 0.0]},
        },
    },
}

END_TO_END_UNITS = {"pass_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
RAW_UNITS = {"pass_s": "s", "reference_s": "s", "ops_per_s": "1/s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def spec_for(workload: dict, seed: int) -> dict:
    spec = json.loads(json.dumps(workload))
    if spec["kind"] == "battery":
        spec["config"]["seed"] = seed
    else:
        spec["seed"] = seed
    return spec


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git inside it (None outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(pkg.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def run_pass(spec: dict, trace: bool) -> dict:
    """One pass in a fresh interpreter; a crash counts as one failed op."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    job = json.dumps({"root": str(ROOT), "spec": spec, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(CHILD)],
            input=job, capture_output=True, text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"pass exceeded {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"crash": tail[0]}
    return json.loads(lines[-1])


def median(values) -> float:
    return float(statistics.median(values))


def run(spec: dict, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Closed loop of passes for `seconds`; returns (summary, metrics).

    A pass starts only if a pass of the median length so far still ends
    within `seconds`, so a run overruns its time by little."""
    plain, traced, crashes, lengths = [], [], [], []
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        res = run_pass(spec, use_trace)
        lengths.append(time.perf_counter() - t0)
        if "crash" in res:
            crashes.append(res["crash"])
            attempted += 1
            failed += 1
        else:
            if Path(res["library"]).resolve() != (ROOT / "src" / "blaschke_lab").resolve():
                raise BenchError(f"child imported blaschke_lab from {res['library']}, not the checkout")
            attempted += res["ops"]
            failed += len(res["failures"])
            failures.extend(res["failures"])
            (traced if use_trace else plain).append(res)
        out_of_time = time.perf_counter() - start + median(lengths) > seconds
        if out_of_time and (crashes or plain and (traced or not trace)):
            break
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": crashes + failures,
        "passes": len(plain),
        "traced_passes": len(traced),
        "env": (plain or traced or [{}])[0].get("env", {}),
    }
    if not plain or (trace and not traced):
        return summary, {}
    if not trace:
        metrics = {
            "pass_ref": median(r["pass_s"] / r["reference_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_kb"] * 1024 / 1e6 for r in plain),
            "setup_s": median(r["setup_s"] for r in plain),
        }
        summary["raw"] = {
            "pass_s": median(r["pass_s"] for r in plain),
            "reference_s": median(r["reference_s"] for r in plain),
            "ops_per_s": median(r["ops"] / r["pass_s"] for r in plain),
        }
        return summary, metrics
    per_pass = [dict(layer_metrics(r["spans"]), **r["counters"]) for r in traced]
    metrics = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
    for name, value in metrics.items():
        if not name.endswith("_s") and value.is_integer():
            metrics[name] = int(value)
    metrics["trace.overhead_s"] = median(r["pass_s"] for r in traced) - median(r["pass_s"] for r in plain)
    summary["unsteady_counts"] = [
        name for name in per_pass[0]
        if not name.endswith("_s") and len({p[name] for p in per_pass}) > 1
    ]
    summary["missing_layers"] = traced[0]["missing"]
    summary["spans"] = [
        [name, start, end, parent, pass_id]
        for pass_id, r in enumerate(traced)
        for name, start, end, parent in r["spans"]
    ]
    return summary, metrics


def write_spans(spans: list, workload: str, seed: int) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"fields": ["name", "start", "end", "parent", "pass"], "spans": [\n')
        fh.write(",\n".join(json.dumps(s, separators=(",", ":")) for s in spans))
        fh.write("\n]}\n")
    return path


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    pkg = ROOT / "src" / "blaschke_lab"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no blaschke_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    spec = spec_for(workloads[args.workload], args.seed)
    try:
        summary, metrics = run(spec, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = dict(
        summary["env"],
        blas_threads=BLAS_THREADS,
        nproc=os.cpu_count(),
        git_commit=git_commit(ROOT),
        source_sha256=source_digest(pkg),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        passes=summary["passes"],
        traced_passes=summary["traced_passes"],
    )
    print("env " + json.dumps(env, sort_keys=True))
    for line in summary["failures"][:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    correct = summary["failed"] == 0 and bool(metrics)
    if args.trace and metrics:
        print(f"spans {write_spans(summary['spans'], args.workload, args.seed).relative_to(ROOT)}")
        if summary["missing_layers"]:
            print(f"perfbench: layers not found in blaschke_lab: {summary['missing_layers']}", file=sys.stderr)
        if summary["unsteady_counts"]:
            print(f"perfbench: counts differ between passes: {summary['unsteady_counts']}", file=sys.stderr)
    metrics = {name: metrics.get(name, 0.0) for name in units}
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value in summary.get("raw", {}).items():
        print(f"{name} {value!r} {RAW_UNITS[name]}")
    print(f"fail_frac {summary['failed'] / max(summary['attempted'], 1)!r} 1 "
          f"({summary['failed']} of {summary['attempted']} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(summary["attempted"], 1),
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
