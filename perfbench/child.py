"""One benchmark pass, run in a fresh interpreter by perfbench/run.py.

Reads a job from stdin as JSON:
    {"root": <checkout root>, "spec": <workload spec with its seed>,
     "trace": <bool>}
and prints one JSON result line: setup and pass seconds, operations
attempted and failed (with the names of the failures), peak RSS, the
library environment and, when traced, the spans and work counters.

Setup is the import of blaschke_lab plus input generation; the pass is the
library work the workload measures. After the pass the child times a fixed
numpy reference kernel, so the parent can express the pass in units of the
machine's speed at that moment. The correctness gate runs last.
"""

import json
import os
import resource
import sys
import time


def battery_inputs(spec, cli):
    return cli.parse_config(spec["config"], spec["command"])


def battery_pass(cfg, cli, report):
    rep = cli.run(cfg)
    return rep, report.render(rep)


def battery_gate(result, report):
    """Report.validate() plus every CheckRecord passing at the library's own
    tolerances; the canonical rendering must also parse back byte for byte."""
    rep, blob = result
    rep.validate()
    failures = [f"{r.name}: residual {r.residual!r} tolerance {r.tolerance!r} {r.error or ''}".rstrip()
                for r in rep.records if not r.passed]
    if report.render(report.parse_json(blob)) != blob:
        failures.append("report: canonical rendering does not round-trip")
    return len(rep.records) + 1, failures


def sweep_inputs(spec, bl):
    """The polynomials of scripts/equivalence_constants.py, drawn once from
    the seed and shared by every weight (the script re-seeds per weight)."""
    import numpy as np

    rng = np.random.default_rng(spec["seed"])
    polys = []
    for _ in range(spec["samples"]):
        deg = int(rng.integers(0, spec["max_degree"] + 1))
        polys.append(bl.TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
    B = bl.BlaschkeProduct(0.0, [complex(re, im) for re, im in spec["zeros"]])
    return B, polys


def sweep_pass(inputs, spec, bl):
    """norm_equivalence_ratio for every weight and polynomial, then one
    analyze/synthesize round trip per polynomial, all with a shared basis."""
    import numpy as np

    B, polys = inputs
    D, M = spec["degree"], spec["shells"]
    basis = bl.model_basis(B, D)
    ratios = [
        (alpha, [bl.norm_equivalence_ratio(f, B, alpha, M, D, basis=basis) for f in polys])
        for alpha in spec["weights"]
    ]
    half = bl.safe_degree(D)
    roundtrips = []
    for f in polys:
        g = bl.synthesize(bl.analyze(f, B, M, D, basis=basis), D)
        roundtrips.append(float(np.linalg.norm((g - f.pad(D)).coeffs[: half + 1])))
    return ratios, roundtrips


def sweep_gate(result, checks):
    """alpha = 0 ratios within 1e-12 of 1 (the shell system is orthonormal
    in H^2), other ratios finite and positive, round trips within the
    library's roundtrip tolerance."""
    import math

    ratios, roundtrips = result
    tol = checks.CHECK_TOLERANCES["roundtrip"]
    failures = []
    for alpha, vals in ratios:
        for i, r in enumerate(vals):
            ok = abs(r - 1.0) <= 1e-12 if alpha == 0 else math.isfinite(r) and r > 0
            if not ok:
                failures.append(f"ratio alpha={alpha} sample {i}: {r!r}")
    for i, res in enumerate(roundtrips):
        if not res <= tol:
            failures.append(f"roundtrip sample {i}: {res!r} > {tol!r}")
    return sum(len(v) for _, v in ratios) + len(roundtrips), failures


def reference_s(np) -> float:
    """Seconds for fixed numpy work of the library's kind (length-257
    complex convolutions and norms, 257 x 257 complex products); it does not
    touch blaschke_lab, so a library change cannot move it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    A = rng.standard_normal((257, 257)) + 1j * rng.standard_normal((257, 257))
    t = time.perf_counter()
    for _ in range(1500):
        float(np.linalg.norm(np.convolve(a, a)[:257]))
    for _ in range(20):
        A @ A
    return time.perf_counter() - t


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    job = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(job["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np

    import blaschke_lab as bl
    from blaschke_lab import checks, cli, report

    spec = job["spec"]
    if spec["kind"] == "battery":
        inputs = battery_inputs(spec, cli)
    else:
        inputs = sweep_inputs(spec, bl)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    if spec["kind"] == "battery":
        result = battery_pass(inputs, cli, report)
    else:
        result = sweep_pass(inputs, spec, bl)
    t2 = time.perf_counter()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        spans, counters = list(tracer.spans), tracer.counters()
    ref = reference_s(np)
    if spec["kind"] == "battery":
        ops, failures = battery_gate(result, report)
    else:
        ops, failures = sweep_gate(result, checks)
    out = {
        "setup_s": t1 - t0,
        "pass_s": t2 - t1,
        "reference_s": ref,
        "ops": ops,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
        "env": environment(np),
        "library": os.path.dirname(bl.__file__),
    }
    if tracer is not None:
        out["spans"] = spans
        out["counters"] = counters
        out["missing"] = tracer.missing
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
