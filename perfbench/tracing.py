"""Layer spans for the traced benchmark run.

`install` wraps the listed public functions of blaschke_lab in every module
namespace (and module-level dict) that binds them, so a call is recorded
however the caller reached it: `from .wold import analyze`, `wold.analyze`
or `BATTERIES["reducing"]`. Spans stay in memory as
[name, start, end, parent] lists; `layer_metrics` turns the spans of one
pass into per-layer calls, total time and self time.

What each layer should move, written down before any optimisation:
- wold.*, blaschke.BlaschkeProduct.power_list.* and spaces.multiply.* move
  pass_ref on suite-d256 and shell-sweep-d96, and nothing on mobius-d256;
- reducing.mobius_power_reducing_projection.self_s moves only mobius-d256;
- checks.shift_equiv_checks, ortho.x_spaces and commutant.cowen_residual
  move suite-d256;
- blaschke.model_basis moves nothing: a different basis formula is a
  robustness change, not a speed change.

This module imports nothing outside the standard library, so the parent
process can aggregate spans without loading numpy.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: Functions traced, by "<module>.<qualified name>" inside blaschke_lab.
LAYERS = (
    "checks.decompose_checks",
    "checks.commutant_checks",
    "checks.reducing_checks",
    "checks.ortho_checks",
    "checks.shift_equiv_checks",
    "checks.cowen_checks",
    "blaschke.model_basis",
    "blaschke.BlaschkeProduct.taylor",
    "blaschke.BlaschkeProduct.power_list",
    "wold.analyze",
    "wold.synthesize",
    "wold.cell_matrix",
    "wold.power_tail",
    "spaces.multiply",
    "spaces.toeplitz_matrix",
    "spaces.weighted_adjoint",
    "spaces.operator_norm_safe",
    "commutant.build",
    "commutant.commutation_residual",
    "commutant.extract_symbols",
    "commutant.symbols_to_matrix",
    "commutant.cowen_residual",
    "ortho.x_spaces",
    "ortho.block_matrix",
    "reducing.mobius_power_reducing_projection",
    "reducing.reducing_residual",
    "reducing.projection_defects",
    "reducing.shift_equiv_general",
    "reducing.shell_shift_residual",
    "report.render",
)

#: Work counters kept at the cell_matrix boundary: columns u_j B^k built,
#: and distinct (B, M, D) keys they were built for. cells / keys shows how
#: much of the cell work repeats an earlier call.
COUNTERS = ("wold.cell_matrix.cells", "wold.cell_matrix.keys")

LAYER_FIELDS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{field}": unit for name in LAYERS for field, unit in LAYER_FIELDS}
    units.update({name: "count" for name in COUNTERS})
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Collects spans of the wrapped functions for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cells = 0
        self.cell_keys: set = set()
        self.missing: list[str] = []

    def wrap(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count_cells(self, fn):
        sig = inspect.signature(fn)

        def on_call(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            self.cells += bound["basis"].dim * (bound["M"] + 1)
            self.cell_keys.add((bound["B"], bound["M"], bound["D"]))

        return on_call

    def install(self) -> None:
        """Wrap every listed function wherever blaschke_lab binds it.

        Call after all blaschke_lab modules the pass uses are imported.
        A listed name the library no longer defines is recorded in
        `missing` and reported with zero calls.
        """
        modules = [m for k, m in sys.modules.items() if k == "blaschke_lab" or k.startswith("blaschke_lab.")]
        for name in LAYERS:
            mod_name, *qual = name.split(".")
            owner = sys.modules.get(f"blaschke_lab.{mod_name}")
            for attr in qual[:-1]:
                owner = getattr(owner, attr, None)
            orig = getattr(owner, qual[-1], None)
            if orig is None:
                self.missing.append(name)
                continue
            on_call = self._count_cells(orig) if name == "wold.cell_matrix" else None
            traced = self.wrap(name, orig, on_call)
            if isinstance(owner, type):
                setattr(owner, qual[-1], traced)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is orig:
                                value[key] = traced

    def counters(self) -> dict[str, int]:
        return {"wold.cell_matrix.cells": self.cells, "wold.cell_matrix.keys": len(self.cell_keys)}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """calls, total_s and self_s per listed layer for the spans of one pass.

    self_s is a span's duration minus the durations of its direct child
    spans (children of one span never overlap: the pass runs on one
    thread). No listed function calls itself, so total_s sums durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for (name, start, end, _), children in zip(spans, child_time):
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += end - start - children
    return out
