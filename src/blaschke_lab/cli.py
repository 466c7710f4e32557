"""Batch driver: blaschke-lab <command> --config path.json [--out path]
[--format json|csv] [--strict].

Exit codes: 0 all checks passed, 1 at least one failed (or a check errored),
2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from functools import cached_property

import numpy as np

from .blaschke import RHO_MAX, BlaschkeProduct
from .checks import BATTERIES, CHECK_TOLERANCES, INPUT_KEYS, check_choices
from .errors import BlaschkeLabError, ConfigError, config_float, config_int, known_keys
from .report import Report, render

COMMANDS = tuple(BATTERIES)

#: top-level keys of a config.
CONFIG_KEYS = ("command", "B", "alpha", "degree", "shells", "seed", "inputs", "tolerances", "format", "output")

#: library guards a config's "tolerances" may set, each the keyword of the
#: one function that reads it; the other keys are CHECK_TOLERANCES.
GUARD_KEYS = ("tol_commute", "rho_max")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    command: str
    blaschke: BlaschkeProduct
    alpha: float
    degree: int
    shells: int | None
    seed: int
    inputs: dict
    tolerances: dict  # the config's overrides, guard and check keys alike
    output: str | None
    format: str
    strict: bool


def parse_config(obj: dict, command: str, *, out=None, fmt=None, strict=False) -> ExperimentConfig:
    try:
        known_keys(obj, "config", CONFIG_KEYS)
        if "command" in obj and obj["command"] != command:
            raise ConfigError(
                f"config names command {obj['command']!r} but {command!r} was invoked"
            )
        tolerances = {}
        valid = GUARD_KEYS + tuple(CHECK_TOLERANCES)
        for key, value in known_keys(obj.get("tolerances", {}), "tolerances", valid).items():
            tolerances[key] = config_float(value, f"tolerances key {key!r}")
            if not 0 <= tolerances[key] < math.inf:  # NaN fails too; 0 asks for exact
                raise ConfigError(f"tolerances key {key!r} must be finite and >= 0, got {value!r}")
        if "B" not in obj:
            raise ConfigError("missing required field 'B'")
        try:
            B = BlaschkeProduct.from_json(obj["B"], rho_max=tolerances.get("rho_max", RHO_MAX))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid field 'B': {exc}") from exc
        shells = obj.get("shells")
        fmt = fmt or obj.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {fmt!r}")
        alpha = config_float(obj.get("alpha", 0.0), "alpha")
        if not math.isfinite(alpha):
            raise ConfigError(f"alpha must be finite, got {alpha!r}")
        cfg = ExperimentConfig(
            command=command,
            blaschke=B,
            alpha=alpha,
            degree=config_int(obj.get("degree", 64), "degree", minimum=1),
            shells=None if shells is None else config_int(shells, "shells", minimum=0),
            seed=config_int(obj.get("seed", 0), "seed", minimum=0),
            inputs=dict(known_keys(obj.get("inputs", {}), "inputs", INPUT_KEYS[command])),
            tolerances=tolerances,
            output=out or obj.get("output"),
            format=fmt,
            strict=strict,
        )
        check_choices(cfg.inputs, B)
        return cfg
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclasses.dataclass(frozen=True)
class _SeededGenerator:
    """np.random.default_rng(seed), made on the first draw: a battery that
    draws nothing does not import numpy.random."""

    seed: int

    @cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def run(cfg: ExperimentConfig) -> Report:
    """Dispatch to the named battery and assemble the report."""
    rng = _SeededGenerator(cfg.seed)
    battery = BATTERIES[cfg.command]
    try:
        records, data = battery(cfg, rng)
    except (TypeError, KeyError, ValueError) as exc:
        # malformed input payloads surface as configuration errors
        raise ConfigError(f"invalid inputs for {cfg.command!r}: {exc}") from exc
    echo = {
        "command": cfg.command,
        "B": cfg.blaschke.to_json(),
        "alpha": cfg.alpha,
        "degree": cfg.degree,
        "shells": cfg.shells,
        "seed": cfg.seed,
        "inputs": cfg.inputs,
        "tolerances": cfg.tolerances,
    }
    report = Report(config=echo, records=records, data=data)
    report.validate()
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="blaschke-lab", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the experiment JSON")
    parser.add_argument("--out", default=None, help="write the report here (default stdout)")
    parser.add_argument("--format", default=None, choices=("json", "csv"))
    parser.add_argument("--strict", action="store_true", help="abort on the first check error")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(obj, args.command, out=args.out, fmt=args.format, strict=args.strict)
        report = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlaschkeLabError as exc:
        # strict mode surfaces check errors as failures
        print(f"check error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    blob = render(report, fmt=cfg.format)
    if cfg.output:
        try:
            with open(cfg.output, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(blob.decode())
    s = report.summary
    print(f"{s['passed']}/{s['total']} checks passed", file=sys.stderr)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
