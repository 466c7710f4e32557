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

from .blaschke import BlaschkeProduct
from .checks import BATTERIES, CHECK_TOLERANCES
from .config import DEFAULT, Settings
from .errors import BlaschkeLabError, ConfigError
from .report import Report, render

COMMANDS = tuple(BATTERIES)

#: tolerance override keys accepted in config "tolerances".
SETTINGS_KEYS = ("tol_commute", "gap_tol", "rho_max")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    command: str
    blaschke: BlaschkeProduct
    alpha: float
    degree: int
    shells: int | None
    seed: int
    inputs: dict
    check_tolerances: dict
    settings: Settings
    output: str | None
    format: str
    strict: bool
    raw: dict

    def with_updates(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)


def parse_config(obj: dict, command: str, *, out=None, fmt=None, strict=False) -> ExperimentConfig:
    try:
        if "command" in obj and obj["command"] != command:
            raise ConfigError(
                f"config names command {obj['command']!r} but {command!r} was invoked"
            )
        tolerances = {}
        valid = SETTINGS_KEYS + tuple(CHECK_TOLERANCES)
        for key, value in dict(obj.get("tolerances", {})).items():
            if key not in valid:
                raise ConfigError(f"unknown tolerances key {key!r}; valid keys: {', '.join(valid)}")
            tolerances[key] = float(value)
            if not 0 <= tolerances[key] < math.inf:  # NaN fails too; 0 asks for exact
                raise ConfigError(f"tolerances key {key!r} must be finite and >= 0, got {value!r}")
        overrides = {k: v for k, v in tolerances.items() if k in SETTINGS_KEYS}
        check_tols = {k: v for k, v in tolerances.items() if k not in SETTINGS_KEYS}
        settings = DEFAULT.with_overrides(**overrides)
        if "B" not in obj:
            raise ConfigError("missing required field 'B'")
        try:
            B = BlaschkeProduct.from_json(obj["B"], rho_max=settings.rho_max)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid field 'B': {exc}") from exc
        alpha = float(obj.get("alpha", 0.0))
        degree = int(obj.get("degree", 64))
        if degree < 1:
            raise ConfigError("degree must be >= 1")
        shells = obj.get("shells")
        if shells is not None:
            shells = int(shells)
            if shells < 0:
                raise ConfigError(f"shells must be >= 0, got {shells}")
        seed = int(obj.get("seed", 0))
        inputs = dict(obj.get("inputs", {}))
        fmt = fmt or obj.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {fmt!r}")
        return ExperimentConfig(
            command=command,
            blaschke=B,
            alpha=alpha,
            degree=degree,
            shells=shells,
            seed=seed,
            inputs=inputs,
            check_tolerances=check_tols,
            settings=settings,
            output=out or obj.get("output"),
            format=fmt,
            strict=strict,
            raw=obj,
        )
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
        "tolerances": cfg.check_tolerances,
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
