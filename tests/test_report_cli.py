import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import blaschke_lab as bl
from blaschke_lab import checks, cli
from blaschke_lab.cli import main, parse_config, run
from blaschke_lab.errors import (
    BlaschkeLabError,
    ConditioningError,
    ConfigError,
    DimensionMismatchError,
    MembershipError,
    NotInCommutantError,
    ZeroFunctionError,
)
from blaschke_lab.report import CheckRecord, Report, parse_json, render


ROOT = Path(__file__).resolve().parents[1]


def b_json(zeros):
    return {"theta": 0.0, "zeros": [{"re": z.real, "im": z.imag, "mult": 1} for z in zeros]}


# degree 64 is the smallest window where the default tolerances are
# comfortably attainable for a degree-2 product
BASE = {
    "B": b_json([0.5 + 0j, -0.3 + 0j]),
    "alpha": -1.0,
    "degree": 64,
    "seed": 3,
    "inputs": {},
}


class TestRender:
    def test_empty_report_is_valid_json(self):
        blob = render(Report(config={"x": 1}))
        obj = json.loads(blob)
        assert obj["records"] == []
        assert obj["summary"]["total"] == 0

    def test_single_record_csv(self):
        rep = Report(config={}, records=[CheckRecord("a", 1e-3, 1e-2, True, 5.0)])
        lines = render(rep, fmt="csv").decode().strip().split("\n")
        assert lines[0] == "name,residual,tolerance,pass,wall_time_ms"
        assert len(lines) == 2
        assert lines[1].startswith("a,1.000000000000e-03,1.000000000000e-02,true,")

    def test_roundtrip_byte_identical(self):
        rep = Report(
            config={"seed": 1, "alpha": -1.0},
            records=[
                CheckRecord("a", 1.2345e-9, 1e-8, True, 3.25),
                CheckRecord("b", float("nan"), 1e-8, False, 0.0, error="TailError: x"),
            ],
        )
        blob = render(rep)
        assert render(parse_json(blob)) == blob

    def test_canonical_sorts_keys_and_zeroes_timing(self):
        rep = Report(config={"zebra": 1, "apple": 2}, records=[CheckRecord("a", 0.0, 1.0, True, 123.0)])
        text = render(rep).decode()
        assert text.index('"apple"') < text.index('"zebra"')
        assert '"wall_time_ms":0' in text
        noncanon = render(rep, canonical=False).decode()
        assert '"wall_time_ms":1.23' in noncanon

    def test_pass_flag_consistency_enforced(self):
        rep = Report(config={}, records=[CheckRecord("a", 2.0, 1.0, True, 0.0)])
        with pytest.raises(ValueError):
            rep.validate()


#: the messages of an enumerated inputs value outside its valid values
MODE = r"^unknown shift-equiv mode {}; valid values: monomial, general$"
FAMILY = r"^unknown reducing family {}; valid values: monomial, mobius_power, custom$"
EXPECTED = r"^unknown custom expected {}; valid values: reducing, report-only$"


# random JSON for every top-level and inputs key; each key is a plausible
# value three times in four, so most draws get past the earlier keys
_NUMBER = st.integers(-2, 70) | st.floats(-1.0, 1.0) | st.sampled_from((0.5, -0.3, 0.8, -1.0, 1e300, 10**400))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | _NUMBER
    | st.sampled_from(("monomial", "mobius_power", "custom", "reducing", "report-only", "general")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=10,
)


def _mostly(strategy):
    return st.one_of(strategy, strategy, strategy, _JSON)


_POLY = st.lists(_mostly(st.lists(_NUMBER, min_size=2, max_size=2)), min_size=1, max_size=3)
_INPUT = _mostly(
    _NUMBER | _POLY | st.lists(_POLY, min_size=1, max_size=2) | st.lists(st.lists(_POLY, min_size=1, max_size=2), min_size=1, max_size=2)
)
_ZERO = _mostly(st.fixed_dictionaries({}, optional={"re": _NUMBER, "im": _NUMBER, "mult": _mostly(st.integers(1, 3))}))
_B = _mostly(st.fixed_dictionaries({"zeros": st.lists(_ZERO, min_size=1, max_size=3)}, optional={"theta": _NUMBER}))
_TOLERANCES = st.dictionaries(st.sampled_from(cli.GUARD_KEYS + tuple(checks.CHECK_TOLERANCES)), _NUMBER, max_size=2)


@st.composite
def _configs(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    inputs = st.fixed_dictionaries({}, optional={key: _INPUT for key in checks.INPUT_KEYS[command]})
    keys = {key: _mostly(_NUMBER) for key in ("alpha", "degree", "shells", "seed")}
    keys |= {"command": _mostly(st.just(command)), "tolerances": _mostly(_TOLERANCES)}
    return command, draw(_mostly(st.fixed_dictionaries({"B": _B, "inputs": _mostly(inputs)}, optional=keys)))


# configs that mostly parse, every size bounded: a large degree or shell
# count allocates a dense frame, it does not raise
_FUNCTION = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2), min_size=1, max_size=40)
_POINT = st.sampled_from((0j, 0.5, -0.3, 0.8, 0.3 + 0.4j, -0.79j)) | st.complex_numbers(max_magnitude=0.95)
_RUN_INPUTS = {
    "f": _FUNCTION,
    "num_samples": st.integers(1, 3),
    "max_degree": st.integers(0, 40),
    "symbol_degree": st.integers(0, 70),
    "family": st.sampled_from(("monomial", "mobius_power", "custom")),
    "basis": st.lists(_FUNCTION, min_size=1, max_size=3),
    "expected": st.sampled_from(("reducing", "report-only")),
    "kmax": st.integers(0, 6),
    "mode": st.sampled_from(("monomial", "general")),
    "h": _FUNCTION,
    "num_points": st.integers(1, 5),
    "radius": st.floats(0.01, 0.99),
}
_RUN_TOLERANCES = st.dictionaries(
    st.sampled_from(cli.GUARD_KEYS + tuple(checks.CHECK_TOLERANCES)), st.floats(0.0, 2.0) | st.just(0.0), max_size=3
)


@st.composite
def _run_configs(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    # a power of one factor, so that mobius_power and the monomial mode are drawn
    zeros = draw(st.lists(_POINT, min_size=1, max_size=3) | st.builds(lambda a, N: [a] * N, _POINT, st.integers(1, 3)))
    keys = [key for key in checks.INPUT_KEYS[command] if key in _RUN_INPUTS]
    inputs = draw(st.fixed_dictionaries({}, optional={key: _RUN_INPUTS[key] for key in keys}))
    if "a" in checks.INPUT_KEYS[command] and draw(st.booleans()):
        inputs["a"] = [zeros[0].real, zeros[0].imag]
    if "phi" in checks.INPUT_KEYS[command] and draw(st.booleans()):
        inputs["phi"] = draw(st.lists(st.lists(_FUNCTION, min_size=len(zeros), max_size=len(zeros)),
                                      min_size=len(zeros), max_size=len(zeros)))
    obj = {
        "B": b_json(zeros),
        # near the parse bound on alpha the batteries' products overflow, a RuntimeWarning that pytest raises
        "alpha": draw(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 1.0)) | st.floats(-6.0, 6.0)),
        "degree": draw(st.integers(1, 40)),
        "shells": draw(st.none() | st.integers(0, 8)),
        "seed": draw(st.integers(0, 2**32)),
        "inputs": inputs,
        "tolerances": draw(_RUN_TOLERANCES),
    }
    return command, obj, draw(st.booleans())


class TestConfig:
    def test_minimal_config(self):
        cfg = parse_config(dict(BASE), "suite")
        assert cfg.blaschke.degree == 2
        assert cfg.seed == 3

    def test_command_mismatch_rejected(self):
        obj = dict(BASE, command="decompose")
        with pytest.raises(ConfigError):
            parse_config(obj, "suite")

    def test_bad_zero_rejected(self):
        obj = dict(BASE, B=b_json([0.95 + 0j]))
        with pytest.raises(ConfigError):
            parse_config(obj, "suite")

    def test_negative_shells_rejected(self):
        with pytest.raises(ConfigError, match="shells must be >= 0, got -1"):
            parse_config(dict(BASE, shells=-1), "decompose")

    def test_shells_past_half_the_window_are_accepted(self):
        # more shells than D/(2n) only add cells that analysis finds empty
        cfg = parse_config(dict(BASE, shells=40), "decompose")
        assert cfg.shells == 40 and run(cfg).all_passed

    def test_missing_b_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"alpha": 0.0}, "suite")

    def test_tolerance_overrides_are_one_map(self):
        obj = dict(BASE, tolerances={"tol_commute": 1e-6, "roundtrip": 1e-5})
        cfg = parse_config(obj, "suite")
        assert cfg.tolerances == {"tol_commute": 1e-6, "roundtrip": 1e-5}

    def test_unknown_tolerance_key_rejected(self):
        obj = dict(BASE, tolerances={"comute": 1e-30})
        with pytest.raises(ConfigError, match=r"unknown tolerances key 'comute'; valid keys: tol_commute, .*commute"):
            parse_config(obj, "suite")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("rho_max", float("nan")),
            ("tol_commute", -1.0),
            ("rho_max", -0.5),
            ("roundtrip", float("nan")),
            ("roundtrip", -1.0),
            ("commute", float("inf")),
        ],
    )
    def test_tolerance_values_must_be_finite_and_nonnegative(self, key, value):
        obj = dict(BASE, tolerances={key: value})
        with pytest.raises(ConfigError, match=rf"^tolerances key '{key}' must be finite and >= 0, got {value!r}$"):
            parse_config(obj, "suite")

    @pytest.mark.parametrize(
        "command,inputs,message",
        [
            ("ortho", {"kmx": 9}, r"^unknown inputs key 'kmx'; valid keys: kmax$"),
            ("cowen", {"kmax": 2}, r"^unknown inputs key 'kmax'; valid keys: num_points, radius$"),
            ("reducing", {"familly": "monomial"}, r"^unknown inputs key 'familly'; valid keys: family, a, basis, expected$"),
            # suite runs the reducing battery on inputs of its own
            ("suite", {"family": "monomial"}, r"^unknown inputs key 'family'; valid keys: f, num_samples, max_degree, "
             r"phi, symbol_degree, kmax, mode, h, num_points, radius$"),
            ("suite", [["kmax", 2]], r"^inputs must be an object, got \[\['kmax', 2\]\]$"),
        ],
    )
    def test_unknown_inputs_keys_rejected(self, command, inputs, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(dict(BASE, inputs=inputs), command)

    @pytest.mark.parametrize(
        "command,inputs,message",
        [
            *[
                (command, {"mode": value}, MODE.format(shown))
                for command in ("shift-equiv", "suite")
                for value, shown in [("monomal", "'monomal'"), (None, "None"), (1, "1"), (["general"], r"\['general'\]")]
            ],
            *[
                (command, {"mode": "monomial"}, r"^shift-equiv mode 'monomial' requires B = z\^2; set mode 'general' for this B$")
                for command in ("shift-equiv", "suite")
            ],
            ("reducing", {"family": "mobius"}, FAMILY.format("'mobius'")),
            ("reducing", {"family": None, "a": [0.5, 0.0]}, FAMILY.format("None")),
            ("reducing", {"family": "custom", "basis": [[[1, 0]]], "expected": "reduce"}, EXPECTED.format("'reduce'")),
            ("reducing", {"family": "mobius_power", "expected": 0}, EXPECTED.format("0")),
            ("reducing", {"expected": None}, EXPECTED.format("None")),
        ],
    )
    def test_enumerated_inputs_are_checked_before_any_battery_runs(self, monkeypatch, command, inputs, message):
        # parse_config raises by itself: in suite no battery runs before the bad mode is named
        def no_battery(cfg, rng):
            raise AssertionError(f"a battery ran on {cfg.inputs}")

        for name in checks.BATTERIES:
            monkeypatch.setitem(checks.BATTERIES, name, no_battery)
        with pytest.raises(ConfigError, match=message):
            parse_config(dict(BASE, inputs=inputs), command)

    MOBIUS = {"B": {"theta": 0.0, "zeros": [{"re": 0.8, "im": 0.0, "mult": 2}]}, "alpha": -1.0, "degree": 128}

    @pytest.mark.parametrize(
        "a,message",
        [
            ([0.8, False], r"^inputs\.a\[1\] must be a number, got False$"),
            ([True, 0], r"^inputs\.a\[0\] must be a number, got True$"),
            (["0.8", 0], r"^inputs\.a\[0\] must be a number, got '0\.8'$"),
            ([0.8], r"^inputs\.a must be \[re, im\], two numbers, got \[0\.8\]$"),
            ([0.8, 0.0, 0.0], r"^inputs\.a must be \[re, im\], two numbers, got \[0\.8, 0\.0, 0\.0\]$"),
            (0.8, r"^inputs\.a must be \[re, im\], two numbers, got 0\.8$"),
            ({"re": 0.8}, r"^inputs\.a must be \[re, im\], two numbers, got \{'re': 0\.8\}$"),
            ([float("nan"), 0.0], r"^inputs\.a\[0\] must be finite, got nan$"),
        ],
    )
    @pytest.mark.parametrize("family", ["mobius_power", "monomial"])
    def test_mobius_point_is_two_numbers(self, monkeypatch, a, message, family):
        for name in checks.BATTERIES:
            monkeypatch.setitem(checks.BATTERIES, name, lambda cfg, rng: pytest.fail("a battery ran"))
        with pytest.raises(ConfigError, match=message):
            parse_config(dict(self.MOBIUS, inputs={"family": family, "a": a}), "reducing")

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"inputs": {"family": "mobius_power", "a": [0.5, 0]}}, r"requires B to be a power of the factor through a$"),
            ({"inputs": {"family": "mobius_power"}}, r"requires B to be a power of the factor through a$"),
            ({"alpha": 0.0, "inputs": {"family": "mobius_power", "a": [0.8, 0]}}, r"; set alpha = -1$"),
        ],
    )
    def test_mobius_power_preconditions_are_checked_before_any_battery_runs(self, monkeypatch, change, message):
        for name in checks.BATTERIES:
            monkeypatch.setitem(checks.BATTERIES, name, lambda cfg, rng: pytest.fail("a battery ran"))
        with pytest.raises(ConfigError, match=message):
            parse_config(dict(self.MOBIUS, **change), "reducing")

    def test_a_mobius_point_at_the_origin_exits_two_and_names_it(self, monkeypatch, tmp_path, capsys):
        # B = z^N passes the power check at a = 0; parse_config refuses it and
        # names the key, not a battery's catch-all
        for name in checks.BATTERIES:
            monkeypatch.setitem(checks.BATTERIES, name, lambda cfg, rng: pytest.fail("a battery ran"))
        obj = dict(self.MOBIUS, B=b_json([0j, 0j]), inputs={"family": "mobius_power", "a": [0, 0]})
        message = "inputs.a must be nonzero for family 'mobius_power'; for B = z^N use family 'monomial'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(obj, "reducing")
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main(["reducing", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_an_integral_mobius_point_reads_as_its_float(self):
        # the echoed inputs keep the config's own value
        cfg = parse_config(dict(self.MOBIUS, B=b_json([0.5 + 0j, 0.5 + 0j]), inputs={"family": "mobius_power", "a": [0.5, 0]}), "reducing")
        assert checks._input(cfg, "a") == 0.5 and cfg.inputs["a"] == [0.5, 0]
        assert run(cfg).all_passed

    #: per inputs key of coefficient pairs: a command that reads it, its
    #: inputs around one given pair, and the index of that pair
    PAIR_INPUTS = {
        "f": ("decompose", lambda p: {"f": [p, [2, 0]]}, "[0]"),
        "h": ("shift-equiv", lambda p: {"mode": "general", "h": [[0, 0], p]}, "[1]"),
        "basis": ("reducing", lambda p: {"family": "custom", "basis": [[[1, 0]], [[0, 1], p]]}, "[1][1]"),
        "phi": ("commutant", lambda p: {"phi": [[[[1, 0]], [[0, 0]]], [[[0, 0]], [[0, 0], p]]]}, "[1][1][1]"),
    }

    @pytest.mark.parametrize(
        "pair,message",
        [
            ([True, 0], r"\[0\] must be a number, got True"),
            ([2, False], r"\[1\] must be a number, got False"),
            (["1", 0], r"\[0\] must be a number, got '1'"),
            ([1], r" must be \[re, im\], two numbers, got \[1\]"),
            ([1, 0, 5], r" must be \[re, im\], two numbers, got \[1, 0, 5\]"),
            (3, r" must be \[re, im\], two numbers, got 3"),
            ([float("nan"), 0], r"\[0\] must be finite, got nan"),
            ([0, float("-inf")], r"\[1\] must be finite, got -inf"),
        ],
        ids=["true", "false", "string", "one", "three", "number", "nan", "-inf"],
    )
    @pytest.mark.parametrize("key", list(PAIR_INPUTS))
    def test_coefficient_pairs_are_two_finite_numbers(self, monkeypatch, key, pair, message):
        # a bool is not read as 1 or 0, and a malformed pair is named by its
        # index when the config is parsed, before any battery runs
        for name in checks.BATTERIES:
            monkeypatch.setitem(checks.BATTERIES, name, lambda cfg, rng: pytest.fail("a battery ran"))
        command, inputs, index = self.PAIR_INPUTS[key]
        with pytest.raises(ConfigError, match=rf"^inputs\.{key}{re.escape(index)}{message}$"):
            parse_config(dict(BASE, inputs=inputs(pair)), command)

    @pytest.mark.parametrize("key", list(PAIR_INPUTS))
    def test_integral_and_float_pairs_parse(self, key):
        # the echoed inputs keep the config's own values
        command, inputs, _ = self.PAIR_INPUTS[key]
        for pair in ([1, 0], [0.5, -2.0]):
            assert parse_config(dict(BASE, inputs=inputs(pair)), command).inputs == inputs(pair)

    def test_a_malformed_pair_exits_two_and_names_it(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, inputs={"f": [[1, 0], [1, 0, 5]]})))
        assert main(["decompose", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == "config error: inputs.f[1] must be [re, im], two numbers, got [1, 0, 5]\n"

    def test_suite_takes_every_key_it_forwards(self):
        inputs = {"num_samples": 1, "symbol_degree": 2, "kmax": 1, "num_points": 3}
        rep = run(parse_config(dict(BASE, degree=48, inputs=inputs), "suite"))
        assert rep.data["ortho"]["block_dims"] == [2, 2]
        assert sum(r.name.startswith("decompose/") for r in rep.records) == 1

    def test_zero_tolerance_is_an_exact_request(self):
        obj = dict(BASE, tolerances={"tol_commute": 0.0, "roundtrip": 0.0})
        cfg = parse_config(obj, "suite")
        assert cfg.tolerances == {"tol_commute": 0.0, "roundtrip": 0.0}

    @pytest.mark.parametrize(
        "obj,message",
        [
            (dict(BASE, degre=32), r"^unknown config key 'degre'; valid keys: command, B, alpha, degree, shells, seed, "
             r"inputs, tolerances$"),
            (dict(BASE, alhpa=-1), r"^unknown config key 'alhpa'; valid keys: command, B, "),
            (dict(BASE, B={"theta": 0.0, "zeros": [], "zeroes": []}), r"^unknown B key 'zeroes'; valid keys: theta, zeros$"),
            (dict(BASE, B={"zeros": [{"Re": 0.5}]}), r"^unknown zero key 'Re'; valid keys: re, im, mult$"),
        ],
        ids=["degre", "alhpa", "B-zeroes", "zero-Re"],
    )
    def test_unknown_keys_rejected(self, obj, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(obj, "suite")

    @pytest.mark.parametrize("key", ["degree", "shells", "seed"])
    @pytest.mark.parametrize("value", [64.9, "64", True, 3.7, 1.5])
    def test_integer_fields_are_never_truncated(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be an integer, got {value!r}$"):
            parse_config(dict(BASE, **{key: value}), "suite")

    @pytest.mark.parametrize("key,value,least", [("degree", 0, 1), ("shells", -1, 0), ("seed", -3, 0)])
    @pytest.mark.parametrize("command", ["decompose", "reducing", "suite"])
    def test_integer_fields_below_their_minimum_are_rejected(self, command, key, value, least):
        # a negative seed is named as the seed, for a battery that draws and one that does not
        with pytest.raises(ConfigError, match=rf"^{key} must be >= {least}, got {value}$"):
            parse_config(dict(BASE, **{key: value}), command)

    @pytest.mark.parametrize("mult", [1.8, "2", True])
    def test_zero_multiplicity_is_never_truncated(self, mult):
        obj = dict(BASE, B={"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": mult}]})
        with pytest.raises(ConfigError, match=rf"^zero mult must be an integer, got {mult!r}$"):
            parse_config(obj, "suite")

    @pytest.mark.parametrize("value", ["0.5", True])
    @pytest.mark.parametrize("key", ["alpha", "tolerances"])
    def test_float_fields_reject_bools_and_strings(self, key, value):
        obj = dict(BASE, **({"tolerances": {"roundtrip": value}} if key == "tolerances" else {key: value}))
        name = "tolerances key 'roundtrip'" if key == "tolerances" else key
        with pytest.raises(ConfigError, match=rf"^{name} must be a number, got {value!r}$"):
            parse_config(obj, "suite")

    def test_integral_floats_and_every_echo_parse(self):
        cfg = parse_config(dict(BASE, degree=64.0, shells=3.0, seed=3.0), "decompose")
        assert (cfg.degree, cfg.shells, cfg.seed) == (64, 3, 3)
        assert all(type(v) is int for v in (cfg.degree, cfg.shells, cfg.seed))
        rep = run(cfg)
        assert render(run(parse_config(rep.config, "decompose"))) == render(rep)

    def test_tol_compose_is_not_a_config_key(self):
        # no battery composes functions, so the key would change nothing
        obj = dict(BASE, tolerances={"tol_compose": 1e-12})
        with pytest.raises(ConfigError, match=r"unknown tolerances key 'tol_compose'"):
            parse_config(obj, "suite")


    @settings(max_examples=200, deadline=None)
    @given(config=_configs())
    def test_any_json_config_parses_or_is_a_config_error(self, config):
        command, obj = config
        try:
            assert isinstance(parse_config(obj, command), cli.ExperimentConfig)
        except ConfigError:
            pass

    @pytest.mark.parametrize("key", ["alpha", "B", "a"])
    def test_an_integer_past_the_float_range_is_a_config_error(self, key):
        big = 10**400
        obj = {
            "alpha": dict(BASE, alpha=big),
            "B": dict(BASE, B={"theta": big, "zeros": [{"re": 0.5}]}),
            "a": dict(BASE, inputs={"family": "mobius_power", "a": [big, 0]}),
        }[key]
        with pytest.raises(ConfigError, match="must be a finite number, got one past the float range"):
            parse_config(obj, "reducing")

    def test_a_library_fault_is_not_relabelled_a_config_error(self, monkeypatch):
        def fault(*args):
            raise TypeError("library fault")

        cfg = parse_config(dict(BASE), "suite")
        monkeypatch.setattr(cli, "check_inputs", fault)
        with pytest.raises(TypeError, match="library fault"):
            parse_config(dict(BASE), "suite")
        monkeypatch.setitem(checks.BATTERIES, "suite", fault)
        with pytest.raises(TypeError, match="library fault"):
            run(cfg)

    @settings(max_examples=150, deadline=None)
    @given(config=_run_configs())
    def test_a_config_that_parses_runs_or_raises_a_library_error(self, config):
        command, obj, strict = config
        try:
            cfg = parse_config(obj, command, strict=strict)
        except ConfigError:
            reject()
        try:
            run(cfg)
        except BlaschkeLabError:
            pass


class TestRun:
    def test_decompose_slicing_payload(self):
        obj = dict(
            BASE,
            B=b_json([0.0 + 0j, 0.0 + 0j]),  # B = z^2
            degree=16,
            shells=3,
            inputs={"f": [[1, 0], [2, 0], [3, 0], [4, 0]]},
        )
        cfg = parse_config(obj, "decompose")
        rep = run(cfg)
        assert rep.all_passed
        comps = rep.data["decomposition"]["c"]
        assert comps[0][0] == [1.0, 0.0] and comps[0][1] == [3.0, 0.0]
        assert comps[1][0] == [2.0, 0.0] and comps[1][1] == [4.0, 0.0]
        assert rep.records[0].residual < 1e-12

    # 12 coefficients do not fit the window D = 8
    LONG_F = dict(BASE, degree=8, inputs={"f": [[1.0, 0.0]] * 12})

    def test_decompose_f_past_the_window_is_an_errored_record(self, tmp_path):
        cfgp, out = tmp_path / "c.json", tmp_path / "r.json"
        cfgp.write_text(json.dumps(self.LONG_F))
        assert main(["decompose", "--config", str(cfgp), "--out", str(out)]) == 1
        rep = parse_json(out.read_bytes())
        [r] = rep.records
        assert r.name == "decompose/explicit/roundtrip_h2" and not r.passed
        assert r.error == "DimensionMismatchError: function degree 11 exceeds the window D = 8; pass D >= deg f"
        assert rep.data == {}  # no payload for a round trip that errored

    def test_decompose_f_past_the_window_raises_in_strict_mode(self):
        with pytest.raises(DimensionMismatchError, match="exceeds the window D = 8"):
            run(parse_config(self.LONG_F, "decompose", strict=True))

    def test_suite_passes_and_is_deterministic(self):
        cfg = parse_config(dict(BASE), "suite")
        r1 = run(cfg)
        r2 = run(cfg)
        assert r1.all_passed
        assert render(r1) == render(r2)

    def test_seed_changes_report(self):
        r1 = run(parse_config(dict(BASE, seed=1), "decompose"))
        r2 = run(parse_config(dict(BASE, seed=2), "decompose"))
        assert render(r1) != render(r2)


class TestSeededGenerator:
    """run makes the battery's generator on its first draw."""

    def test_batteries_that_draw_nothing_skip_numpy_random(self):
        code = """
import sys
from blaschke_lab import cli
mobius = {"B": {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 2}]}, "alpha": -1.0,
          "degree": 64, "inputs": {"family": "mobius_power", "a": [0.5, 0.0]}}
monomial = {"B": {"theta": 0.0, "zeros": [{"re": 0.0, "im": 0.0, "mult": 2}]}, "alpha": -1.0,
            "degree": 40, "inputs": {"family": "monomial"}}
for obj in (mobius, monomial):
    assert cli.run(cli.parse_config(obj, "reducing")).all_passed
print("numpy.random" in sys.modules)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_draws_equal_default_rng(self):
        lazy, ref = cli._SeededGenerator(7), np.random.default_rng(7)
        assert np.array_equal(lazy.standard_normal(5), ref.standard_normal(5))
        assert lazy.integers(0, 31) == ref.integers(0, 31)
        assert lazy.uniform() == ref.uniform()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_suite_report_equals_an_eager_generator(self, seed, monkeypatch):
        cfg = parse_config(dict(BASE, seed=seed), "suite")
        blob = render(run(cfg))
        monkeypatch.setattr(cli, "_SeededGenerator", np.random.default_rng)
        assert render(run(cfg)) == blob


class TestEcho:
    """A report's config re-runs to the same report."""

    TOLERANCES = {"tol_commute": 1e-30, "rho_max": 0.9, "roundtrip": 1e-7}

    def test_echo_keeps_every_override(self):
        rep = run(parse_config(dict(BASE, degree=48, tolerances=self.TOLERANCES), "suite"))
        assert rep.config["tolerances"] == self.TOLERANCES
        # the guard shows: symbol extraction refuses
        errors = {r.name: r.error for r in rep.records if r.error}
        assert errors["commutant/phi_0/symbol_roundtrip"].startswith("NotInCommutantError")
        assert render(run(parse_config(rep.config, "suite"))) == render(rep)


class TestMainExitCodes:
    def test_all_pass_exits_zero(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, degree=48)))
        out = tmp_path / "r.json"
        code = main(["decompose", "--config", str(cfgp), "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_failure_exits_one(self, tmp_path):
        # unreachable tolerance forces a failing record
        obj = dict(BASE, degree=48, tolerances={"roundtrip": 1e-300})
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        code = main(["decompose", "--config", str(cfgp), "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_config_error_exits_two(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, B=b_json([1.2 + 0j]))))
        code = main(["suite", "--config", str(cfgp)])
        assert code == 2

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["alpha", "theta"])
    def test_non_finite_alpha_or_theta_exits_two_and_names_it(self, tmp_path, capsys, command, value, field):
        # refused where it is read, not accepted or blamed on a battery's inputs
        obj = dict(BASE, alpha=value) if field == "alpha" else dict(BASE, B=dict(BASE["B"], theta=value))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main([command, "--config", str(cfgp)]) == 2
        message = "alpha must be finite" if field == "alpha" else "invalid field 'B': theta must be finite"
        assert capsys.readouterr().err == f"config error: {message}, got {value!r}\n"

    @pytest.mark.parametrize("alpha", [400.0, -400.0, 1e300, -1e300])
    def test_alpha_whose_weights_leave_the_float_range_exits_two_and_names_it(self, monkeypatch, tmp_path, capsys,
                                                                             alpha):
        # (17)^400 overflows and (17)^-400 underflows; the SVD would not converge mid-run
        for name in checks.BATTERIES:
            monkeypatch.setitem(checks.BATTERIES, name, lambda cfg, rng: pytest.fail("a battery ran"))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, alpha=alpha, degree=16)))
        for command in ("suite", "reducing", "cowen"):
            assert main([command, "--config", str(cfgp)]) == 2
            assert capsys.readouterr().err == (
                f"config error: alpha = {alpha!r} at degree = 16: the weights (k+1)^alpha leave the float range;"
                " need |alpha| * ln(degree + 1) < 709.78\n"
            )

    @pytest.mark.parametrize("degree", [16, 64])
    def test_alpha_just_inside_the_float_range_parses(self, degree):
        bound = math.log(sys.float_info.max) / math.log(degree + 1)
        for alpha in (0.99 * bound, -0.99 * bound):
            assert parse_config(dict(BASE, alpha=alpha, degree=degree), "suite").alpha == alpha
        with pytest.raises(ConfigError, match=r"^alpha = .* at degree = \d+: the weights"):
            parse_config(dict(BASE, alpha=1.01 * bound, degree=degree), "suite")

    def test_malformed_json_exits_two(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text("{not json")
        assert main(["suite", "--config", str(cfgp)]) == 2

    def test_byte_identical_reports_across_runs(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, degree=48)))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["suite", "--config", str(cfgp), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_format(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, degree=48)))
        out = tmp_path / "r.csv"
        code = main(["decompose", "--config", str(cfgp), "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_text().startswith("name,residual,tolerance,pass,wall_time_ms")


class TestBatteries:
    def test_commutant_battery(self):
        cfg = parse_config(dict(BASE, degree=64), "commutant")
        rep = run(cfg)
        assert rep.all_passed

    def test_reducing_monomial_battery(self):
        obj = dict(BASE, B=b_json([0.0 + 0j, 0.0 + 0j]), degree=40, inputs={"family": "monomial"})
        rep = run(parse_config(obj, "reducing"))
        assert rep.all_passed

    def test_reducing_mobius_battery(self):
        obj = {
            "B": {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 2}]},
            "alpha": -1.0,
            "degree": 120,
            "seed": 0,
            "inputs": {"family": "mobius_power", "a": [0.5, 0.0]},
        }
        rep = run(parse_config(obj, "reducing"))
        assert rep.all_passed

    @pytest.mark.parametrize("a, mult, degree", [(0.8, 2, 256), (0.5, 3, 128)])
    def test_reducing_mobius_battery_forms_no_weighted_adjoint(self, monkeypatch, a, mult, degree):
        # reducing_residual forms only the safe rows of T_B*, never the
        # weighted adjoint of a whole section
        def no_adjoint(A):
            raise AssertionError(f"weighted_adjoint of a {A.entries.shape} section")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "blaschke_lab" and hasattr(module, "weighted_adjoint"):
                monkeypatch.setattr(module, "weighted_adjoint", no_adjoint)
        obj = {
            "B": {"theta": 0.0, "zeros": [{"re": a, "im": 0.0, "mult": mult}]},
            "alpha": -1.0,
            "degree": degree,
            "seed": 13,
            "inputs": {"family": "mobius_power", "a": [a, 0.0]},
        }
        rep = run(parse_config(obj, "reducing", strict=True))
        assert [r.name for r in rep.records][1:] == [f"reducing/mobius_{j}/residual" for j in range(mult)]
        assert rep.all_passed

    def test_reducing_mobius_battery_rejects_non_bergman_weight(self, tmp_path):
        # the Mobius-power family is a reducing subspace of the Bergman weight only
        obj = {
            "B": {"theta": 0.0, "zeros": [{"re": 0.0, "im": 0.5, "mult": 3}]},
            "alpha": 0.5,
            "degree": 96,
            "seed": 0,
            "inputs": {"family": "mobius_power", "a": [0.0, 0.5]},
        }
        with pytest.raises(ConfigError, match="set alpha = -1"):
            run(parse_config(obj, "reducing"))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main(["reducing", "--config", str(cfgp)]) == 2

    def test_reducing_custom_report_only(self):
        obj = dict(
            BASE,
            degree=32,
            inputs={
                "family": "custom",
                "basis": [[[1, 0], [2, 0], [1, 0]]],
                "expected": "report-only",
            },
        )
        rep = run(parse_config(obj, "reducing"))
        assert rep.all_passed  # report-only records always pass
        assert "custom_projection" in rep.data

    # 1 and 2 span one line: the custom basis is numerically dependent
    DEPENDENT = dict(
        BASE,
        degree=32,
        inputs={"family": "custom", "basis": [[[1, 0], [0, 0]], [[2, 0], [0, 0]]], "expected": "reducing"},
    )

    def test_reducing_custom_setup_error_becomes_an_errored_record(self):
        rep = run(parse_config(self.DEPENDENT, "reducing"))
        [r] = rep.records
        assert r.name == "reducing/custom/residual" and not r.passed
        assert r.error.startswith("ConditioningError: setup projection_from_basis: subspace basis numerically dependent")
        assert "custom_projection" not in rep.data

    def test_reducing_custom_setup_error_raises_in_strict_mode(self):
        with pytest.raises(ConditioningError, match="setup projection_from_basis"):
            run(parse_config(self.DEPENDENT, "reducing", strict=True))

    def test_reducing_custom_basis_past_the_window_is_an_errored_record(self, tmp_path):
        # 1 + z^6 at D = 4: cut to 1, it would report the span of 1
        obj = dict(BASE, degree=4, inputs={"family": "custom", "basis": [[[1, 0]] + [[0, 0]] * 5 + [[1, 0]]]})
        cfgp, out = tmp_path / "c.json", tmp_path / "r.json"
        cfgp.write_text(json.dumps(obj))
        assert main(["reducing", "--config", str(cfgp), "--out", str(out)]) == 1
        rep = parse_json(out.read_bytes())
        [r] = rep.records
        assert r.name == "reducing/custom/residual" and not r.passed
        assert r.error == (
            "DimensionMismatchError: setup projection_from_basis: function degree 6 exceeds the window D = 4; "
            "pass D >= deg f"
        )
        assert rep.data == {}

    @pytest.mark.parametrize("expected", ["reduce", "Reducing", "", None, 1])
    def test_reducing_custom_unknown_expected_is_a_config_error(self, tmp_path, expected):
        # a typo never turns the record report-only: "reduce" would pass at residual 0.638
        inputs = {"family": "custom", "basis": [[[1, 0], [2, 0], [1, 0]]], "expected": expected}
        obj = dict(BASE, degree=32, inputs=inputs)
        with pytest.raises(ConfigError, match=r"^unknown custom expected .*; valid values: reducing, report-only$"):
            run(parse_config(obj, "reducing"))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main(["reducing", "--config", str(cfgp)]) == 2

    # the second basis function is zero
    ZERO_FUNCTION = dict(BASE, degree=16, inputs={"family": "custom", "basis": [[[1, 0], [1, 0]], [[0, 0]]]})

    def test_reducing_custom_zero_function_is_an_errored_record(self, tmp_path):
        cfgp, out = tmp_path / "c.json", tmp_path / "r.json"
        cfgp.write_text(json.dumps(self.ZERO_FUNCTION))
        assert main(["reducing", "--config", str(cfgp), "--out", str(out)]) == 1
        rep = parse_json(out.read_bytes())
        [r] = rep.records
        assert r.name == "reducing/custom/residual" and not r.passed
        assert r.error == "ZeroFunctionError: setup projection_from_basis: basis function 1 is the zero function"
        assert rep.data == {}

    def test_reducing_custom_zero_function_raises_in_strict_mode(self):
        with pytest.raises(ZeroFunctionError, match="basis function 1 is the zero function"):
            run(parse_config(self.ZERO_FUNCTION, "reducing", strict=True))

    def test_ortho_battery(self):
        rep = run(parse_config(dict(BASE, degree=64, inputs={"kmax": 3}), "ortho"))
        assert rep.all_passed

    # B2 at degree 10 is below the (kmax + 3) n = 12 the default chain needs
    SHORT_WINDOW = dict(BASE, degree=10)
    SHORT_WINDOW_ERROR = "ConfigError: ortho needs a larger degree or a smaller inputs.kmax: D = 10 too small for kmax = 3 (need >= 12)"

    def test_suite_reports_past_a_short_ortho_window(self):
        rep = run(parse_config(self.SHORT_WINDOW, "suite"))
        ortho = [r for r in rep.records if r.name.startswith("ortho/")]
        assert [(r.name, r.passed, r.error) for r in ortho] == [
            ("ortho/chain_constructed", False, self.SHORT_WINDOW_ERROR)
        ]
        families = {r.name.split("/")[0] for r in rep.records}
        assert families == {"decompose", "commutant", "ortho", "shift_equiv", "cowen", "reducing"}

    def test_short_ortho_window_is_a_config_error_in_strict_mode(self, tmp_path):
        cfg = parse_config(self.SHORT_WINDOW, "ortho")
        with pytest.raises(ConfigError, match=r"need >= 12\)$"):
            checks.ortho_checks(dataclasses.replace(cfg, strict=True), np.random.default_rng(0))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(self.SHORT_WINDOW))
        assert main(["ortho", "--config", str(cfgp), "--strict"]) == 2

    #: (command, inputs, message) of malformed inputs values: each is read
    #: when the config is parsed, and its error names inputs.<key>
    MALFORMED = {
        # a coefficient key of the wrong shape
        "f-number": ("decompose", {"f": 5}, "inputs.f must be a nonempty list, got 5"),
        "f-empty": ("decompose", {"f": []}, "inputs.f must be a nonempty list, got []"),
        "phi-one-level": ("commutant", {"phi": [[1, 0], [2, 0]]}, "inputs.phi[0][0] must be a nonempty list, got 1"),
        "phi-empty": ("commutant", {"phi": []}, "inputs.phi must be a nonempty list, got []"),
        "basis-number": ("reducing", {"family": "custom", "basis": 3}, "inputs.basis must be a nonempty list, got 3"),
        "h-object": ("shift-equiv", {"mode": "general", "h": {"re": 1}}, "inputs.h must be a nonempty list, got {'re': 1}"),
        # a phi that is not deg B square, or past the degree cap
        "phi-not-square": ("commutant", {"phi": [[[[1, 0]], [[0, 0]]]]}, "inputs.phi: multiplier matrix must be square"),
        "phi-past-cap": (
            "commutant",
            {"phi": [[[[1, 0]] * 66, [[0, 0]]], [[[0, 0]], [[1, 0]]]]},
            "inputs.phi: entry degree 65 exceeds the multiplier degree cap 64",
        ),
        "phi-wrong-size": ("suite", {"phi": [[[[1, 0]]]]}, "inputs.phi is 1 x 1 but deg B = 2"),
        "custom-without-basis": ("reducing", {"family": "custom"}, "custom family requires inputs.basis"),
        # a count or radius of the wrong type
        **{
            f"{command}-{key}-{value!r}": (command, {key: value}, f"inputs.{key} must be {kind}, got {value!r}")
            for command, key, value, kind in [
                ("decompose", "num_samples", 2.9, "an integer"),
                ("decompose", "max_degree", "16", "an integer"),
                ("commutant", "num_samples", True, "an integer"),
                ("commutant", "symbol_degree", 4.5, "an integer"),
                ("ortho", "kmax", 2.5, "an integer"),
                ("cowen", "num_points", 20.5, "an integer"),
                ("cowen", "radius", "0.5", "a number"),
                ("suite", "num_samples", 2.9, "an integer"),
            ]
        },
        # a count below its least value would check nothing and pass
        **{
            f"{command}-{key}-{value}": (command, {key: value}, f"inputs.{key} must be >= {least}, got {value}")
            for command, key, value, least in [
                ("decompose", "num_samples", 0, 1),
                ("decompose", "num_samples", -1, 1),
                ("decompose", "max_degree", -1, 0),
                ("commutant", "num_samples", 0, 1),
                ("commutant", "symbol_degree", -1, 0),
                ("ortho", "kmax", -1, 0),
                ("cowen", "num_points", 0, 1),
            ]
        },
        # a sampled symbol past the multiplier degree cap would fail mid-run
        **{
            f"{command}-symbol_degree-65": (command, {"symbol_degree": 65}, "inputs.symbol_degree must be <= 64, got 65")
            for command in ("commutant", "suite")
        },
        # 0.0 samples only the origin, -0.5 rotates the points, 1.5 leaves the disc
        **{
            f"{command}-radius-{radius!r}": (command, {"radius": radius}, f"inputs.radius must lie in (0, 1), got {radius!r}")
            for command in ("cowen", "suite")
            for radius in (0.0, -0.5, 1.0, 1.5, float("nan"))
        },
    }

    @pytest.mark.parametrize("command,inputs,message", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_input_is_a_config_error_before_any_battery_runs(self, monkeypatch, tmp_path, capsys, command,
                                                                       inputs, message):
        for name in checks.BATTERIES:
            monkeypatch.setitem(checks.BATTERIES, name, lambda cfg, rng: pytest.fail("a battery ran"))
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            parse_config(dict(BASE, inputs=inputs), command)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, inputs=inputs)))
        assert main([command, "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n" and "invalid inputs for" not in err

    def test_smallest_inputs_are_accepted(self):
        obj = dict(BASE, degree=48, inputs={"num_samples": 1, "max_degree": 0, "symbol_degree": 0, "num_points": 1})
        rep = run(parse_config(obj, "suite"))
        names = [r.name for r in rep.records]
        assert names.count("decompose/sample_0/roundtrip_h2") == 1 and "decompose/sample_1/roundtrip_h2" not in names
        assert "commutant/phi_0/commutation" in names and "commutant/phi_1/commutation" not in names
        assert not any(r.error for r in rep.records)

    def test_shift_equiv_monomial_battery(self):
        obj = dict(BASE, B=b_json([0.0 + 0j, 0.0 + 0j]), degree=60)
        rep = run(parse_config(obj, "shift-equiv"))
        assert rep.all_passed

    @pytest.mark.parametrize("command", ["shift-equiv", "suite"])
    @pytest.mark.parametrize("mode", ["monomal", None, 1])
    def test_shift_equiv_unknown_mode_is_a_config_error(self, tmp_path, command, mode):
        # a typo never falls through to the general mode
        obj = dict(BASE, inputs={"mode": mode})
        with pytest.raises(ConfigError, match=r"^unknown shift-equiv mode .*; valid values: monomial, general$"):
            run(parse_config(obj, command))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main([command, "--config", str(cfgp)]) == 2

    @pytest.mark.parametrize("command", ["shift-equiv", "suite"])
    @pytest.mark.parametrize("B", [b_json([0.5 + 0j, -0.3 + 0j]), {"theta": 0.5, "zeros": [{"re": 0.0, "im": 0.0, "mult": 2}]}],
                             ids=["B2", "rotated z^2"])
    def test_shift_equiv_monomial_mode_requires_z_n(self, command, B):
        # the monomial intertwiner is built for T_(z^n): on another B both
        # records would measure T_(z^n), not the configured T_B
        with pytest.raises(ConfigError, match=r"^shift-equiv mode 'monomial' requires B = z\^2; set mode 'general' for this B$"):
            run(parse_config(dict(BASE, B=B, inputs={"mode": "monomial"}), command))

    def test_shift_equiv_general_mode_on_z_n(self):
        obj = dict(BASE, B=b_json([0.0 + 0j, 0.0 + 0j]), degree=60)
        rep = run(parse_config(dict(obj, inputs={"mode": "general"}), "shift-equiv"))
        assert [r.name for r in rep.records] == ["shift_equiv/bnorm_identity", "shift_equiv/shell_shift"]
        assert rep.all_passed
        explicit = run(parse_config(dict(obj, inputs={"mode": "monomial"}), "shift-equiv"))
        default = run(parse_config(obj, "shift-equiv"))
        assert [r.name for r in default.records] == ["shift_equiv/unitarity", "shift_equiv/intertwining"]
        assert [r.residual for r in explicit.records] == [r.residual for r in default.records]

    def test_shift_equiv_analysis_covers_every_image(self):
        # for zeros 0 and 0.1 at D = 256, 99 powers fit the window but the
        # deficit count is 83: analysis must still reach the last image
        obj = dict(BASE, B=b_json([0j, 0.1 + 0j]), degree=256)
        rep = run(parse_config(obj, "shift-equiv"))
        assert rep.all_passed

    def test_cowen_battery(self):
        rep = run(parse_config(dict(BASE, degree=64), "cowen"))
        assert rep.all_passed

    @pytest.mark.parametrize("zeros, degree", [([0.5 + 0j, -0.3 + 0j], 64), ([0.5 + 0j, -0.3 + 0.2j, 0.1 + 0j], 256)])
    def test_cowen_witness_is_the_h2_adjoint_shift(self, monkeypatch, zeros, degree):
        # the witness's residual is that of the H^2 adjoint of T_z, bit for bit
        seen, residual = [], checks.cm.cowen_residual

        def recorded(W, B, pts):
            seen.append((W, B, pts))
            return residual(W, B, pts)

        monkeypatch.setattr(checks.cm, "cowen_residual", recorded)
        rep = run(parse_config(dict(BASE, B=b_json(zeros), degree=degree), "cowen"))
        W, B, pts = seen[-1]
        T_z = bl.toeplitz_matrix(bl.TaylorPoly([0, 1]), degree, 0.0)
        worst = residual(bl.weighted_adjoint(T_z), B, pts)
        assert W.alpha == bl.WeightAlpha(0.0) and np.array_equal(W.entries, bl.weighted_adjoint(T_z).entries)
        assert rep.records[-1].name == "cowen/adjoint_shift_witness_margin"
        assert rep.records[-1].residual == 1e-2 / worst and rep.all_passed

    def test_commutant_failure_at_the_window_limit_says_increase_d(self):
        # B3 at D = 48: the commutation residual stays 2.5e-8 to 1.0e-7 for
        # any shell count, near 0.5^(48 - 24) = 6e-8
        obj = dict(BASE, B=b_json([0.5 + 0j, -0.3 + 0.2j, 0.1 + 0j]), degree=48, seed=0)
        msg = r"at D = 48, D_safe = 24; .* max\|a\|\^\(D - D_safe\) = 6\.0e-08, so if W is one, increase D$"
        with pytest.raises(NotInCommutantError, match=msg):
            run(parse_config(obj, "suite", strict=True))

    # (0.8, -0.79i) at D = 48: the model-space test of the default h fails
    NEAR_EDGE = dict(BASE, B=b_json([0.8 + 0j, -0.79j]), degree=48)

    def test_shift_equiv_setup_error_becomes_errored_records(self):
        rep = run(parse_config(self.NEAR_EDGE, "shift-equiv"))
        assert [r.name for r in rep.records] == ["shift_equiv/bnorm_identity", "shift_equiv/shell_shift"]
        for r in rep.records:
            assert not r.passed
            assert r.error.startswith("MembershipError: setup shift_equiv_general: h fails")

    def test_shift_equiv_setup_error_raises_in_strict_mode(self):
        with pytest.raises(MembershipError, match="setup shift_equiv_general"):
            run(parse_config(self.NEAR_EDGE, "shift-equiv", strict=True))

    @pytest.mark.parametrize("degree", [1, 3, 4])
    def test_shift_equiv_monomial_small_window_is_errored(self, degree):
        # z^3: the safe block must hold z^2 and z^5, so D >= 9
        obj = dict(BASE, B={"theta": 0.0, "zeros": [{"re": 0.0, "im": 0.0, "mult": 3}]}, degree=degree)
        rep = run(parse_config(obj, "shift-equiv"))
        assert [r.name for r in rep.records] == ["shift_equiv/unitarity", "shift_equiv/intertwining"]
        for r in rep.records:
            assert not r.passed
            assert r.error.startswith("DimensionMismatchError: setup shift_equiv_monomial: ")
            assert r.error.endswith("increase D to >= 9")
        with pytest.raises(DimensionMismatchError, match="increase D to >= 9"):
            run(parse_config(obj, "shift-equiv", strict=True))

    @pytest.mark.parametrize("degree, shells", [(1, 0), (22, 3), (23, 4)])
    def test_symbol_roundtrip_below_the_symbol_degree_is_errored(self, degree, shells):
        # z^3 with the default symbol degree T = 4: the derived shell count
        # reaches 4 at D = 23; below it the coefficients of Phi past shell M
        # have no shell to come back on, so the round trip cannot pass
        obj = dict(BASE, B={"theta": 0.0, "zeros": [{"re": 0.0, "im": 0.0, "mult": 3}]}, alpha=0.0, degree=degree)
        assert bl.wold.shell_count(bl.BlaschkeProduct.monomial(3), degree) == shells
        rep = run(parse_config(obj, "commutant"))
        assert [r.passed for r in rep.records if r.name.endswith("/commutation")] == [True] * 3
        roundtrips = [r for r in rep.records if r.name.endswith("/symbol_roundtrip")]
        assert len(roundtrips) == 3
        if shells >= 4:
            assert rep.all_passed
            return
        message = f"symbol degree T = 4 exceeds the shell count M = {shells}; increase D or shells"
        for r in roundtrips:
            assert not r.passed and r.error == f"DimensionMismatchError: {message}"
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            run(parse_config(obj, "commutant", strict=True))

    def test_suite_reports_past_a_shift_equiv_setup_error(self):
        rep = run(parse_config(self.NEAR_EDGE, "suite"))
        names = [r.name for r in rep.records]
        assert "shift_equiv/shell_shift" in names and "cowen/T_B" in names

    def test_shift_equiv_checks_three_images_when_no_power_fits(self, monkeypatch):
        # B2 at D = 48: already B's own tail past D is above 1e-15
        obj = dict(BASE, B=b_json([0.5 + 0j, -0.3 + 0j]), degree=48)
        assert bl.wold.power_count(parse_config(obj, "shift-equiv").blaschke, 48) == 0
        counts, general = [], checks.rd.shift_equiv_general

        def counted(B, h, w, M, D, **kw):
            counts.append(M)
            return general(B, h, w, M, D, **kw)

        monkeypatch.setattr(checks.rd, "shift_equiv_general", counted)
        rep = run(parse_config(obj, "shift-equiv"))
        assert counts == [2] and rep.all_passed
