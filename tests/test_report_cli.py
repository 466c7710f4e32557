import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blaschke_lab as bl
from blaschke_lab import checks, cli
from blaschke_lab.cli import main, parse_config, run
from blaschke_lab.errors import (
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
             r"inputs, tolerances, format, output$"),
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

    def test_empty_phi_exits_two_and_says_why(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(BASE, inputs={"phi": []})))
        assert main(["commutant", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid inputs for 'commutant': multiplier coefficients must be "
            "a nonempty (T + 1) x n x n array with n >= 1\n"
        )

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

    NEGATIVE_KMAX = dict(BASE, inputs={"kmax": -1})

    def test_negative_kmax_is_an_errored_record(self, tmp_path):
        rep = run(parse_config(self.NEGATIVE_KMAX, "ortho"))
        assert [(r.name, r.passed, r.error) for r in rep.records] == [
            (
                "ortho/chain_constructed",
                False,
                "ConfigError: inputs.kmax must be >= 0, got -1",
            )
        ]
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(self.NEGATIVE_KMAX))
        assert main(["ortho", "--config", str(cfgp), "--strict"]) == 2

    @pytest.mark.parametrize(
        "command,key,value,record",
        [
            ("decompose", "num_samples", 2.9, "decompose/inputs"),
            ("decompose", "max_degree", "16", "decompose/inputs"),
            ("commutant", "num_samples", True, "commutant/inputs"),
            ("commutant", "symbol_degree", 4.5, "commutant/inputs"),
            ("ortho", "kmax", 2.5, "ortho/chain_constructed"),
            ("cowen", "num_points", 20.5, "cowen/inputs"),
            ("cowen", "radius", "0.5", "cowen/inputs"),
        ],
    )
    def test_bad_input_value_is_an_errored_record(self, tmp_path, command, key, value, record):
        obj = dict(BASE, inputs={key: value})
        kind = "a number" if key == "radius" else "an integer"
        rep = run(parse_config(obj, command))
        assert [(r.name, r.passed, r.error) for r in rep.records] == [
            (record, False, f"ConfigError: inputs.{key} must be {kind}, got {value!r}")
        ]
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main([command, "--config", str(cfgp), "--strict"]) == 2

    @pytest.mark.parametrize(
        "command,key,value,least,record",
        [
            ("decompose", "num_samples", 0, 1, "decompose/inputs"),
            ("decompose", "num_samples", -1, 1, "decompose/inputs"),
            ("decompose", "max_degree", -1, 0, "decompose/inputs"),
            ("commutant", "num_samples", 0, 1, "commutant/inputs"),
            ("commutant", "symbol_degree", -1, 0, "commutant/inputs"),
            ("cowen", "num_points", 0, 1, "cowen/inputs"),
        ],
    )
    def test_input_below_its_minimum_is_an_errored_record(self, tmp_path, command, key, value, least, record):
        # a count of zero would check nothing and pass
        obj = dict(BASE, inputs={key: value})
        rep = run(parse_config(obj, command))
        assert [(r.name, r.passed, r.error) for r in rep.records] == [
            (record, False, f"ConfigError: inputs.{key} must be >= {least}, got {value}")
        ]
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main([command, "--config", str(cfgp), "--strict"]) == 2

    @pytest.mark.parametrize("radius", [0.0, -0.5, 1.0, 1.5, float("nan")])
    def test_radius_outside_the_open_unit_interval_is_an_errored_record(self, tmp_path, radius):
        # 0.0 samples only the origin, -0.5 rotates the points, 1.5 leaves the disc
        obj = dict(BASE, inputs={"radius": radius})
        rep = run(parse_config(obj, "cowen"))
        assert [(r.name, r.passed, r.error) for r in rep.records] == [
            ("cowen/inputs", False, f"ConfigError: inputs.radius must lie in (0, 1), got {radius!r}")
        ]
        suite = run(parse_config(dict(obj, degree=48), "suite"))
        assert [r.name for r in suite.records if r.error] == ["cowen/inputs"]
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(obj))
        assert main(["cowen", "--config", str(cfgp), "--strict"]) == 2

    def test_smallest_inputs_are_accepted(self):
        obj = dict(BASE, degree=48, inputs={"num_samples": 1, "max_degree": 0, "symbol_degree": 0, "num_points": 1})
        rep = run(parse_config(obj, "suite"))
        names = [r.name for r in rep.records]
        assert names.count("decompose/sample_0/roundtrip_h2") == 1 and "decompose/sample_1/roundtrip_h2" not in names
        assert "commutant/phi_0/commutation" in names and "commutant/phi_1/commutation" not in names
        assert not any(r.error for r in rep.records)

    def test_suite_reports_past_a_bad_input_value(self):
        rep = run(parse_config(dict(BASE, degree=48, inputs={"num_samples": 2.9}), "suite"))
        errored = [(r.name, r.error) for r in rep.records if r.error]
        assert errored == [
            ("decompose/inputs", "ConfigError: inputs.num_samples must be an integer, got 2.9"),
            ("commutant/inputs", "ConfigError: inputs.num_samples must be an integer, got 2.9"),
        ]
        families = {r.name.split("/")[0] for r in rep.records}
        assert families == {"decompose", "commutant", "ortho", "shift_equiv", "cowen", "reducing"}

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
