"""Every settable value must be read somewhere: a CLI tolerances key that
no library code reads is a knob that does nothing. A guard key set in a
config's tolerances reaches the one function that reads it; a check key
is read through checks._tol."""

import ast
from pathlib import Path

import pytest

import blaschke_lab as bl
from blaschke_lab import checks, cli
from blaschke_lab.errors import ConfigError

SRC = Path(bl.__file__).resolve().parent

B2 = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}, {"re": -0.3, "im": 0.0, "mult": 1}]}


def _run(command, **obj):
    return cli.run(cli.parse_config({"B": B2, "alpha": -1.0, "degree": 48, **obj}, command))


def _tol_keys(tree):
    """String keys passed as the second argument of checks._tol."""
    return {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_tol"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant)
    }


def test_rho_max_admits_a_zero_and_the_mobius_point():
    double = {"theta": 0.0, "zeros": [{"re": 0.9, "im": 0.0, "mult": 2}]}
    obj = {"B": double, "alpha": -1.0, "degree": 256, "inputs": {"family": "mobius_power", "a": [0.9, 0.0]}}
    with pytest.raises(ConfigError, match=r"need \|a\| <= rho_max = 0\.8"):
        cli.parse_config(obj, "reducing")
    rep = cli.run(cli.parse_config(dict(obj, tolerances={"rho_max": 0.95}), "reducing"))
    # the projection at |a| = 0.9 is built, not refused by the default guard
    [mobius_0] = [r for r in rep.records if r.name == "reducing/mobius_0/residual"]
    assert mobius_0.error is None and mobius_0.residual < 1e-4
    with pytest.raises(ConfigError, match=r"need \|a\| <= rho_max = 0\.4"):
        cli.parse_config(dict(obj, B=B2, tolerances={"rho_max": 0.4}), "reducing")


def test_tol_commute_reaches_symbol_extraction():
    assert _run("commutant").all_passed
    rep = _run("commutant", tolerances={"tol_commute": 0.0})
    roundtrips = [r for r in rep.records if r.name.endswith("/symbol_roundtrip")]
    assert len(roundtrips) == 3
    for r in roundtrips:
        assert not r.passed
        assert r.error.startswith("NotInCommutantError: commutation residual ")
        assert "exceeds tol_commute 0.0e+00" in r.error


def test_gap_tol_is_an_unknown_key():
    # the X-chain counts no singular values, so it has no gap guard to set
    assert _run("ortho").data == {"block_dims": [2, 2, 2, 2]}
    with pytest.raises(ConfigError, match=r"^unknown tolerances key 'gap_tol'; valid keys: tol_commute, rho_max, "):
        _run("ortho", tolerances={"gap_tol": 1e-6})


def _input_reads(fn):
    """inputs keys a battery reads: the keys of its _input(cfg, "key", ...)
    calls. A battery that reads cfg.inputs itself would bypass its reader."""
    keys = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_input":
            keys.add(node.args[1].value)
        assert not (isinstance(node, ast.Attribute) and node.attr == "inputs"), f"{fn.name} reads cfg.inputs"
    return keys


def test_input_keys_are_the_keys_each_battery_reads():
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    reads = {command: _input_reads(functions[fn.__name__]) for command, fn in checks.BATTERIES.items()}
    reads["suite"] = set().union(*(reads[command] for command in checks.SUITE_COMMANDS))
    assert {command: set(keys) for command, keys in checks.INPUT_KEYS.items()} == reads


def test_every_accepted_inputs_key_has_one_reader():
    # every key a command accepts is read when the config is parsed, and every reader has a battery
    assert set(checks.INPUT_READERS) == set().union(*checks.INPUT_KEYS.values())


def test_every_guard_key_is_a_keyword_of_a_library_function():
    keywords = {
        a.arg
        for path in SRC.glob("*.py")
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for a in fn.args.kwonlyargs
    }
    assert sorted(set(cli.GUARD_KEYS) - keywords) == []


def test_every_check_tolerance_is_read_through_tol():
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    assert sorted(set(checks.CHECK_TOLERANCES) - _tol_keys(tree)) == []
