"""Every settable value must be read somewhere: a Settings field or CLI
tolerances key that no library code reads is a knob that does nothing.
Settings holds only what a config can set, and every settings parameter
is read or passed on."""

import ast
import dataclasses
from pathlib import Path

import blaschke_lab as bl
from blaschke_lab import checks, cli

SRC = Path(bl.__file__).resolve().parent


def _trees(exclude=()):
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py")) if p.name not in exclude]


def _attributes_read(trees):
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


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


def test_every_settings_field_is_read_outside_config():
    read = _attributes_read(_trees(exclude={"config.py"}))
    fields = {f.name for f in dataclasses.fields(bl.Settings)}
    assert sorted(fields - read) == []


def test_every_cli_settings_key_is_a_field_that_is_read():
    read = _attributes_read(_trees(exclude={"config.py"}))
    fields = {f.name for f in dataclasses.fields(bl.Settings)}
    assert [k for k in cli.SETTINGS_KEYS if k not in fields or k not in read] == []


def test_settings_fields_are_the_cli_keys():
    # a guard no config can set is a constant beside the function reading it
    assert {f.name for f in dataclasses.fields(bl.Settings)} == set(cli.SETTINGS_KEYS)


def _uses_settings(fn):
    """fn reads settings.<field> or passes settings=settings to a call."""

    def is_settings(node):
        return isinstance(node, ast.Name) and node.id == "settings"

    return any(
        (isinstance(node, ast.Attribute) and is_settings(node.value))
        or (isinstance(node, ast.keyword) and node.arg == "settings" and is_settings(node.value))
        for node in ast.walk(fn)
    )


def test_every_settings_parameter_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
                if "settings" in params and not _uses_settings(fn):
                    unused.append(f"{path.name}:{fn.name}")
    assert unused == []


def test_every_check_tolerance_is_read_through_tol():
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    assert sorted(set(checks.CHECK_TOLERANCES) - _tol_keys(tree)) == []
