"""Every settable value must be read somewhere: a CLI tolerances key that
no library code reads is a knob that does nothing. A guard key set in a
config's tolerances reaches the one function that reads it. A check key is
the key of record families in checks.RECORDS: every record a battery emits
belongs to one family, and a key set to 0 fails exactly its families'
records."""

import ast
import re
from pathlib import Path

import pytest

import blaschke_lab as bl
from blaschke_lab import checks, cli
from blaschke_lab.errors import ConfigError

SRC = Path(bl.__file__).resolve().parent

B2 = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}, {"re": -0.3, "im": 0.0, "mult": 1}]}
Z2 = {"theta": 0.0, "zeros": [{"re": 0.0, "im": 0.0, "mult": 2}]}
HALF_SQUARED = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 2}]}


def _run(command, **obj):
    return cli.run(cli.parse_config({"B": B2, "alpha": -1.0, "degree": 48, **obj}, command))


#: configs that together emit every record family: suite on B2 (shift-equiv
#: mode general) and on z^2 (mode monomial), mobius_power on b_0.5^2, custom,
#: and shift-equiv mode general on z^2
RECORD_CONFIGS = {
    "suite-B2": ("suite", {}),
    "suite-z2": ("suite", {"B": Z2}),
    "mobius_power": ("reducing", {"B": HALF_SQUARED, "inputs": {"family": "mobius_power"}}),
    "custom": ("reducing", {"inputs": {"family": "custom", "basis": [[[1.0, 0.0]]], "expected": "reducing"}}),
    "shift-equiv-general": ("shift-equiv", {"B": Z2, "inputs": {"mode": "general"}}),
}


def _family(name: str) -> str:
    """The one pattern of checks.RECORDS that name matches, each {} a label without '/'."""
    found = [p for p in checks.RECORDS if re.fullmatch(re.escape(p).replace(r"\{\}", "[^/]+"), name)]
    assert len(found) == 1, f"{name} matches {found}"
    return found[0]


@pytest.fixture(scope="module")
def reports():
    return {label: _run(command, **obj) for label, (command, obj) in RECORD_CONFIGS.items()}


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
    valid = (
        "tol_commute, rho_max, roundtrip, commute, symbol_roundtrip, reducing_monomial, reducing_mobius, k0_orthogonality,"
        " projection_law, block_orthogonality, shift_action, triangularity, unitarity, intertwining, bnorm_identity,"
        " shell_shift, cowen_member, witness_margin"
    )
    with pytest.raises(ConfigError, match=rf"^unknown tolerances key 'gap_tol'; valid keys: {valid}$"):
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


def test_every_record_belongs_to_one_family_and_every_family_is_emitted(reports):
    emitted = {_family(r.name) for rep in reports.values() for r in rep.records}
    assert sorted(emitted) == sorted(checks.RECORDS)


@pytest.mark.parametrize("key", checks.CHECK_TOLERANCES)
def test_a_key_set_to_zero_fails_exactly_the_records_of_its_families(reports, key):
    families = {family for family, (k, _) in checks.RECORDS.items() if k == key}
    failed = set()
    for label, (command, obj) in RECORD_CONFIGS.items():
        if not families & {_family(r.name) for r in reports[label].records}:
            continue
        rep = _run(command, **obj, tolerances={key: 0.0})
        assert [r.name for r in rep.records] == [r.name for r in reports[label].records]
        for r, default in zip(rep.records, reports[label].records):
            if _family(r.name) in families:
                assert (r.tolerance, r.passed) == (0.0, False)
                failed.add(_family(r.name))
            else:
                assert (r.tolerance, r.passed) == (default.tolerance, default.passed)
    assert failed == families


def test_every_family_of_a_key_has_its_default():
    for key, default in checks.RECORDS.values():
        assert key is None or checks.CHECK_TOLERANCES[key] == default


def test_chain_constructed_and_a_report_only_record_read_no_key():
    assert checks.RECORDS["ortho/chain_constructed"] == (None, 0.5)
    zeros = {key: 0.0 for key in checks.CHECK_TOLERANCES}
    [chain, *_] = _run("ortho", tolerances=zeros).records
    assert (chain.name, chain.tolerance, chain.passed) == ("ortho/chain_constructed", 0.5, True)
    report_only = {"family": "custom", "basis": [[[0.2, 0.0], [1.0, 0.0]]], "expected": "report-only"}
    [custom] = _run("reducing", inputs=report_only, tolerances=zeros).records
    assert custom.residual > 0.1 and (custom.tolerance, custom.passed) == (float("inf"), True)
