"""The suite over products, weights and windows with shell counts derived
from (B, D): every record passes at D = 256, and what still fails at a
smaller D is the window itself, never the shell count. No case is skipped
and no tolerance is changed."""

from functools import cache

import pytest

from blaschke_lab import cli, wold

PRODUCTS = {
    "B2": [0.5, -0.3],
    "B3": [0.5, -0.3 + 0.2j, 0.1],
    "0.6 double": [(0.6, 2)],
    "0.8, -0.79i": [0.8, -0.79j],
    "near duplicate": [0.5, 0.5 + 1e-9, -0.3],
}
ALPHAS = (-2.0, -1.0, 0.0, 1.0)

#: records passed at every alpha below D = 256, of 24 for degree 2 and 26 for
#: degree 3; the failures left do not move when the shell count doubles
PASSED = {
    48: {"B2": 24, "B3": 20, "0.6 double": 15, "0.8, -0.79i": 14, "near duplicate": 19},
    128: {"B2": 24, "B3": 26, "0.6 double": 24, "0.8, -0.79i": 18, "near duplicate": 26},
}


def _b_json(zeros):
    out = []
    for z in zeros:
        a, mult = z if isinstance(z, tuple) else (z, 1)
        out.append({"re": complex(a).real, "im": complex(a).imag, "mult": mult})
    return {"theta": 0.0, "zeros": out}


def _suite(product, alpha, D):
    obj = {"B": _b_json(PRODUCTS[product]), "alpha": alpha, "degree": D, "seed": 0, "inputs": {}}
    return tuple(cli.run(cli.parse_config(obj, "suite")).records)


_derived = cache(_suite)  # each cell runs once with the derived counts


def _flags(records):
    return {r.name: r.passed for r in records}


@pytest.mark.parametrize("product", PRODUCTS)
def test_every_record_passes_at_d256(product):
    for alpha in ALPHAS:
        failed = [r.name for r in _derived(product, alpha, 256) if not r.passed]
        assert failed == [], f"alpha = {alpha}"


@pytest.mark.parametrize("D", sorted(PASSED))
@pytest.mark.parametrize("product", PRODUCTS)
def test_small_windows_fail_only_where_d_limits(product, D):
    for alpha in ALPHAS:
        records = _derived(product, alpha, D)
        assert sum(r.passed for r in records) >= PASSED[D][product], f"alpha = {alpha}"
        for r in records:
            if r.error is not None:
                assert "increase D" in r.error, r.error


@pytest.mark.parametrize("D", sorted(PASSED))
@pytest.mark.parametrize("product", PRODUCTS)
def test_doubling_the_shell_count_flips_no_record(product, D, monkeypatch):
    derived = {alpha: _flags(_derived(product, alpha, D)) for alpha in ALPHAS}
    rule = wold.shell_count
    monkeypatch.setattr(wold, "shell_count", lambda B, D: 2 * rule(B, D))
    for alpha in ALPHAS:
        assert _flags(_suite(product, alpha, D)) == derived[alpha], f"alpha = {alpha}"
