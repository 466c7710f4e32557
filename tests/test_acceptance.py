"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with the measured residual against its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json

import numpy as np
import pytest

import blaschke_lab as bl
from blaschke_lab.cli import main, parse_config, run
from blaschke_lab import safe_degree
from blaschke_lab.report import render
from blaschke_lab.spaces import TaylorPoly, operator_norm_safe
from conftest import b_norm, identity, monomial


def verdict(num, name, value, tol, *, larger_is_better=False):
    ok = value > tol if larger_is_better else value < tol
    rel = ">" if larger_is_better else "<"
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"(measured {value:.3e} {rel} tol {tol:.1e})")
    assert ok, f"criterion {num}: {value:.3e} not {rel} {tol:.1e}"


def verdict_parts(num, name, parts):
    """parts: {label: (value, tolerance)}; prints the tightest margin."""
    binding = max(parts, key=lambda k: parts[k][0] / parts[k][1])
    v, t = parts[binding]
    ok = all(val < tol for val, tol in parts.values())
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"(binding {binding}: {v:.3e} < tol {t:.1e})")
    assert ok, f"criterion {num}: " + ", ".join(
        f"{k}={v:.3e} (tol {t:.1e})" for k, (v, t) in parts.items() if v >= t
    )


B3 = bl.BlaschkeProduct(0.0, [0.5, -0.3 + 0.2j, 0.1])


def random_poly(rng, degree):
    return TaylorPoly(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def test_01_exact_slicing_roundtrip():
    B = bl.BlaschkeProduct.monomial(3)
    D, M = 96, 16
    rng = np.random.default_rng(101)
    basis = bl.model_basis(B, D)
    worst = 0.0
    for _ in range(50):
        f = random_poly(rng, int(rng.integers(0, 31)))
        g = bl.synthesize(bl.analyze(f, B, M, D, basis=basis), D)
        diff = g - f.pad(D)
        worst = max(worst, bl.weighted_norm(diff, 0.0), bl.weighted_norm(diff, -1.0))
    verdict(1, "exact-slicing-roundtrip", worst, 1e-12)


def test_02_general_decomposition_roundtrip():
    D = 96
    rng = np.random.default_rng(102)
    basis = bl.model_basis(B3, D)
    polys = [random_poly(rng, 20) for _ in range(20)]
    residuals = {}
    for M in (8, 16, 24):
        residuals[M] = []
        for f in polys:
            g = bl.synthesize(bl.analyze(f, B3, M, D, basis=basis), D)
            residuals[M].append(float(np.linalg.norm((g - f.pad(D)).coeffs[:49])))
    monotone = all(
        residuals[16][i] <= residuals[8][i] + 1e-12
        and residuals[24][i] <= residuals[16][i] + 1e-12
        for i in range(20)
    )
    assert monotone, "round-trip residual failed to decrease through M = 8, 16, 24"
    verdict(2, "general-decomposition-roundtrip", max(residuals[24]), 1e-8)


def test_03_norm_equivalence_bracket_stability():
    brackets = {}
    for D in (96, 192):
        rng = np.random.default_rng(103)
        basis = bl.model_basis(B3, D)
        vals = []
        for _ in range(100):
            f = random_poly(rng, int(rng.integers(0, 31)))
            vals.append(bl.norm_equivalence_ratio(f, B3, -1.0, 24, D, basis=basis))
        brackets[D] = (min(vals), max(vals))
    (lo1, hi1), (lo2, hi2) = brackets[96], brackets[192]
    assert lo1 > 0.0, "bracket must be positive"
    movement = max(abs(lo2 - lo1) / lo1, abs(hi2 - hi1) / hi1)
    verdict(3, "norm-equivalence-bracket-stability", movement, 0.10)


@pytest.fixture(scope="module")
def built_sample():
    """20 seeded polynomial multiplier matrices and their realizations."""
    D, M = 96, 32
    rng = np.random.default_rng(104)
    sample = []
    for _ in range(20):
        phi = bl.MultiplierMatrix.from_polys([[random_poly(rng, 4) for _ in range(3)] for _ in range(3)])
        op = bl.build(phi, B3, 0.0, M, D)
        sample.append((phi, op))
    return D, M, sample


def test_04_commutant_forward(built_sample):
    D, M, sample = built_sample
    worst = 0.0
    for _, op in sample:
        for alpha in (-1.0, 0.0, 1.0):
            worst = max(worst, bl.commutation_residual(bl.OperatorMatrix(op.realization.entries, alpha), B3))
    verdict(4, "commutant-forward-direction", worst, 1e-8)


def test_05_commutant_roundtrip(built_sample):
    D, M, sample = built_sample
    worst = 0.0
    for phi, op in sample:
        syms = bl.extract_symbols(op.realization, B3)
        phi2 = bl.symbols_to_matrix(syms, B3, M)
        worst = max(worst, float(np.max(np.abs((phi - phi2).coeffs[:11]))))
    verdict(5, "commutant-symbol-roundtrip", worst, 1e-7)


def test_06_idempotent_examples():
    B = bl.BlaschkeProduct.monomial(2)
    D, M = 64, 32
    matrices = {
        "parity": bl.MultiplierMatrix([[[1, 0], [0, 0]]]),
        "poly": bl.MultiplierMatrix([[[1, 0], [1, 0]], [[0, 0], [2, 0]]]),  # [[1, 0], [1 + 2z, 0]]
        "half": bl.MultiplierMatrix([[[0.5, 0.5], [0.5, 0.5]]]),
    }
    worst_op = 0.0
    for phi in matrices.values():
        W = bl.build(phi, B, 0.0, M, D).realization.entries
        Ds = safe_degree(D)
        worst_op = max(worst_op, float(np.max(np.abs((W @ W - W)[: Ds + 1, : Ds + 1]))))
    # the parity symbol builds a self-adjoint projection in every weight
    worst_sa = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        op = bl.build(matrices["parity"], B, alpha, M, D)
        diff = op.realization.entries - bl.weighted_adjoint(op.realization).entries
        Ds = safe_degree(D)
        worst_sa = max(worst_sa, float(np.max(np.abs(diff[: Ds + 1, : Ds + 1]))))
    verdict_parts(6, "idempotent-examples", {
        "operator-idempotency": (worst_op, 1e-8),
        "parity-self-adjointness": (worst_sa, 1e-10),
    })


def test_07_cowen_condition():
    D = 96
    rng = np.random.default_rng(107)
    pts = [0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(20)]
    TB = bl.toeplitz_matrix(B3.taylor(D), D, 0.0)
    I = identity(D, 0.0)
    worst_member = 0.0
    for a in pts:
        worst_member = max(
            worst_member,
            bl.cowen_residual(TB, B3, a),
            bl.cowen_residual(I, B3, a),
        )
    assert worst_member < 1e-12, f"member residual {worst_member:.2e}"
    B = bl.BlaschkeProduct.monomial(2)
    Tz_star = bl.weighted_adjoint(bl.toeplitz_matrix(monomial(1), D, 0.0))
    witness = max(bl.cowen_residual(Tz_star, B, a) for a in pts)
    verdict(7, "cowen-condition", witness, 1e-2, larger_is_better=True)


def test_08_x_space_chain():
    B2 = bl.BlaschkeProduct(0.0, [0.5, -0.3])
    D, kmax = 120, 5
    chain = bl.x_spaces(B2, -1.0, kmax, D)
    assert chain.X.shape == (D + 1, 2 * (kmax + 1)), "block dimension"

    lam = (np.arange(D + 1) + 1.0) ** -1.0
    sq = np.sqrt(lam)
    stacks = [chain.X[:, 2 * k : 2 * k + 2] for k in range(kmax + 1)]
    orth = 0.0
    for k in range(kmax + 1):
        for l in range(k + 1, kmax + 1):
            G = stacks[k].conj().T @ (lam[:, None] * stacks[l])
            orth = max(orth, float(np.max(np.abs(G))))
    assert orth < 1e-9, f"block orthogonality {orth:.2e}"

    TB = bl.toeplitz_matrix(B2.taylor(D), D, -1.0).entries
    TBw = sq[:, None] * TB / sq[None, :]
    shift = 0.0
    for k in range(kmax):
        # the part of T_B X_k in X_0 + ... + X_k, which B^(k+1) A is orthogonal to
        img = TBw @ (sq[:, None] * stacks[k])
        below = sq[:, None] * np.hstack(stacks[: k + 1])
        shift = max(shift, float(np.linalg.norm(below.conj().T @ img, 2)))
    assert shift < 1e-8, f"shift action {shift:.2e}"

    rng = np.random.default_rng(108)
    upper = 0.0
    for _ in range(3):
        phi = bl.MultiplierMatrix.from_polys([[random_poly(rng, 4) for _ in range(2)] for _ in range(2)])
        op = bl.build(phi, B2, -1.0, D // 2, D)
        blocks = bl.block_matrix(op.realization, chain)
        for k in range(kmax + 1):
            for l in range(k):
                upper = max(upper, float(np.linalg.norm(blocks[l, k], 2)))
    verdict_parts(8, "x-space-chain", {
        "block-orthogonality": (orth, 1e-9),
        "shift-action": (shift, 1e-8),
        "commutant-triangularity": (upper, 1e-7),
    })


def test_09_mobius_power_proposition():
    from math import comb

    a, N, D = 0.5, 2, 120
    B = bl.BlaschkeProduct(0.0, [(a, 2)])
    TB = bl.toeplitz_matrix(B.taylor(D), D, -1.0)
    lam = (np.arange(D + 1) + 1.0) ** -1.0
    k0 = 0.0
    for j in range(N):
        g = np.zeros(D + 1, dtype=complex)
        k = np.arange(D + 1 - j)
        g[j:] = np.array([comb(int(i) + j + 1, j + 1) for i in k]) * a**k
        for m in range(safe_degree(D) + 1):
            k0 = max(k0, abs(np.sum(g * np.conj(TB.entries[:, m]) * lam)))
    worst = 0.0
    for j in range(N):
        P = bl.mobius_power_reducing_projection(a, N, j, D)
        worst = max(worst, bl.reducing_residual(P, B))
    verdict_parts(9, "mobius-power-proposition", {
        "k0-orthogonality": (k0, 1e-8),
        "reducing-residual": (worst, 1e-6),
    })


def test_10_monomial_lattice():
    # Exhaustive over all 0/1 diagonal projections at D = 20, full window.
    # Certified prefilter: for diagonal P the commutator with T=S^2 (and its
    # weighted adjoint) has entries (p_i - p_j) T_ij, so any parity violation
    # forces residual >= the smallest participating entry magnitude, far
    # above 1e-10; exact residuals are computed for every pattern the
    # prefilter leaves and for a 500-pattern sample of the rest.
    D = 20
    B = bl.BlaschkeProduct.monomial(2)
    n_patterns = 2 ** (D + 1)
    bits = ((np.arange(n_patterns)[:, None] >> np.arange(D + 1)[None, :]) & 1).astype(np.int8)
    violating = (bits[:, 2:] != bits[:, :-2]).any(axis=1)
    survivors = np.nonzero(~violating)[0]
    assert len(survivors) == 4, f"{len(survivors)} diagonal survivors (expected 4)"

    # residuals on the full window, not only the safe block: the commutator
    # norms of P with T_B and with its Bergman adjoint, formed here whole
    TB = bl.OperatorMatrix(B.toeplitz(D), -1.0)
    sections = (TB.entries, bl.weighted_adjoint(TB).entries)

    def residual_of(mask):
        m = np.diag(mask.astype(complex))
        return max(operator_norm_safe(m @ T - T @ m, -1.0, D) for T in sections)

    worst_pass = max(residual_of(bits[i]) for i in survivors)
    assert worst_pass < 1e-10, f"parity projections residual {worst_pass:.2e}"
    patterns = set(tuple(bits[i][:4]) for i in survivors)
    assert patterns == {(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)}
    rng = np.random.default_rng(110)
    sample = rng.choice(np.nonzero(violating)[0], size=500, replace=False)
    least_fail = min(residual_of(bits[i]) for i in sample)
    assert least_fail > 1e-10, f"violating pattern slipped to {least_fail:.2e}"

    # Hardy-only subspace: passes on H^2, fails on the Bergman weight
    D2 = 40
    funcs = []
    for k in range(0, (D2 - 1) // 2 + 1):
        c = np.zeros(D2 + 1, dtype=complex)
        c[2 * k] = 1
        c[2 * k + 1] = 1
        funcs.append(TaylorPoly(c))
    hardy = bl.reducing_residual(bl.projection_from_basis(funcs, 0.0, D2), B)
    bergman = bl.reducing_residual(bl.projection_from_basis(funcs, -1.0, D2), B)
    assert hardy < 1e-10, f"Hardy-space residual {hardy:.2e}"
    assert bergman > 1e-3, f"Bergman residual {bergman:.2e} unexpectedly small"
    verdict(10, "monomial-lattice", worst_pass, 1e-10)


def test_11_shift_equivalence():
    worst_unit = 0.0
    worst_inter = 0.0
    for n in (2, 3):
        for alpha in (-1.0, 0.0, 1.0):
            J = bl.shift_equiv_monomial(n, alpha, 60)
            worst_unit = max(worst_unit, bl.unitarity_defect(J))
            worst_inter = max(worst_inter, bl.intertwining_residual(J))

    D, K = 96, 10
    basis = bl.model_basis(B3, D)
    h = TaylorPoly(basis.U[:, 0])
    worst_b = 0.0
    worst_shift = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        J = bl.shift_equiv_general(B3, h, alpha, K, D)
        for k, img in enumerate(J.F.T):
            dec = bl.analyze(TaylorPoly(img), B3, K + 2, D, basis=basis)
            worst_b = max(worst_b, abs(b_norm(dec, alpha) - (k + 1.0) ** (alpha / 2)))
        worst_shift = max(worst_shift, bl.shell_shift_residual(J, K + 2))
    verdict_parts(11, "shift-equivalence", {
        "unitarity": (worst_unit, 1e-10),
        "intertwining": (worst_inter, 1e-13),
        "bnorm-identity": (worst_b, 1e-9),
        "shell-shift": (worst_shift, 1e-8),
    })


def test_12_cli_determinism(tmp_path):
    cfg = {
        "B": {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}, {"re": -0.3, "im": 0.0, "mult": 1}]},
        "alpha": -1.0,
        "degree": 64,
        "seed": 12,
        "inputs": {},
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    blobs = []
    codes = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        codes.append(main(["suite", "--config", str(cfgp), "--out", str(out)]))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1], "reports differ between identical runs"
    assert codes == [0, 0], f"suite exit codes {codes}"

    # exit-code contract: forced failure -> 1, malformed config -> 2
    failing = dict(cfg, tolerances={"roundtrip": 1e-300})
    cfgp2 = tmp_path / "cfg_fail.json"
    cfgp2.write_text(json.dumps(failing))
    assert main(["decompose", "--config", str(cfgp2), "--out", str(tmp_path / "x.json")]) == 1
    cfgp3 = tmp_path / "cfg_bad.json"
    cfgp3.write_text(json.dumps(dict(cfg, B={"zeros": [{"re": 2.0, "im": 0.0}]})))
    assert main(["suite", "--config", str(cfgp3)]) == 2
    verdict(12, "cli-determinism", 0.0, 1.0)
