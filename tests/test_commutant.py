import json
import tracemalloc

import numpy as np
import pytest

import blaschke_lab as bl
from blaschke_lab import checks, cli
from blaschke_lab.commutant import _cell_images
from blaschke_lab import safe_degree
from blaschke_lab.errors import NotInCommutantError
from blaschke_lab.spaces import TaylorPoly, as_coeffs
from conftest import horner, identity, monomial, zero


def random_phi(rng, n, deg=4):
    return bl.MultiplierMatrix.from_polys(
        [
            [TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) for _ in range(n)]
            for _ in range(n)
        ]
    )


#: the products of the regression matrix
PRODUCTS = {
    "B2": [0.5, -0.3],
    "B3": [0.5, -0.3 + 0.2j, 0.1],
    "0.6 double": [(0.6, 2)],
    "0.8, -0.79i": [0.8, -0.79j],
    "near duplicate": [0.5, 0.5 + 1e-9, -0.3],
}


def symbols_agree(a, b):
    """Whether two symbol arrays agree to 1e-13 * max(1, |entry|): the thin
    Z (E^H U) and the dense (Z E^H) U associate one product differently."""
    return bool(np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b))))


def symbols_to_matrix_by_analysis(F, B, M, D):
    """Reference for symbols_to_matrix: column k of Phi from analyze(phi_k),
    one symbol at a time."""
    cols = np.stack([bl.analyze(TaylorPoly(f), B, M, D).coefficients for f in F.T], axis=2)  # [j, t, k]
    return bl.MultiplierMatrix(cols.transpose(1, 0, 2))


class CompositionDivergenceError(ArithmeticError):
    """compose_truncated ran out of its term budget."""


def compose_truncated(f, B, D, *, tol=1e-14, max_terms_factor=4):
    """Reference Taylor coefficients of f(B(z)) through degree D: sum_k a_k B^k
    with truncated powers, one term at a time. B(0) may be nonzero, so the
    sum is infinite for series inputs. Terms stop once the largest remaining
    |a_k| times the current power's norm is below tol; a divergence error is
    raised if that takes max_terms_factor * D terms. Polynomials of degree
    below the term budget are summed exactly."""
    max_terms = max_terms_factor * max(D, 1)
    a = f.coeffs
    # largest coefficient magnitude still ahead of position k
    remaining = np.maximum.accumulate(np.abs(a)[::-1])[::-1]
    acc = np.zeros(D + 1, dtype=complex)
    power = np.zeros(D + 1, dtype=complex)
    power[0] = 1.0
    bc = B.pad(D).coeffs
    for k in range(len(a)):
        if k > 0:
            power = np.convolve(power, bc)[: D + 1]
        acc += a[k] * power
        tail_bound = remaining[k + 1] * np.linalg.norm(power) if k + 1 < len(a) else 0.0
        if tail_bound < tol:
            break
        if k + 1 >= max_terms:
            raise CompositionDivergenceError(
                f"composition did not converge within {max_terms} terms "
                f"(remaining term bound {tail_bound:.3e} >= {tol:.1e})"
            )
    return TaylorPoly(acc)


class TestBuild:
    def test_identity_phi_gives_identity(self, B3):
        # full-depth shells: exact column reconstruction needs n*M ~ D
        D, M = 96, 32
        op = bl.build(bl.MultiplierMatrix(np.eye(3)[None]), B3, 0.0, M, D)
        Ds = safe_degree(D)
        sub = op.realization.entries[: Ds + 1, : Ds + 1]
        assert np.max(np.abs(sub - np.eye(Ds + 1))) < 1e-10

    def test_z_times_identity_gives_tb(self, B3):
        D, M = 96, 32
        phi = bl.MultiplierMatrix(np.stack([np.zeros((3, 3)), np.eye(3)]))  # z on the diagonal
        op = bl.build(phi, B3, 0.0, M, D)
        TB = bl.toeplitz_matrix(B3.taylor(D), D, 0.0)
        Ds = safe_degree(D)
        assert np.max(np.abs((op.realization.entries - TB.entries)[: Ds + 1, : Ds + 1])) < 1e-10

    def test_parity_projection_for_z2(self):
        # Phi = [[1,0],[0,0]] zeroes all odd Taylor coefficients
        B = bl.BlaschkeProduct.monomial(2)
        D, M = 64, 32
        op = bl.build(bl.MultiplierMatrix([[[1, 0], [0, 0]]]), B, 0.0, M, D)
        idx = np.arange(D + 1)
        expected = np.diag((idx % 2 == 0).astype(complex))
        Ds = safe_degree(D)
        assert np.max(np.abs((op.realization.entries - expected)[: Ds + 1, : Ds + 1])) < 1e-12

    def test_commutation_residual_forward(self, B3, rng):
        D, M = 96, 32
        for _ in range(3):
            phi = random_phi(rng, 3)
            op = bl.build(phi, B3, -1.0, M, D)
            assert bl.commutation_residual(op.realization, B3) < 1e-8


def dense_component_map(phi, M, M_out):
    """The map (f_k) -> (sum_k phi_jk f_k) on shell coordinates in cell order
    (row (r + t) * n + j, column r * n + k), kept to shells 0..M_out, built
    entry by entry."""
    n = phi.n
    A = np.zeros((n * (M_out + 1), n * (M + 1)), dtype=complex)
    for j in range(n):
        for k in range(n):
            p = phi.coeffs[:, j, k]
            for t in range(len(p)):
                for r in range(M + 1):
                    if p[t] != 0 and r + t <= M_out:
                        A[(r + t) * n + j, r * n + k] += p[t]
    return A


class TestComponentMap:
    @pytest.mark.parametrize("n,deg,M,M_out", [(1, 0, 5, 5), (2, 3, 16, 19), (3, 4, 10, 12), (2, 6, 8, 3)])
    def test_images_of_identity_cells_are_the_dense_map(self, rng, n, deg, M, M_out):
        # entries of mixed degree, with exact zero coefficients
        entries = []
        for j in range(n):
            row = []
            for k in range(n):
                size = deg + 1 - (j + k) % (deg + 1)
                c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                c[rng.random(c.size) < 0.3] = 0.0
                row.append(TaylorPoly(c))
            entries.append(row)
        phi = bl.MultiplierMatrix.from_polys(entries)
        # cell s * n + j is the unit vector e_(s*n+j), cut to the shells 0..M_out
        cells = np.eye(n * (M_out + 1), n * (M + phi.max_entry_degree + 1))
        # the images of the identity cells are the dense map, entry for entry
        assert np.array_equal(_cell_images(phi, cells), dense_component_map(phi, M, M_out))

    @pytest.mark.parametrize("zeros", [[0.5, -0.3], [0.5, -0.3 + 0.2j, 0.1], [(0.6, 2)], [0.8, -0.79j]])
    def test_build_equals_the_dense_map_between_frames(self, rng, zeros):
        B, D = bl.BlaschkeProduct(0.0, zeros), 96
        M = bl.wold.shell_count(B, D)
        phi = random_phi(rng, B.degree)
        M_out = M + phi.max_entry_degree
        E_out, E = bl.wold.shell_frame(B, M_out, D), bl.wold.shell_frame(B, M, D)
        expected = E_out @ dense_component_map(phi, M, M_out) @ E.conj().T
        W = bl.build(phi, B, -1.0, M, D).realization.entries
        assert np.max(np.abs(W - expected)) <= 1e-13

    def test_memory_is_linear_in_the_shell_count(self, rng):
        # a zero at rho_max = 0.95 needs 2439 shells at D = 64: a dense component
        # map would hold (M + 5)^2 complex entries (95 MB), the action a few frames
        B, D = bl.BlaschkeProduct(0.0, [0.95], rho_max=0.95), 64
        M = bl.wold.shell_count(B, D)
        assert M > 2000
        bl.wold.shell_frame(B, M + 4, D)
        tracemalloc.start()
        try:
            op = bl.build(random_phi(rng, 1), B, -1.0, M, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame_bytes = 16 * (D + 1) * (M + 5)
        assert peak < 4 * frame_bytes < 16 * (M + 5) ** 2 / 8
        assert op.residual < 1e-10


def built_action(phi, B, f, M, D):
    """W f for the built realization W of phi (the action does not depend on
    the weight)."""
    return TaylorPoly(bl.build(phi, B, 0.0, M, D).realization.entries @ as_coeffs(f, D))


class TestBuiltAction:
    def test_identity(self, B3, rng):
        D, M = 96, 24
        f = TaylorPoly(rng.standard_normal(15) + 1j * rng.standard_normal(15))
        out = built_action(bl.MultiplierMatrix(np.eye(3)[None]), B3, f, M, D)
        assert np.linalg.norm((out - f.pad(D)).coeffs[: safe_degree(D) + 1]) < 1e-9

    def test_monomial_corollary(self, rng):
        # for B = z^n the realization reproduces W(sum z^j f_j(z^n)) = sum phi_k f_k(z^n)
        n, D, M = 2, 48, 20
        B = bl.BlaschkeProduct.monomial(n)
        phi = random_phi(rng, n, deg=2)
        f1 = TaylorPoly(rng.standard_normal(5))
        f2 = TaylorPoly(rng.standard_normal(5))
        f = zero(D)
        for j, fj in enumerate((f1, f2)):
            comp = compose_truncated(fj, monomial(n), D)
            f = f + bl.multiply(monomial(j, D), comp, D)
        out = built_action(phi, B, f, M, D)
        expected = zero(D)
        for k, fk in enumerate((f1, f2)):
            phik = zero(D)
            for j in range(n):
                pj = compose_truncated(TaylorPoly(phi.coeffs[:, j, k]), monomial(n), D)
                phik = phik + bl.multiply(monomial(j, D), pj, D)
            expected = expected + bl.multiply(phik, compose_truncated(fk, monomial(n), D), D)
        assert np.linalg.norm((out - expected).coeffs[: safe_degree(D) + 1]) < 1e-10


class TestCompose:
    def test_identity_symbol_returns_b(self, B3):
        b = B3.taylor(24)
        out = compose_truncated(monomial(1), b, 24)
        assert np.allclose(out.coeffs, b.coeffs)

    def test_monomial_composition(self):
        out = compose_truncated(monomial(2), monomial(3), 6)
        assert np.allclose(out.coeffs, monomial(6).coeffs)

    def test_geometric_series_pointwise_oracle(self):
        # f = 1/(1 - z/2) against the degree-1 factor with zero 0.5
        D = 64
        f = TaylorPoly(0.5 ** np.arange(D + 1))
        B = bl.BlaschkeProduct(0.0, [0.5])
        comp = compose_truncated(f, B.taylor(D), D)
        for t in range(20):
            z = 0.5 * (0.25 + 0.75 * t / 19) * np.exp(2j * np.pi * t / 20)
            expected = 1.0 / (1.0 - B.eval(z) / 2)
            assert abs(horner(comp, z) - expected) < 1e-10

    def test_divergence_error_on_budget_exhaustion(self):
        # degree exceeds 4*D with coefficients that never decay
        D = 4
        f = TaylorPoly(np.ones(40))
        B = bl.BlaschkeProduct(0.0, [0.5])
        with pytest.raises(CompositionDivergenceError):
            compose_truncated(f, B.taylor(D), D)

    def test_composition_consistency_invariant(self, rng):
        # taylor-of-composition agrees with pointwise composition inside
        # the disc; zeros up to modulus 0.8 at D >= 64
        D = 64
        B = bl.BlaschkeProduct(0.3, [0.8, -0.5 + 0.3j])
        fc = (0.6 ** np.arange(D + 1)) * (1 + 0.5j)
        f = TaylorPoly(fc)
        comp = compose_truncated(f, B.taylor(D), D)
        for _ in range(10):
            z = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            direct = horner(f, B.eval(z))
            assert abs(horner(comp, z) - direct) < 1e-9


class TestSymbols:
    def test_identity_symbols_are_basis(self, B3):
        D = 96
        basis = bl.model_basis(B3, D)
        syms = bl.extract_symbols(identity(D, 0.0), B3)
        assert syms.shape == (D + 1, 3) and not syms.flags.writeable
        assert np.max(np.abs(syms - basis.U)) < 1e-14

    def test_tb_symbols_are_b_times_basis(self, B3):
        D = 96
        basis = bl.model_basis(B3, D)
        TB = bl.toeplitz_matrix(B3.taylor(D), D, 0.0)
        syms = bl.extract_symbols(TB, B3)
        for s, u in zip(syms.T, basis.U.T):
            expected = bl.multiply(B3.taylor(D), TaylorPoly(u), D)
            assert np.max(np.abs(s - expected.coeffs)) < 1e-13

    def test_extraction_rejects_noncommuting(self, B3, rng):
        D = 64
        W = bl.OperatorMatrix(rng.standard_normal((D + 1, D + 1)), 0.0)
        with pytest.raises(NotInCommutantError):
            bl.extract_symbols(W, B3)

    @pytest.mark.parametrize("zeros", [[(0.0, 2)], [0.5, -0.3]], ids=["z^2", "B2"])
    def test_a_residual_truncation_cannot_explain_names_no_larger_d(self, zeros):
        # the H^2 adjoint shift misses the commutant by ~1 at D = 64, where
        # the window's limit max|a|^32 is 0 for z^2 and 2.3e-10 for B2
        B, D = bl.BlaschkeProduct(0.0, zeros), 64
        limit = max(abs(a) for a, _ in B.zeros) ** 32
        with pytest.raises(NotInCommutantError) as err:
            bl.extract_symbols(bl.OperatorMatrix(np.eye(D + 1, k=1), 0.0), B)
        msg = str(err.value)
        assert msg.startswith("commutation residual ") and "increase D" not in msg
        assert msg.endswith(
            f"at D = 64, D_safe = 32; the window's limit max|a|^(D - D_safe) = {limit:.1e} is below tol_commute, "
            "so W does not commute with T_B at this window"
        )

    def test_built_element_supplies_its_residual_once(self, B2, B3, rng, monkeypatch):
        calls = []
        residual = bl.commutant.commutation_residual

        def counted(*args, **kw):
            calls.append(args[1])
            return residual(*args, **kw)

        monkeypatch.setattr(bl.commutant, "commutation_residual", counted)
        D, M = 64, 32
        phi = bl.MultiplierMatrix.from_polys([[TaylorPoly(rng.standard_normal(3)) for _ in range(2)] for _ in range(2)])
        op = bl.build(phi, B2, -1.0, M, D)
        assert op.residual == residual(op.realization, B2)
        syms = bl.extract_symbols(op, B2)
        assert calls == [B2]
        bare = bl.extract_symbols(op.realization, B2)
        assert symbols_agree(syms, bare)
        # an element of another product gets its residual measured against B
        phi3 = bl.MultiplierMatrix(rng.standard_normal((3, 3, 3)))
        op3 = bl.build(phi3, B3, -1.0, 21, D)
        with pytest.raises(NotInCommutantError):
            bl.extract_symbols(op3, B2)
        assert calls[-1] == B2

    def test_commutant_battery_measures_each_element_once(self, monkeypatch):
        calls = []
        residual = bl.commutant.commutation_residual

        def counted(*args, **kw):
            calls.append(args)
            return residual(*args, **kw)

        monkeypatch.setattr(bl.commutant, "commutation_residual", counted)
        B = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0}, {"re": -0.3, "im": 0.0}]}
        rep = cli.run(cli.parse_config({"B": B, "alpha": -1.0, "degree": 64, "seed": 3}, "commutant"))
        assert rep.all_passed
        assert len(rep.records) == 6 and len(calls) == 3

    def test_symbols_to_matrix_identity(self, B3):
        D, M = 96, 16
        basis = bl.model_basis(B3, D)
        phi = bl.symbols_to_matrix(basis.U, B3, M)
        for j in range(3):
            for k in range(3):
                expect = 1.0 if j == k else 0.0
                assert abs(phi.coeffs[0, j, k] - expect) < 1e-12
                assert np.max(np.abs(phi.coeffs[1:, j, k])) < 1e-12

    def test_shell_shift_symbols(self, B3):
        # phi_k = B u_k decomposes as the constant-z multiplier matrix
        D, M = 96, 16
        basis = bl.model_basis(B3, D)
        b = B3.taylor(D)
        syms = np.stack([bl.multiply(b, TaylorPoly(u), D).coeffs for u in basis.U.T], axis=1)
        phi = bl.symbols_to_matrix(syms, B3, M)
        for j in range(3):
            for k in range(3):
                c = phi.coeffs[:, j, k]
                expect1 = 1.0 if j == k else 0.0
                assert abs(c[1] - expect1) < 1e-10
                assert abs(c[0]) < 1e-10

    @pytest.mark.parametrize("D", [64, 256])
    @pytest.mark.parametrize("zeros", list(PRODUCTS.values()), ids=list(PRODUCTS))
    def test_one_product_matches_one_analysis_per_symbol(self, zeros, D, rng):
        # the symbols W U of a built element, read in one product E^H F and
        # one analyze call at a time, on the shells the battery uses; W U is
        # formed directly, since at D = 64 some W miss extract_symbols' gate
        B = bl.BlaschkeProduct(0.0, zeros)
        M = bl.wold.shell_count(B, D)
        F = bl.build(random_phi(rng, B.degree), B, -1.0, M, D).realization.entries @ bl.model_basis(B, D).U
        one = bl.symbols_to_matrix(F, B, M).coeffs
        assert np.max(np.abs(one - symbols_to_matrix_by_analysis(F, B, M, D).coeffs)) <= 1e-14

    def test_roundtrip(self, B3, rng):
        D, M = 96, 32
        for _ in range(3):
            phi = random_phi(rng, 3)
            op = bl.build(phi, B3, 0.0, M, D)
            syms = bl.extract_symbols(op.realization, B3)
            phi2 = bl.symbols_to_matrix(syms, B3, M)
            assert np.max(np.abs((phi - phi2).coeffs[:11])) < 1e-7


class TestFactoredElement:
    """A built element is read through its factors Z and E; the dense
    realization Z E^H is the oracle."""

    @pytest.mark.parametrize("D", [64, 256])
    @pytest.mark.parametrize("name", ["B2", "B3"])
    def test_reads_equal_the_dense_realization(self, name, D, rng):
        B = bl.BlaschkeProduct(0.0, PRODUCTS[name])
        op = bl.build(random_phi(rng, B.degree), B, -1.0, bl.wold.shell_count(B, D), D)
        assert (op.alpha, op.degree) == (bl.WeightAlpha(-1.0), D)
        assert op.residual == bl.commutation_residual(op.realization, B)
        assert symbols_agree(bl.extract_symbols(op, B), bl.extract_symbols(op.realization, B))

    def test_cells_are_a_view_of_the_frame(self, B2, rng):
        D, M = 64, 32
        op = bl.build(random_phi(rng, 2), B2, -1.0, M, D)
        assert np.shares_memory(op.cells, bl.wold.shell_frame(B2, M, D)) and op.cells.shape == (D + 1, 2 * (M + 1))
        assert not op.images.flags.writeable and not op.cells.flags.writeable

    def test_no_battery_forms_a_dense_element(self, tmp_path, monkeypatch):
        def dense(self):
            raise AssertionError("a battery formed the dense realization")

        monkeypatch.setattr(bl.CommutantOperator, "realization", property(dense))
        B = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0}, {"re": -0.3, "im": 0.0}]}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"B": B, "alpha": -1.0, "degree": 64, "seed": 3, "inputs": {}}))
        for command in ("commutant", "ortho", "suite"):
            out = tmp_path / f"{command}.json"
            assert cli.main([command, "--config", str(cfgp), "--strict", "--out", str(out)]) == 0
            records = json.loads(out.read_text())["records"]
            assert records and all(r["pass"] and r["error"] is None for r in records)


class TestCommutationResidual:
    def test_tb_commutes_with_itself(self, B3):
        D = 64
        TB = bl.toeplitz_matrix(B3.taylor(D), D, 0.0)
        assert bl.commutation_residual(TB, B3) == 0.0

    def test_tz_commutes_with_tz2(self):
        B = bl.BlaschkeProduct.monomial(2)
        D = 32
        Tz = bl.toeplitz_matrix(monomial(1), D, 0.0)
        assert bl.commutation_residual(Tz, B) < 1e-14

    def test_rows_past_the_safe_block_are_not_read(self, B2):
        # rows 0..D_safe of A are read; what lies below them cannot move the residual
        D = 64
        Ds = safe_degree(D)
        A = bl.toeplitz_matrix(B2.taylor(D), D, 0.0).entries @ np.diag(np.arange(1.0, D + 2))
        cut = A.copy()
        cut[Ds + 1 :] = np.nan
        full = bl.commutation_residual(bl.OperatorMatrix(A, 0.0), B2)
        assert bl.commutation_residual(bl.OperatorMatrix(cut, 0.0), B2) == full > 0

    def test_adjoint_shift_fails_with_witness(self):
        B = bl.BlaschkeProduct.monomial(2)
        D = 32
        Tz_star = bl.weighted_adjoint(bl.toeplitz_matrix(monomial(1), D, 0.0))
        assert bl.commutation_residual(Tz_star, B) > 0.5
        # explicit witness: the commutator moves the constant function
        TB = bl.toeplitz_matrix(B.taylor(D), D, 0.0)
        one = TaylorPoly.one(D).coeffs
        lhs = Tz_star.entries @ (TB.entries @ one)
        rhs = TB.entries @ (Tz_star.entries @ one)
        assert np.allclose(lhs[1], 1.0)
        assert np.allclose(rhs, 0.0)


class TestIdempotent:
    def test_idempotent_transfer_to_operator(self, rng):
        # Phi^2 = Phi implies the realization is idempotent on the safe block
        B = bl.BlaschkeProduct.monomial(2)
        D, M = 64, 32
        p = TaylorPoly(rng.standard_normal(3))
        phi = bl.MultiplierMatrix.from_polys([[TaylorPoly([1.0]), TaylorPoly([0.0])], [p, TaylorPoly([0.0])]])
        op = bl.build(phi, B, 0.0, M, D)
        W = op.realization.entries
        Ds = safe_degree(D)
        assert np.max(np.abs((W @ W - W)[: Ds + 1, : Ds + 1])) < 1e-8


def symbol_product(phi, psi):
    """Reference matrix product of two multiplier matrices, degrees summed
    exactly: coefficient matrix s + t gains phi_s psi_t."""
    out = np.zeros((phi.max_entry_degree + psi.max_entry_degree + 1, phi.n, phi.n), dtype=complex)
    for s, p in enumerate(phi.coeffs):
        for t, q in enumerate(psi.coeffs):
            out[s + t] += p @ q
    return bl.MultiplierMatrix(out)


class TestAlgebraHomomorphism:
    def test_product_of_built_operators(self, B2, rng):
        D, M = 96, 48
        phi1 = random_phi(rng, 2, deg=3)
        phi2 = random_phi(rng, 2, deg=3)
        w1 = bl.build(phi1, B2, 0.0, M, D).realization.entries
        w2 = bl.build(phi2, B2, 0.0, M, D).realization.entries
        w12 = bl.build(symbol_product(phi1, phi2), B2, 0.0, M, D).realization.entries
        Ds = safe_degree(D)
        scale = max(1.0, np.abs(w12[: Ds + 1, : Ds + 1]).max())
        assert np.max(np.abs((w1 @ w2 - w12)[: Ds + 1, : Ds + 1])) / scale < 1e-7

    def test_converse_reconstruction(self, B2, rng):
        # polynomial in T_B plus a built operator extracts and rebuilds
        D, M = 96, 48
        TB = bl.toeplitz_matrix(B2.taylor(D), D, 0.0).entries
        A = TB @ TB + 0.5 * TB + np.eye(D + 1)
        Aop = bl.OperatorMatrix(A, 0.0)
        syms = bl.extract_symbols(Aop, B2)
        phi = bl.symbols_to_matrix(syms, B2, M)
        rebuilt = bl.build(phi, B2, 0.0, M, D).realization.entries
        Ds = safe_degree(D)
        assert np.max(np.abs((rebuilt - A)[: Ds + 1, : Ds + 1])) < 1e-7


class TestCowen:
    def test_tb_and_identity_satisfy_condition(self, B3, rng):
        D = 96
        TB = bl.toeplitz_matrix(B3.taylor(D), D, 0.0)
        I = identity(D, 0.0)
        for _ in range(10):
            a = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert bl.cowen_residual(TB, B3, a) < 1e-12
            assert bl.cowen_residual(I, B3, a) < 1e-12

    def test_adjoint_shift_witness(self):
        B = bl.BlaschkeProduct.monomial(2)
        D = 64
        Tz_star = bl.weighted_adjoint(bl.toeplitz_matrix(monomial(1), D, 0.0))
        assert bl.cowen_residual(Tz_star, B, 0.5) > 1e-2

    def test_batched_points_give_the_max_of_single_points(self, B3, rng):
        D = 96
        ops = [
            bl.OperatorMatrix(B3.toeplitz(D), 0.0),
            identity(D, 0.0),
            bl.weighted_adjoint(bl.toeplitz_matrix(monomial(1), D, 0.0)),
        ]
        pts = 0.5 * np.sqrt(rng.uniform(size=12)) * np.exp(2j * np.pi * rng.uniform(size=12))
        for W in ops:
            single = max(bl.cowen_residual(W, B3, a) for a in pts)
            assert abs(bl.cowen_residual(W, B3, pts) - single) <= 1e-15
            assert bl.cowen_residual(W, B3, list(pts)) == bl.cowen_residual(W, B3, pts)

    def test_batched_points_reject_a_point_outside_the_disc(self, B3):
        I = identity(32, 0.0)
        with pytest.raises(ValueError):
            bl.cowen_residual(I, B3, [0.1, 0.2j, 1.0])

    @pytest.mark.parametrize("pts", [[], (), np.array([], dtype=complex)], ids=["list", "tuple", "array"])
    def test_no_points_is_an_error_of_its_own(self, B3, pts):
        with pytest.raises(ValueError, match=r"^cowen_residual needs at least one sample point$"):
            bl.cowen_residual(identity(32, 0.0), B3, pts)

    def test_cowen_equivalence_sampled(self, B2, rng):
        # operators passing the commutation test also pass the kernel test
        D, M = 96, 48
        phi = random_phi(rng, 2, deg=2)
        op = bl.build(phi, B2, 0.0, M, D)
        assert bl.commutation_residual(op.realization, B2) < 1e-10
        for _ in range(20):
            a = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert bl.cowen_residual(op.realization, B2, a) < 1e-8

    @pytest.mark.parametrize("D", [64, 256])
    @pytest.mark.parametrize("name", ["B2", "B3"])
    def test_element_is_read_through_its_factors(self, name, D, request, rng):
        # K^H W = (K^H Z) E^H agrees with the dense realization
        B = request.getfixturevalue(name)
        phi = random_phi(rng, B.degree, deg=2)
        pts = 0.5 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
        for a in (pts[0], pts):
            op = bl.build(phi, B, -1.0, bl.wold.shell_count(B, D), D)
            from_factors = bl.cowen_residual(op, B, a)
            assert "realization" not in vars(op)  # the dense section is not formed
            G = bl.cowen_residual(op.realization, B, a)
            assert abs(from_factors - G) <= 1e-13 * max(1.0, G)

    def test_operator_matrix_path_is_bitwise_the_dense_formula(self, B3, rng):
        D = 96
        D_safe = safe_degree(D)
        pts = 0.5 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
        for W in (bl.OperatorMatrix(B3.toeplitz(D), 0.0), bl.weighted_adjoint(bl.toeplitz_matrix(monomial(1), D, 0.0))):
            K = np.conj(pts)[None, :] ** np.arange(D + 1)[:, None]
            WK = (K.T.conj() @ W.entries).conj().T
            Bvals = np.array([B3.eval(p) for p in pts])
            G = B3.toeplitz(D)[:, : D_safe + 1].conj().T @ WK - Bvals.conj() * WK[: D_safe + 1]
            assert bl.cowen_residual(W, B3, pts) == float(np.max(np.abs(G)))


def test_multiplier_matrix_json_roundtrip(rng):
    # entries of a config's inputs.phi may differ in length; each is zero-padded
    phi = random_phi(rng, 2, deg=3)
    obj = [[[[c.real, c.imag] for c in phi.coeffs[: 4 - j - k, j, k]] for k in range(2)] for j in range(2)]
    phi2 = checks.INPUT_READERS["phi"](obj, "inputs.phi")
    assert phi2.coeffs.shape == (4, 2, 2)
    for j in range(2):
        for k in range(2):
            assert np.array_equal(phi2.coeffs[: 4 - j - k, j, k], phi.coeffs[: 4 - j - k, j, k])
            assert not phi2.coeffs[4 - j - k :, j, k].any()


def test_multiplier_matrix_is_one_read_only_array():
    phi = bl.MultiplierMatrix(np.eye(2)[None])
    assert (phi.n, phi.max_entry_degree) == (2, 0)
    with pytest.raises(ValueError):
        phi.coeffs[0, 0, 0] = 2.0
    for bad in (np.eye(2), np.ones((1, 2, 3)), np.ones((0, 2, 2))):
        with pytest.raises(ValueError, match=r"\(T \+ 1\) x n x n"):
            bl.MultiplierMatrix(bad)
    with pytest.raises(ValueError, match="square"):
        bl.MultiplierMatrix.from_polys([[TaylorPoly([1.0]), TaylorPoly([0.0])]])


EMPTY_PHI = r"^multiplier coefficients must be a nonempty \(T \+ 1\) x n x n array with n >= 1$"


def test_multiplier_matrix_rejects_an_empty_list_of_rows():
    with pytest.raises(ValueError, match=EMPTY_PHI):
        bl.MultiplierMatrix.from_polys([])


def test_multiplier_matrix_rejects_a_zero_size_matrix():
    with pytest.raises(ValueError, match=EMPTY_PHI):
        bl.MultiplierMatrix(np.zeros((1, 0, 0)))


def test_multiplier_matrix_rejects_oversize_degree():
    with pytest.raises(ValueError, match=r"^entry degree 99 exceeds the multiplier degree cap 64$"):
        bl.MultiplierMatrix.from_polys([[TaylorPoly(np.ones(100))]])


def test_derived_matrices_skip_the_degree_cap(B2):
    # the cap guards input; extracted symbols on 80 shells and their
    # differences from an admitted matrix may exceed it
    D, M = 64, 80
    phi = bl.symbols_to_matrix(bl.model_basis(B2, D).U, B2, M)
    assert phi.max_entry_degree == 80 > bl.commutant._MAX_SYMBOL_DEGREE
    one = bl.MultiplierMatrix(np.eye(2)[None])
    diff = phi - one
    assert diff.max_entry_degree == 80
    assert np.array_equal(diff.coeffs, phi.coeffs - np.pad(one.coeffs, ((0, 80), (0, 0), (0, 0))))
