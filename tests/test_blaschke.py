import copy
import pickle
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import blaschke_lab as bl
from blaschke_lab import cli, wold
from blaschke_lab.blaschke import RHO_MAX
from blaschke_lab import safe_degree
from blaschke_lab.errors import EvaluationDomainError
from blaschke_lab.spaces import TaylorPoly
from conftest import horner, monomial, zero

inner_zeros = st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False)


class TestEval:
    def test_monomial_cube(self):
        B = bl.BlaschkeProduct.monomial(3)
        assert B.eval(0.5) == pytest.approx(0.125)

    def test_single_factor_at_origin(self):
        B = bl.BlaschkeProduct(0.0, [0.5])
        assert B.eval(0.0) == pytest.approx(-0.5)

    def test_rejects_outside_disc(self):
        B = bl.BlaschkeProduct(0.0, [0.5])
        with pytest.raises(EvaluationDomainError):
            B.eval(1.5)

    @given(
        st.lists(inner_zeros, min_size=4, max_size=4),
        st.floats(0, 2 * np.pi),
        st.floats(0, 2 * np.pi),
    )
    @hyp_settings(max_examples=100)
    def test_unimodular_on_circle(self, zeros, theta, t):
        B = bl.BlaschkeProduct(theta, zeros)
        assert abs(abs(B.eval(np.exp(1j * t))) - 1.0) < 1e-13


class TestTaylor:
    def test_monomial(self):
        B = bl.BlaschkeProduct.monomial(4)
        t = B.taylor(8)
        expected = np.zeros(9)
        expected[4] = 1
        assert np.allclose(t.coeffs, expected)

    def test_single_factor_geometric_form(self):
        # (z - a)/(1 - a z) with a = 0.5: -0.5, then 0.75 * 0.5^(k-1)
        B = bl.BlaschkeProduct(0.0, [0.5])
        t = B.taylor(6)
        assert t.coeffs[0] == pytest.approx(-0.5)
        for k in range(1, 7):
            assert t.coeffs[k] == pytest.approx(0.75 * 0.5 ** (k - 1))

    def test_pointwise_oracle(self, B3):
        t = B3.taylor(64)
        assert abs(horner(t, 0.3) - B3.eval(0.3)) < 1e-12

    def test_theta_rotation(self):
        B = bl.BlaschkeProduct(np.pi / 3, [0.4j])
        t = B.taylor(16)
        assert abs(horner(t, 0.2) - B.eval(0.2)) < 1e-12


class TestSectionMemo:
    def test_toeplitz_is_the_section_of_the_taylor_series(self, B3):
        D = 96
        assert np.array_equal(B3.toeplitz(D), bl.toeplitz_matrix(B3.taylor(D), D).entries)

    def test_toeplitz_is_read_only(self, B3):
        with pytest.raises(ValueError):
            B3.toeplitz(32)[1, 0] = 1.0

    def test_taylor_is_memoized_by_b_and_d(self, B3):
        assert B3.taylor(40) is B3.taylor(40)
        assert B3.taylor(D=40) is B3.taylor(40)
        assert bl.BlaschkeProduct(0.0, [0.5, -0.3 + 0.2j, 0.1]).toeplitz(40) is B3.toeplitz(40)

    def test_model_basis_key_ignores_how_d_is_passed(self, B3):
        assert bl.model_basis(B3, D=64) is bl.model_basis(B3, 64)


class TestPowerList:
    def test_zeroth_power_is_one(self, B3):
        t = B3.power_list(0, 5)[0]
        assert np.allclose(t.coeffs, [1, 0, 0, 0, 0, 0])

    def test_monomial_power(self):
        B = bl.BlaschkeProduct.monomial(2)
        assert np.allclose(B.power_list(3, 6)[3].coeffs, monomial(6).coeffs)

    def test_tail_decay_at_desk_scale(self):
        # degree-3 zeros of modulus <= 0.6, powers to 10 at D = 96. The
        # pole order of B^m grows with m, so at the 0.6 boundary itself the
        # trailing coefficients of B^10 are only ~1e-10; stay just inside.
        B = bl.BlaschkeProduct(0.0, [0.5, -0.4, 0.3j])
        for m in range(1, 11):
            t = B.power_list(m, 96)[m]
            assert np.sum(np.abs(t.coeffs[-5:])) < 1e-10


def _span_residual(basis, f: TaylorPoly) -> float:
    """H^2 distance from f to the span of the orthonormal basis."""
    U = basis.U
    return float(np.linalg.norm(f.coeffs - U @ (U.conj().T @ f.coeffs)))


def _basis_defects(B, D: int) -> tuple[float, float]:
    """(orthonormality, membership): max |U^H U - I| and the largest
    |<u_j, B z^m>_0| over m up to the safe degree."""
    U = bl.model_basis(B, D).U
    TB = bl.toeplitz_matrix(B.taylor(D), D, 0.0).entries[:, : safe_degree(D) + 1]
    ortho = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))))
    return ortho, float(np.max(np.abs(TB.conj().T @ U)))


class TestModelBasis:
    def test_monomial_case(self):
        basis = bl.model_basis(bl.BlaschkeProduct.monomial(3), 16)
        assert basis.dim == 3
        assert basis.U.shape == (17, 3)
        for j, u in enumerate(basis.U.T):
            assert np.array_equal(u, monomial(j, 16).coeffs)

    def test_cauchy_case(self):
        # distinct zeros: e_1 is the normalized kernel of the first zero, and
        # every Cauchy kernel lies in the span
        B = bl.BlaschkeProduct(0.0, [0.5, -0.3])
        D = 32
        basis = bl.model_basis(B, D)
        a1 = B.expanded_zeros()[0]
        e1 = np.sqrt(1 - abs(a1) ** 2) * bl.reproducing_kernel(a1, D).coeffs
        assert np.max(np.abs(basis.U[:, 0] - e1)) < 1e-15
        for a in (0.5, -0.3):
            assert _span_residual(basis, bl.reproducing_kernel(a, D)) < 1e-12

    def test_confluent_case_membership(self):
        B = bl.BlaschkeProduct(0.0, [(0.5, 2)])
        D = 64
        basis = bl.model_basis(B, D)
        # z^j / (1 - z/2)^2, j < 2, span the model space of the double zero
        den = bl.multiply(bl.reproducing_kernel(0.5, D), bl.reproducing_kernel(0.5, D), D).coeffs
        for j in range(2):
            assert _span_residual(basis, TaylorPoly(np.concatenate([np.zeros(j), den[: D + 1 - j]]))) < 1e-12
        TB = bl.toeplitz_matrix(B.taylor(D), D, 0.0)
        for u in basis.U.T:
            for m in range(safe_degree(D) + 1):
                ip = np.sum(u * np.conj(TB.entries[:, m]))
                assert abs(ip) < 1e-10

    def test_orthonormality_and_span(self, B3):
        D = 64
        basis = bl.model_basis(B3, D)
        n = basis.dim
        us = [TaylorPoly(u) for u in basis.U.T]
        G = np.array([[bl.weighted_inner(us[i], us[j], 0.0) for j in range(n)] for i in range(n)])
        assert np.max(np.abs(G - np.eye(n))) < 1e-12
        # each Cauchy kernel of a zero reconstructs from the orthonormal set
        for a, _ in B3.zeros:
            r = bl.reproducing_kernel(a, D)
            proj = zero(D)
            for u in us:
                proj = proj + bl.weighted_inner(r, u, 0.0) * u
            assert bl.weighted_norm(r - proj, 0.0) < 1e-12

    def test_wold_orthogonality_of_cells(self, B3):
        # {u_j B^k} orthonormal in H^2 up to the clean shell range
        D, M = 96, 8
        basis = bl.model_basis(B3, D)
        from blaschke_lab.wold import cell_matrix

        E = cell_matrix(basis, B3, M, D)
        G = E.conj().T @ E
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10

    def test_membership_invariant(self, B3):
        D = 96
        basis = bl.model_basis(B3, D)
        TB = bl.toeplitz_matrix(B3.taylor(D), D, 0.0)
        worst = 0.0
        for u in basis.U.T:
            for m in range(safe_degree(D) + 1):
                worst = max(worst, abs(np.sum(u * np.conj(TB.entries[:, m]))))
        assert worst < 1e-10

    @pytest.mark.parametrize(
        "zeros",
        [
            [0.5, 0.5 + 1e-9, -0.3],
            [0.5, 0.5 + 1e-11, -0.3],
            [0.5, 0.5 + 1e-14, -0.3],
            [(0.5, 2), -0.3],
            [(0.6, 3)],
        ],
        ids=["eps1e-9", "eps1e-11", "eps1e-14", "repeated", "0.6x3"],
    )
    def test_near_duplicate_zeros_stay_orthonormal(self, zeros):
        ortho, member = _basis_defects(bl.BlaschkeProduct(0.0, zeros), 96)
        assert ortho < 1e-14
        assert member < 1e-14

    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_suite_with_near_duplicate_zeros(self, eps):
        zeros = [{"re": 0.5, "im": 0.0}, {"re": 0.5 + eps, "im": 0.0}, {"re": -0.3, "im": 0.0}]
        cfg = cli.parse_config({"B": {"theta": 0.0, "zeros": zeros}, "alpha": -1.0, "degree": 96}, "suite")
        records = cli.run(cfg).records
        assert len(records) == 26
        assert all(r.passed for r in records), [(r.name, r.residual, r.error) for r in records if not r.passed]


class TestReproducingKernel:
    def test_origin_gives_constant(self):
        k = bl.reproducing_kernel(0.0, 5)
        assert np.allclose(k.coeffs, [1, 0, 0, 0, 0, 0])

    def test_geometric_coefficients(self):
        k = bl.reproducing_kernel(0.5, 4)
        assert np.allclose(k.coeffs, [1, 0.5, 0.25, 0.125, 0.0625])

    def test_reproducing_property(self, rng):
        D = 48
        a = 0.4
        k = bl.reproducing_kernel(a, D)
        for _ in range(10):
            f = TaylorPoly(rng.standard_normal(11) + 1j * rng.standard_normal(11))
            assert abs(bl.weighted_inner(f, k, 0.0) - horner(f, a)) < 1e-10

    def test_rejects_boundary(self):
        with pytest.raises(EvaluationDomainError):
            bl.reproducing_kernel(1.0, 4)


class TestConstruction:
    def test_rejects_large_zero(self):
        with pytest.raises(ValueError):
            bl.BlaschkeProduct(0.0, [0.95])

    def test_rejects_zero_on_the_circle_whatever_rho_max(self):
        # a unimodular factor is constant: B^k would never leave the window
        with pytest.raises(ValueError, match=r"\|a\| < 1"):
            bl.BlaschkeProduct(0.0, [1.0], rho_max=1.0)

    def test_nan_rho_max_admits_no_zero(self):
        # abs(a) > nan is false: only a test that fails on NaN keeps 0.95 out
        with pytest.raises(ValueError, match=r"need \|a\| <= rho_max = nan"):
            bl.BlaschkeProduct(0.0, [0.95], rho_max=float("nan"))

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            bl.BlaschkeProduct(0.0, [])

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_theta_is_finite(self, theta):
        with pytest.raises(ValueError, match=rf"^theta must be finite, got {theta!r}$"):
            bl.BlaschkeProduct(theta, [0.5])

    @pytest.mark.parametrize("copier", ["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize(
        "theta,zeros,rho_max",
        [(0.0, [0.5, -0.3], RHO_MAX), (0.7, [(0.6, 2)], RHO_MAX), (0.0, [0.9], 0.95)],
        ids=["B2", "double zero", "0.9 under rho_max 0.95"],
    )
    def test_pickle_and_copy_round_trip(self, copier, theta, zeros, rho_max, monkeypatch):
        # restored as admitted: the 0.9 zero is not judged again against the
        # default rho_max, and the copy keys the same frame in the memo
        monkeypatch.setattr(wold, "_FRAMES", OrderedDict())
        B = bl.BlaschkeProduct(theta, zeros, rho_max=rho_max)
        C = {"pickle": lambda: pickle.loads(pickle.dumps(B)), "copy": lambda: copy.copy(B),
             "deepcopy": lambda: copy.deepcopy(B)}[copier]()
        assert C is not B and C == B and (C.theta, C.zeros, C.degree) == (B.theta, B.zeros, B.degree)
        assert hash(C) == hash(B) == hash((C.theta, C.zeros))
        assert np.shares_memory(wold.shell_frame(C, 4, 32), wold.shell_frame(B, 4, 32))
        assert len(wold._FRAMES) == 1
        with pytest.raises(AttributeError, match="^BlaschkeProduct is immutable$"):
            C.theta = 1.0

    @pytest.mark.parametrize("mult", [1.8, 2.0, 0, -1, True, "2"])
    def test_multiplicity_is_an_integer_of_at_least_one(self, mult):
        # never truncated: int(1.8) would build a degree-1 product
        with pytest.raises(ValueError, match=rf"^multiplicity must be an integer >= 1, got {mult!r}$"):
            bl.BlaschkeProduct(0.0, [(0.5, mult)])

    def test_numpy_integer_multiplicity_is_stored_as_int(self):
        B = bl.BlaschkeProduct(0.0, [(0.5, np.int64(2))])
        assert B.degree == 2 and type(B.zeros[0][1]) is int

    def test_merges_duplicate_zeros(self):
        B = bl.BlaschkeProduct(0.0, [0.5, (0.5, 2)])
        assert B.degree == 3
        assert B.zeros == ((0.5 + 0j, 3),)

    def test_json_roundtrip(self, B3):
        assert bl.BlaschkeProduct.from_json(B3.to_json()) == B3

    def test_equal_products_hash_equal_whatever_the_order_of_their_zeros(self, B3):
        # the cached hash is the key of the frame and (B, D) memos
        for zeros in ([0.1, 0.5, -0.3 + 0.2j], [-0.3 + 0.2j, 0.1, 0.5], [(0.1, 1), 0.5, -0.3 + 0.2j]):
            B = bl.BlaschkeProduct(0.0, zeros)
            assert B == B3 and hash(B) == hash(B3) == hash((B3.theta, B3.zeros))
        assert {B3: 1}[bl.BlaschkeProduct(0.0, [0.5, 0.1, -0.3 + 0.2j])] == 1

    def test_cached_hash_cannot_be_overwritten(self, B3):
        before = hash(B3)
        with pytest.raises(AttributeError, match="^BlaschkeProduct is immutable$"):
            B3._hash = 0
        assert hash(B3) == before
