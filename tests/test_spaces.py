import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import blaschke_lab as bl
from blaschke_lab import reducing as rd
from blaschke_lab.errors import DimensionMismatchError
from blaschke_lab.spaces import (
    TaylorPoly,
    _adjoint_commutator_block,
    _commutator_block,
    as_coeffs,
    operator_norm_safe,
    require_window,
)
from conftest import identity, monomial, zero


def poly(*coeffs):
    return TaylorPoly(np.array(coeffs, dtype=complex))


small_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(small_complex, min_size=1, max_size=12)


class TestWeightedInner:
    def test_disjoint_monomials_orthogonal(self):
        for j, k in [(0, 1), (2, 5), (1, 7)]:
            assert bl.weighted_inner(monomial(j, 8), monomial(k, 8), -1.0) == 0

    def test_z3_bergman_value(self):
        # <z^3, z^3> at alpha = -1 is (3+1)^(-1) = 1/4
        v = bl.weighted_inner(monomial(3), monomial(3), -1.0)
        assert v == pytest.approx(0.25)

    def test_parseval_alpha0(self):
        f = poly(1, 1)
        assert bl.weighted_inner(f, f, 0.0) == pytest.approx(2.0)

    @given(coeff_lists, coeff_lists, st.sampled_from([-1.0, -0.5, 0.0, 1.0]))
    def test_conjugate_symmetry(self, a, b, alpha):
        f, g = TaylorPoly(a), TaylorPoly(b)
        lhs = bl.weighted_inner(f, g, alpha)
        rhs = np.conj(bl.weighted_inner(g, f, alpha))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestWeightedNorm:
    def test_zero(self):
        assert bl.weighted_norm(zero(5), -1.0) == 0.0

    @pytest.mark.parametrize("k,alpha", [(0, -1.0), (3, -1.0), (2, 0.0), (5, 1.0), (4, 0.37)])
    def test_monomial(self, k, alpha):
        assert bl.weighted_norm(monomial(k), alpha) == pytest.approx((k + 1) ** (alpha / 2))

    def test_three_terms_bergman(self):
        # |1|^2/1 + |2|^2/2 + |3|^2/3 = 6
        f = poly(1, 2, 3)
        assert bl.weighted_norm(f, -1.0) == pytest.approx(np.sqrt(6.0))

    @given(coeff_lists)
    def test_parseval_alpha0_exact(self, a):
        f = TaylorPoly(a)
        assert bl.weighted_norm(f, 0.0) ** 2 == pytest.approx(
            float(np.sum(np.abs(f.coeffs) ** 2)), rel=1e-12
        )


class TestMultiply:
    def test_identity_element(self):
        f = poly(2, 0, 1j)
        out = bl.multiply(f, TaylorPoly.one(), 4)
        assert np.allclose(out.coeffs[:3], f.coeffs)

    def test_difference_of_squares(self):
        out = bl.multiply(poly(1, 1), poly(1, -1), 2)
        assert np.allclose(out.coeffs, [1, 0, -1])

    @given(
        st.lists(small_complex, min_size=1, max_size=11),
        st.lists(small_complex, min_size=1, max_size=11),
    )
    def test_matches_double_loop_convolution(self, a, b):
        D = len(a) + len(b) - 2
        out = bl.multiply(TaylorPoly(a), TaylorPoly(b), D)
        brute = np.zeros(D + 1, dtype=complex)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                brute[i + j] += ai * bj
        assert np.allclose(out.coeffs, brute, atol=1e-9)


class TestToeplitz:
    def test_constant_one_gives_identity(self):
        T = bl.toeplitz_matrix(TaylorPoly.one(), 5, 0.0)
        assert np.allclose(T.entries, np.eye(6))

    def test_z_gives_forward_shift(self):
        T = bl.toeplitz_matrix(monomial(1), 4, 0.0)
        expected = np.diag(np.ones(4), -1)
        assert np.allclose(T.entries, expected)

    def test_apply_is_multiply(self, rng):
        D = 24
        g = TaylorPoly(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        f = TaylorPoly(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        via_matrix = bl.toeplitz_matrix(g, D, 0.0).entries @ as_coeffs(f, D)
        via_mul = bl.multiply(g, f, D)
        assert np.allclose(via_matrix, via_mul.coeffs)

    def test_homomorphism_on_block(self, rng):
        # T_{fg} = T_f T_g exactly for lower-triangular truncations
        D = 20
        f = TaylorPoly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        g = TaylorPoly(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        lhs = bl.toeplitz_matrix(bl.multiply(f, g, D), D, 0.0).entries
        rhs = bl.toeplitz_matrix(f, D, 0.0).entries @ bl.toeplitz_matrix(g, D, 0.0).entries
        blk = D - f.degree - g.degree + 1
        assert np.allclose(lhs[:blk, :blk], rhs[:blk, :blk], atol=1e-13)

    @pytest.mark.parametrize("D,deg", [(0, 3), (1, 0), (7, 3), (30, 40)])
    def test_equals_column_loop(self, rng, D, deg):
        g = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        expected = np.zeros((D + 1, D + 1), dtype=complex)
        for k in range(D + 1):
            expected[k:, k] = g.pad(D).coeffs[: D + 1 - k]
        assert np.array_equal(bl.toeplitz_matrix(g, D, 0.0).entries, expected)


class TestAdjoint:
    def test_identity(self):
        I = identity(6, -1.0)
        assert np.allclose(bl.weighted_adjoint(I).entries, np.eye(7))

    def test_alpha0_is_conjugate_transpose(self, rng):
        m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        A = bl.OperatorMatrix(m, 0.0)
        assert np.allclose(bl.weighted_adjoint(A).entries, m.conj().T)

    def test_defining_identity_bergman(self, rng):
        D = 32
        Tz = bl.toeplitz_matrix(monomial(1), D, -1.0)
        Tzs = bl.weighted_adjoint(Tz)
        for _ in range(50):
            f = TaylorPoly(rng.standard_normal(D + 1) + 1j * rng.standard_normal(D + 1))
            g = TaylorPoly(rng.standard_normal(D + 1) + 1j * rng.standard_normal(D + 1))
            lhs = bl.weighted_inner(TaylorPoly(Tz.entries @ f.coeffs), g, -1.0)
            rhs = bl.weighted_inner(f, TaylorPoly(Tzs.entries @ g.coeffs), -1.0)
            assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))

    def test_involution(self, rng):
        D = 16
        m = rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1))
        A = bl.OperatorMatrix(m, 0.7)
        back = bl.weighted_adjoint(bl.weighted_adjoint(A))
        assert np.max(np.abs(back.entries - m)) < 1e-14 * np.max(np.abs(m))


class TestCommutatorBlocks:
    @pytest.mark.parametrize("alpha", [-1.0, 0.5])
    def test_safe_blocks_equal_full_product_slices(self, B2, B3, rng, alpha):
        D = 96
        D_safe = bl.safe_degree(D)
        w = bl.WeightAlpha(alpha)
        cases = []
        for B in (B2, B3):
            n = B.degree
            phi = bl.MultiplierMatrix(rng.standard_normal((3, n, n)))
            A = bl.build(phi, B, alpha, D // n, D).realization.entries
            cases += [(A, B), (rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1)), B)]
        P = bl.mobius_power_reducing_projection(0.5, 2, 1, D).entries
        cases.append((P, bl.BlaschkeProduct(0.0, [(0.5, 2)])))
        for A, B in cases:
            # the oracle forms both full products with the whole sections of T_B
            # and of its weighted adjoint, then slices the safe block
            T = B.toeplitz(D)
            T_star = bl.weighted_adjoint(bl.OperatorMatrix(T, w)).entries
            for got, X in ((_commutator_block(A, B, D), T), (_adjoint_commutator_block(A, B, w, D), T_star)):
                full = (A @ X - X @ A)[: D_safe + 1, : D_safe + 1]
                assert got.shape == full.shape
                assert np.max(np.abs(got - full)) <= 1e-13 * max(1.0, np.max(np.abs(full)))
                ref = operator_norm_safe(full, w, D_safe)
                assert abs(operator_norm_safe(got, w, D_safe) - ref) <= 1e-14 * max(1.0, ref)

    @pytest.mark.parametrize("alpha", [-1.0, 0.5])
    @pytest.mark.parametrize("D", [64, 256])
    def test_adjoint_rows_in_place_equal_the_quotient_of_products_bit_for_bit(self, B2, B3, rng, alpha, D):
        # the rows of T_B* formed on one conjugate copy give the bits of the
        # expression (T_B^H Lambda) / Lambda_s written out in temporaries
        w, s = bl.WeightAlpha(alpha), slice(0, bl.safe_degree(D) + 1)
        lam, section = w.diagonal(D), rd._mobius_frame(0.8 + 0j, 2, D)[0]
        for B in (B2, B3, bl.BlaschkeProduct(0.0, [(0.8, 2)]), bl.BlaschkeProduct(0.0, [0.8, -0.79j])):
            adj = (B.toeplitz(D)[:, s].conj().T * lam[None, :]) / lam[s, None]
            random = rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1))
            for A in (random, section):
                assert np.array_equal(_adjoint_commutator_block(A, B, w, D), A[s, s] @ adj[:, s] - adj @ A[:, s])
                # the T_B block, its second product subtracted in place, likewise
                TB = B.toeplitz(D)
                assert np.array_equal(_commutator_block(A, B, D), A[s, :] @ TB[:, s] - TB[s, s] @ A[s, s])


SVD, EPS = np.linalg.svd, np.finfo(float).eps


def alpha_block(X, alpha, D_safe):
    """The safe block of X in the alpha geometry, Lambda^(1/2) X Lambda^(-1/2), formed as operator_norm_safe forms it."""
    sq = np.sqrt(bl.WeightAlpha(alpha).diagonal(D_safe))
    return sq[:, None] * X[: D_safe + 1, : D_safe + 1] / sq[None, :]


def svd_spy(monkeypatch) -> list:
    """The arrays np.linalg.svd is called on from here on, each recorded as it runs."""
    calls = []

    def spy(a, *args, **kwargs):
        calls.append(a)
        return SVD(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestOperatorNormSafe:
    @pytest.mark.parametrize("shape,D_safe", [((129, 129), 128), ((257, 257), 128), ((9, 9), 4)])
    def test_zero_section_needs_no_svd(self, shape, D_safe, monkeypatch):
        X = np.zeros(shape, dtype=complex)
        X[D_safe + 1 :, :] = 1.0  # outside the section
        X[0, 0] = -0.0
        calls = svd_spy(monkeypatch)
        norm = operator_norm_safe(X, -1.0, D_safe)
        assert norm == 0.0 and type(norm) is float and calls == []

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_nonzero_section_is_its_largest_singular_value(self, rng, alpha, monkeypatch):
        D, D_safe = 64, 32
        X = np.zeros((D + 1, D + 1), dtype=complex)
        X[D_safe, 3] = 1e-300  # one tiny entry is enough to take the SVD
        dense = rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1))
        calls = svd_spy(monkeypatch)
        for A in (X, dense):
            expected = SVD(alpha_block(A, alpha, D_safe), compute_uv=False)[0]
            assert operator_norm_safe(A, alpha, D_safe) == expected > 0.0
        assert len(calls) == 2  # rank one, but too small to square; flat

    @staticmethod
    def section(rng, n, ratio, alpha, D_safe):
        """sigma x y^H + ratio sigma G on the safe block of an (n x n) array holding
        junk past it, with the largest singular value s1 of its alpha-scaled block."""
        x, y = (rng.standard_normal(D_safe + 1) + 1j * rng.standard_normal(D_safe + 1) for _ in range(2))
        sigma = 3.7
        G = rng.standard_normal((D_safe + 1, D_safe + 1)) + 1j * rng.standard_normal((D_safe + 1, D_safe + 1))
        X = np.full((n, n), 1e3, dtype=complex)
        X[: D_safe + 1, : D_safe + 1] = sigma * np.outer(x / np.linalg.norm(x), (y / np.linalg.norm(y)).conj()) + ratio * sigma * G
        S = alpha_block(X, alpha, D_safe)
        return X, S, SVD(S, compute_uv=False)[0]

    @staticmethod
    def certified(S) -> bool:
        """||S||_F <= (1 + 1e-5) ||S^H q||, q the unit vector along S's largest column."""
        q = S[:, np.argmax(np.linalg.norm(S, axis=0))]
        return np.linalg.norm(S) <= (1 + 1e-5) * np.linalg.norm(S.conj().T @ q) / np.linalg.norm(q)

    @pytest.mark.parametrize("ratio", [0.0, 1e-9, 1e-6, 1e-3, 1.0])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_a_dominant_direction_is_certified_without_an_svd(self, rng, monkeypatch, alpha, ratio):
        D, D_safe = 96, 64
        X, S, s1 = self.section(rng, D + 1, ratio, alpha, D_safe)
        certified = self.certified(S)
        assert certified == (ratio <= 1e-6)  # both paths are taken
        calls = svd_spy(monkeypatch)
        norm = operator_norm_safe(X, alpha, D_safe)
        assert type(norm) is float and len(calls) == (0 if certified else 1)
        if certified:
            assert s1 * (1 - 4 * EPS) <= norm <= s1 * (1 + 1e-5)
        else:
            assert norm == s1

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_a_certified_norm_is_its_frobenius_expression_bit_for_bit(self, rng, alpha):
        # the in-place scaling and squares give the bits of the expression written out in temporaries
        D, D_safe = 96, 64
        X, S, _ = self.section(rng, D + 1, 1e-9, alpha, D_safe)
        assert self.certified(S)
        assert operator_norm_safe(X, alpha, D_safe) == math.sqrt((S.real**2 + S.imag**2).sum(axis=0).sum())

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
        rank=st.integers(1, 3),
        noise=st.sampled_from([0.0, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2]),
        scale=st.floats(-30.0, 30.0),
        alpha=st.sampled_from([-1.0, -0.5, 0.0, 1.0]),
    )
    def test_low_rank_plus_noise_stays_within_its_bounds(self, seed, size, rank, noise, scale, alpha):
        # never below the largest singular value s1, and above it by at most 1e-5 relative
        g = np.random.default_rng(seed)

        def gauss(*shape):
            return g.standard_normal(shape) + 1j * g.standard_normal(shape)

        X = 10.0**scale * (gauss(size, rank) * np.logspace(0, -3, rank)) @ gauss(rank, size) + 10.0**scale * noise * gauss(size, size)
        s1 = SVD(alpha_block(X, alpha, size - 1), compute_uv=False)[0]
        assert s1 * (1 - 4 * EPS) <= operator_norm_safe(X, alpha, size - 1) <= s1 * (1 + 1e-5)

    @pytest.mark.parametrize("scale", [1e200, 1e-300])
    def test_a_section_too_large_or_small_to_square_takes_the_svd(self, rng, monkeypatch, scale):
        # rank one, so certified at unit scale; its squares would overflow or underflow here
        X, S, _ = self.section(rng, 33, 0.0, -1.0, 16)
        assert self.certified(S)
        X = scale * X
        calls = svd_spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = operator_norm_safe(X, -1.0, 16)
        assert len(calls) == 1 and norm == SVD(alpha_block(X, -1.0, 16), compute_uv=False)[0]

    def test_nan_section_still_reaches_the_svd(self):
        X = np.zeros((9, 9), dtype=complex)
        X[0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            operator_norm_safe(X, -1.0, 4)


class TestApply:
    # The action of a finite section on a function: entries @ as_coeffs(f, D).
    def test_identity(self, rng):
        f = TaylorPoly(rng.standard_normal(5))
        I = identity(4, 0.0)
        out = I.entries @ as_coeffs(f, I.degree)
        assert np.allclose(out, f.coeffs)

    def test_shift(self):
        S = bl.toeplitz_matrix(monomial(1), 3, 0.0)
        out = S.entries @ as_coeffs(poly(1, 1), S.degree)
        assert np.allclose(out, [0, 1, 1, 0])

    def test_rejects_longer_input(self):
        I = identity(2, 0.0)
        with pytest.raises(DimensionMismatchError):
            require_window(TaylorPoly(np.ones(5)), I.degree)

    def test_matches_row_dots(self, rng):
        D = 9
        m = rng.standard_normal((D + 1, D + 1))
        f = rng.standard_normal(D + 1)
        A = bl.OperatorMatrix(m, 0.0)
        out = A.entries @ as_coeffs(TaylorPoly(f), A.degree)
        expected = np.array([np.dot(m[i], f) for i in range(D + 1)])
        assert np.allclose(out, expected)


def test_require_window_rejects_a_function_past_the_window():
    require_window(TaylorPoly(np.ones(3)), 2)
    require_window(TaylorPoly(np.ones(3)), 5)
    with pytest.raises(DimensionMismatchError, match=r"^function degree 4 exceeds the window D = 2; pass D >= deg f$"):
        require_window(TaylorPoly(np.ones(5)), 2)


def test_taylor_poly_rejects_nonfinite():
    for c in ([1.0, np.nan], [np.inf], [1.0, complex(0.0, np.nan)], [complex(-np.inf, 1.0)]):
        with pytest.raises(ValueError, match=r"^coefficients must be finite$"):
            TaylorPoly(c)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, np.float64(np.nan)])
def test_weight_rejects_nonfinite_alpha(alpha):
    with pytest.raises(ValueError, match=r"^alpha must be finite$"):
        bl.WeightAlpha(alpha)
    with pytest.raises(ValueError, match=r"^alpha must be finite$"):
        bl.spaces.as_weight(alpha)


def test_taylor_poly_immutable():
    f = poly(1, 2)
    with pytest.raises(ValueError):
        f.coeffs[0] = 5


@pytest.mark.parametrize(
    "make,shape",
    [(TaylorPoly, (3,)), (bl.OperatorMatrix, (3, 3)), (bl.MultiplierMatrix, (2, 2, 2)), (bl.ModelSpaceBasis, (3, 2))],
    ids=["TaylorPoly", "OperatorMatrix", "MultiplierMatrix", "ModelSpaceBasis"],
)
def test_values_copy_a_writeable_input_and_take_a_read_only_one(make, shape):
    x = np.zeros(shape, dtype=complex)
    value = make(x)
    held = next(a for a in vars(value).values() if isinstance(a, np.ndarray))
    x[(0,) * len(shape)] = 1.0  # the caller's array stays writeable
    assert not held.any() and not held.flags.writeable
    x.setflags(write=False)
    assert next(a for a in vars(make(x)).values() if isinstance(a, np.ndarray)) is x
