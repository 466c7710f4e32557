from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import blaschke_lab as bl
from blaschke_lab import cli, wold
from blaschke_lab.errors import BlaschkeLabError, DimensionMismatchError, ZeroFunctionError
from blaschke_lab.spaces import TaylorPoly
from conftest import b_norm, zero
from blaschke_lab.wold import _power_coeffs, cell_matrix, power_tail


#: the products of the regression matrix
CHAIN_PRODUCTS = {
    "B2": [0.5, -0.3],
    "B3": [0.5, -0.3 + 0.2j, 0.1],
    "0.6 double": [(0.6, 2)],
    "0.8, -0.79i": [0.8, -0.79j],
    "near duplicate": [0.5, 0.5 + 1e-9, -0.3],
}


def analyze_by_least_squares(f, B, M, D):
    """Cross-check oracle: invert the finite-section synthesis map in the
    least-squares sense instead of using orthogonality."""
    E = wold.shell_frame(B, M, D)
    c, *_ = np.linalg.lstsq(E, f.pad(D).coeffs, rcond=None)
    return bl.ShellDecomposition(B=B, coefficients=c.reshape(M + 1, B.degree).T, degree=D)


class TestAnalyze:
    def test_slicing_for_z2(self):
        # f = 1 + 2z + 3z^2 + 4z^3 against B = z^2 slices by parity
        dec = bl.analyze(TaylorPoly([1, 2, 3, 4]), bl.BlaschkeProduct.monomial(2), 3, 12)
        f1, f2 = dec.coefficients  # row j holds the component f_(j+1)
        assert np.allclose(f1[:2], [1, 3])
        assert np.allclose(f2[:2], [2, 4])
        assert np.allclose(f1[2:], 0)

    def test_basis_element_hits_single_cell(self, B3):
        basis = bl.model_basis(B3, 64)
        dec = bl.analyze(TaylorPoly(basis.U[:, 0]), B3, 6, 64, basis=basis)
        expected = np.zeros((3, 7), dtype=complex)
        expected[0, 0] = 1
        assert np.max(np.abs(dec.coefficients - expected)) < 1e-12

    def test_roundtrip_random_poly(self, B3, rng):
        D, M = 96, 24
        basis = bl.model_basis(B3, D)
        for _ in range(3):
            f = TaylorPoly(rng.standard_normal(21) + 1j * rng.standard_normal(21))
            dec = bl.analyze(f, B3, M, D, basis=basis)
            g = bl.synthesize(dec, D)
            assert np.linalg.norm((g - f.pad(D)).coeffs[:49]) < 1e-8

    def test_short_input_equals_padded_input(self, B3, rng):
        # analyze reads only the rows f occupies; padding f must not matter
        D, M = 64, 12
        for deg in (0, 7, 30, D):
            f = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            c = bl.analyze(f, B3, M, D).coefficients
            c_pad = bl.analyze(f.pad(D), B3, M, D).coefficients
            assert np.max(np.abs(c - c_pad)) <= 1e-15 * max(1.0, np.max(np.abs(c_pad)))

    def test_degree_beyond_window_raises(self, B3, rng):
        f = TaylorPoly(rng.standard_normal(100))
        with pytest.raises(DimensionMismatchError):
            bl.analyze(f, B3, 6, 40)

    def test_own_array_is_frozen_and_callers_array_is_copied(self, B3, rng):
        f = TaylorPoly(rng.standard_normal(12))
        dec = bl.analyze(f, B3, 8, 64)
        assert not dec.coefficients.flags.writeable
        # a read-only array is handed over, not copied again
        again = bl.ShellDecomposition(B=B3, coefficients=dec.coefficients, degree=64)
        assert again.coefficients is dec.coefficients
        c = np.array(dec.coefficients)
        mine = bl.ShellDecomposition(B=B3, coefficients=c, degree=64)
        assert mine.coefficients is not c and not mine.coefficients.flags.writeable
        c[0, 0] += 1.0
        assert np.array_equal(mine.coefficients, dec.coefficients)
        assert np.array_equal(bl.synthesize(mine).coeffs, bl.synthesize(dec).coeffs)

    def test_least_squares_cross_check(self, B3, rng):
        D, M = 96, 16
        basis = bl.model_basis(B3, D)
        f = TaylorPoly(rng.standard_normal(15) + 1j * rng.standard_normal(15))
        a = bl.analyze(f, B3, M, D, basis=basis)
        b = analyze_by_least_squares(f, B3, M, D)
        # both routes agree on the shells that carry the function
        assert np.max(np.abs(a.coefficients[:, :10] - b.coefficients[:, :10])) < 1e-8


class TestSynthesize:
    def test_zero(self, B3):
        dec = bl.ShellDecomposition(B=B3, coefficients=np.zeros((3, 5)), degree=32)
        assert bl.weighted_norm(bl.synthesize(dec), 0.0) == 0.0

    def test_single_cell(self, B3):
        basis = bl.model_basis(B3, 48)
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = 1.0
        dec = bl.ShellDecomposition(B=B3, coefficients=c, degree=48)
        out = bl.synthesize(dec)
        expected = bl.multiply(TaylorPoly(basis.U[:, 0]), B3.taylor(48), 48)
        assert np.max(np.abs(out.coeffs - expected.coeffs)) < 1e-14

    def test_exact_slicing_roundtrip_for_monomial(self, rng):
        B = bl.BlaschkeProduct.monomial(3)
        D = 60
        for _ in range(5):
            deg = int(rng.integers(0, D + 1))
            f = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            dec = bl.analyze(f, B, D // 3, D)
            g = bl.synthesize(dec, D)
            assert np.max(np.abs((g - f.pad(D)).coeffs)) < 1e-14


class TestBNorm:
    def test_single_zero_shell_is_one_for_every_alpha(self, B3):
        basis = bl.model_basis(B3, 64)
        dec = bl.analyze(TaylorPoly(basis.U[:, 0]), B3, 6, 64, basis=basis)
        for alpha in (-1.0, 0.0, 1.0, 0.3):
            assert b_norm(dec, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_monomial_alpha0_matches_h2_norm(self, rng):
        B = bl.BlaschkeProduct.monomial(2)
        f = TaylorPoly(rng.standard_normal(17) + 1j * rng.standard_normal(17))
        dec = bl.analyze(f, B, 10, 40)
        assert b_norm(dec, 0.0) == pytest.approx(bl.weighted_norm(f, 0.0), rel=1e-12)

    @pytest.mark.parametrize("k,alpha", [(0, -1.0), (3, -1.0), (2, 1.0), (5, 0.0)])
    def test_shifted_basis_element(self, B3, k, alpha):
        # ||h B^k||_B = (k+1)^(alpha/2) for unit h
        D = 96
        basis = bl.model_basis(B3, D)
        hbk = bl.multiply(TaylorPoly(basis.U[:, 0]), B3.power_list(k, D)[k], D)
        dec = bl.analyze(hbk, B3, 10, D, basis=basis)
        assert b_norm(dec, alpha) == pytest.approx((k + 1.0) ** (alpha / 2), abs=1e-9)


ALPHAS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]


class TestNormsAgainstInnerProducts:
    """b_norm, weighted_norm and the ratio against oracles built from
    weighted_inner: the expansion norm squared is the sum of the weighted
    norms squared of the components f_j, (f_j)_k = c[j, k]."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_match_weighted_inner_oracles(self, B3, rng, alpha):
        D, M = 96, 24
        for deg in (0, 9, 30):
            f = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            dec = bl.analyze(f, B3, M, D)
            nf = np.sqrt(bl.weighted_inner(f, f, alpha).real)
            nb = np.sqrt(sum(bl.weighted_inner(g, g, alpha).real for g in map(TaylorPoly, dec.coefficients)))
            assert abs(bl.weighted_norm(f, alpha) - nf) <= 1e-15 * nf
            assert abs(b_norm(dec, alpha) - nb) <= 1e-15 * nb
            ratio = (nb / nf) ** 2
            assert abs(bl.norm_equivalence_ratio(f, B3, alpha, M, D) - ratio) <= 1e-15 * ratio

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("which", ["frame", "equal"])
    def test_ratio_with_a_basis_matches_the_oracle(self, B3, rng, alpha, which):
        # basis= may name the frame's own basis, or a distinct basis with an
        # equal U; either reads the frame's cells
        D, M = 96, 24
        basis = bl.model_basis(B3, D)
        if which == "equal":
            basis = bl.ModelSpaceBasis(np.array(basis.U))
        for deg in (0, 9, 30):
            f = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            dec = bl.analyze(f, B3, M, D, basis=basis)
            nf = np.sqrt(bl.weighted_inner(f, f, alpha).real)
            nb = np.sqrt(sum(bl.weighted_inner(g, g, alpha).real for g in map(TaylorPoly, dec.coefficients)))
            ratio = (nb / nf) ** 2
            assert abs(bl.norm_equivalence_ratio(f, B3, alpha, M, D, basis=basis) - ratio) <= 1e-15 * ratio

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_ratio_with_default_window_and_shells_matches_the_oracle(self, B3, rng, alpha):
        # D = deg f and M = shell_count(B, D), as analyze derives them
        for deg in (0, 9, 30):
            f = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            dec = bl.analyze(f, B3)
            assert (dec.degree, dec.shell_count) == (deg, wold.shell_count(B3, deg))
            nf = np.sqrt(bl.weighted_inner(f, f, alpha).real)
            nb = np.sqrt(sum(bl.weighted_inner(g, g, alpha).real for g in map(TaylorPoly, dec.coefficients)))
            ratio = (nb / nf) ** 2
            assert abs(bl.norm_equivalence_ratio(f, B3, alpha) - ratio) <= 1e-15 * ratio

    def test_ratio_builds_no_decomposition(self, B3, rng, monkeypatch):
        D, M = 96, 24
        f = TaylorPoly(rng.standard_normal(20) + 1j * rng.standard_normal(20))
        expected = {alpha: (b_norm(bl.analyze(f, B3, M, D), alpha) / bl.weighted_norm(f, alpha)) ** 2 for alpha in ALPHAS}

        def forbidden(*args, **kwargs):
            raise AssertionError("norm_equivalence_ratio built a ShellDecomposition")

        monkeypatch.setattr(wold, "ShellDecomposition", forbidden)
        for alpha in ALPHAS:
            assert bl.norm_equivalence_ratio(f, B3, alpha, M, D) == pytest.approx(expected[alpha], rel=1e-14)
        with pytest.raises(AssertionError, match="built a ShellDecomposition"):
            bl.analyze(f, B3, M, D)  # the patch is live


class TestGramForm:
    """The ratio as the quotient of the memoized form G = E[:r] Lambda_M E[:r]^H:
    its value against the conftest oracle, its bits independent of the calls
    before it, and the bound of its memo."""

    PRODUCTS = {"B3": [0.5, -0.3 + 0.2j, 0.1], "0.8, -0.79i": [0.8, -0.79j]}
    D = 128

    @pytest.fixture(autouse=True)
    def cleared(self, monkeypatch):
        monkeypatch.setattr(wold, "_FORMS", OrderedDict())

    @staticmethod
    def oracle(f, B, alpha, M, D):
        return (b_norm(bl.analyze(f, B, M, D), alpha) / bl.weighted_norm(f, alpha)) ** 2

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("product", PRODUCTS)
    def test_ratio_matches_the_oracle_at_the_row_bucket_edges(self, rng, product, alpha):
        B = bl.BlaschkeProduct(0.0, self.PRODUCTS[product])
        M = wold.shell_count(B, self.D)
        for deg in (15, 16, 17, 31, 32, 33, self.D):
            f = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            ratio = self.oracle(f, B, alpha, M, self.D)
            assert abs(bl.norm_equivalence_ratio(f, B, alpha, M, self.D) - ratio) <= 1e-15 * ratio

    @pytest.mark.parametrize("product", PRODUCTS)
    def test_ratio_bits_do_not_depend_on_the_calls_before_it(self, monkeypatch, rng, product):
        # forms are never grown from a smaller one: a build's GEMM rounds by size
        B, D = bl.BlaschkeProduct(0.0, self.PRODUCTS[product]), 64
        polys = [TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) for deg in range(D + 1)]
        runs = []
        for order in (polys, polys[::-1]):
            monkeypatch.setattr(wold, "_FORMS", OrderedDict())
            runs.append({f.degree: bl.norm_equivalence_ratio(f, B, -1.0, 24, D).hex() for f in order})
        assert runs[0] == runs[1]

    def test_memo_never_holds_more_than_its_bound(self, B3, rng):
        for alpha in ALPHAS:
            for deg in (3, 20, 40, 64):
                f = TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
                bl.norm_equivalence_ratio(f, B3, alpha, 12, 64)
                assert 0 < len(wold._FORMS) <= wold._FORM_MEMO_SIZE
        assert len(wold._FORMS) == wold._FORM_MEMO_SIZE

    def test_ratio_reads_no_shell_coordinates(self, B3, rng, monkeypatch):
        f = TaylorPoly(rng.standard_normal(20) + 1j * rng.standard_normal(20))
        expected = {alpha: self.oracle(f, B3, alpha, 24, 96) for alpha in ALPHAS}

        def forbidden(*args, **kwargs):
            raise AssertionError("norm_equivalence_ratio read E^H f")

        monkeypatch.setattr(wold, "_shell_coordinates", forbidden)
        for alpha in ALPHAS:
            assert bl.norm_equivalence_ratio(f, B3, alpha, 24, 96) == pytest.approx(expected[alpha], rel=1e-15)
        with pytest.raises(AssertionError, match="read E"):
            bl.analyze(f, B3, 24, 96)  # the patch is live


class TestNegativeShellCount:
    """A negative M is a DimensionMismatchError naming M for every shell
    reader, whether or not the memo already holds a frame of (B, D)."""

    D = 16

    @pytest.fixture(params=["cold", "warm"])
    def memo(self, request, monkeypatch, B2):
        monkeypatch.setattr(wold, "_FRAMES", OrderedDict())
        if request.param == "warm":
            bl.analyze(TaylorPoly(np.arange(1.0, 6.0)), B2, 4, self.D)
            assert (B2, self.D) in wold._FRAMES
        return request.param

    @pytest.mark.parametrize("M", [-1, -2])
    @pytest.mark.parametrize("T", [0, 1])
    def test_readers_reject_a_negative_shell_count(self, B2, rng, memo, M, T):
        f = TaylorPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        phi = bl.MultiplierMatrix(rng.standard_normal((T + 1, 2, 2)))
        calls = {
            "analyze": lambda: bl.analyze(f, B2, M, self.D),
            "analyze, basis=": lambda: bl.analyze(f, B2, M, self.D, basis=bl.model_basis(B2, self.D)),
            "ratio": lambda: bl.norm_equivalence_ratio(f, B2, -1.0, M, self.D),
            "build": lambda: bl.build(phi, B2, -1.0, M, self.D),
            "shell_frame": lambda: wold.shell_frame(B2, M, self.D),
        }
        for name, call in calls.items():
            with pytest.raises(DimensionMismatchError, match=rf"^shell count M = {M} is negative; pass M >= 0$"):
                call()

    @pytest.mark.parametrize("M", [0, 3, 4, 5])
    def test_a_frame_serves_only_the_shells_it_holds(self, B2, memo, M):
        # exactly n(M+1) columns, a prefix sharing memory with a larger request
        larger = wold.shell_frame(B2, M + 3, self.D)
        E = wold.shell_frame(B2, M, self.D)
        assert E.shape == (self.D + 1, 2 * (M + 1))
        assert np.shares_memory(E, larger) and np.array_equal(E, larger[:, : E.shape[1]])

    def test_synthesize_rejects_a_decomposition_of_no_shells(self, B2, memo):
        # M = -1 is the one negative count a decomposition can hold: n x 0 coefficients
        dec = bl.ShellDecomposition(B2, np.zeros((2, 0)), self.D)
        assert dec.shell_count == -1
        with pytest.raises(DimensionMismatchError, match=r"^shell count M = -1 is negative; pass M >= 0$"):
            bl.synthesize(dec)


class TestNormEquivalence:
    def test_monomial_alpha0_ratio_one(self, rng):
        B = bl.BlaschkeProduct.monomial(2)
        f = TaylorPoly(rng.standard_normal(13) + 1j * rng.standard_normal(13))
        assert bl.norm_equivalence_ratio(f, B, 0.0, 10, 40) == pytest.approx(1.0, rel=1e-12)

    def test_basis_element_ratio(self, B3):
        basis = bl.model_basis(B3, 64)
        u1 = TaylorPoly(basis.U[:, 0])
        r = bl.norm_equivalence_ratio(u1, B3, -1.0, 6, 64, basis=basis)
        assert r == pytest.approx(1.0 / bl.weighted_norm(u1, -1.0) ** 2, rel=1e-10)

    def test_zero_function_rejected(self, B3):
        with pytest.raises(ZeroFunctionError):
            bl.norm_equivalence_ratio(zero(8), B3, -1.0, 4, 64)

    def test_bracket_stable_under_window_doubling(self, B2):
        rng = np.random.default_rng(42)
        ratios = {}
        for D in (96, 192):
            vals = []
            rngD = np.random.default_rng(42)
            basis = bl.model_basis(B2, D)
            for _ in range(40):
                deg = int(rngD.integers(0, 31))
                f = TaylorPoly(rngD.standard_normal(deg + 1) + 1j * rngD.standard_normal(deg + 1))
                vals.append(bl.norm_equivalence_ratio(f, B2, -1.0, 24, D, basis=basis))
            ratios[D] = (min(vals), max(vals))
        lo1, hi1 = ratios[96]
        lo2, hi2 = ratios[192]
        assert lo1 > 0
        assert abs(lo2 - lo1) / lo1 < 0.10
        assert abs(hi2 - hi1) / hi1 < 0.10


class TestInvariants:
    def test_roundtrip_residual_decreases_with_m(self, B3, rng):
        D = 96
        basis = bl.model_basis(B3, D)
        f = TaylorPoly(rng.standard_normal(21) + 1j * rng.standard_normal(21))
        prev = None
        for M in (8, 16, 24):
            dec = bl.analyze(f, B3, M, D, basis=basis)
            g = bl.synthesize(dec, D)
            r = np.linalg.norm((g - f.pad(D)).coeffs[: bl.safe_degree(D) + 1])
            if prev is not None:
                assert r <= prev + 1e-12
            prev = r

    def test_shell_orthogonality(self, B3):
        D, M = 96, 8
        E = cell_matrix(bl.model_basis(B3, D), B3, M, D)
        G = E.conj().T @ E
        off = G - np.eye(G.shape[0])
        assert np.max(np.abs(off)) < 1e-10

    def test_uniqueness_reanalysis(self, B3, rng):
        D, M = 96, 12
        basis = bl.model_basis(B3, D)
        f = TaylorPoly(rng.standard_normal(15) + 1j * rng.standard_normal(15))
        dec = bl.analyze(f, B3, M, D, basis=basis)
        dec2 = bl.analyze(bl.synthesize(dec, D), B3, M, D, basis=basis)
        assert np.max(np.abs(dec.coefficients - dec2.coefficients)) < 1e-9

    def test_multiplication_by_b_shifts_shells(self, B3, rng):
        D, M = 96, 12
        basis = bl.model_basis(B3, D)
        f = TaylorPoly(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        dec = bl.analyze(f, B3, M, D, basis=basis)
        bf = bl.multiply(B3.taylor(D), f, D)
        dec_b = bl.analyze(bf, B3, M, D, basis=basis)
        assert np.max(np.abs(dec_b.coefficients[:, 1:M] - dec.coefficients[:, : M - 1])) < 1e-9

    def test_roundtrip_residual_in_weighted_norm(self, B3, rng):
        # convergence is checked in the ambient weighted norm as well
        D, M = 96, 24
        f = TaylorPoly(rng.standard_normal(18) + 1j * rng.standard_normal(18))
        dec = bl.analyze(f, B3, M, D)
        g = bl.synthesize(dec, D)
        diff = TaylorPoly((g - f.pad(D)).coeffs[:49])
        assert bl.weighted_norm(diff, -1.0) < 1e-8


@given(
    st.lists(
        st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=24,
    ),
    st.integers(min_value=1, max_value=4),
)
@hyp_settings(max_examples=40, deadline=None)
def test_monomial_roundtrip_is_exact(coeffs, n):
    # slicing against z^n reproduces any polynomial to rounding
    B = bl.BlaschkeProduct.monomial(n)
    D = 32
    f = TaylorPoly(coeffs).pad(D)
    g = bl.synthesize(bl.analyze(f, B, D // n, D), D)
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    assert np.max(np.abs((g - f).coeffs)) < 1e-13 * scale


def test_power_tail_monomial_is_zero():
    assert power_tail(bl.BlaschkeProduct.monomial(3), 10, 40) == 0.0


def test_power_tail_resolves_tails_below_rounding_of_one(B2):
    # 1 - ||truncation||^2 cannot read below ~1e-8; the direct sum can
    assert power_tail(B2, 7, 256) <= 1e-15


@pytest.mark.parametrize("M", [129, 200])
def test_power_tail_past_the_doubled_window(M):
    # z^(3M) lies past 2D: the whole mass is lost, not the empty direct sum
    assert power_tail(bl.BlaschkeProduct.monomial(3), M, 256) == 1.0


def test_large_tails_read_from_the_captured_mass():
    # B^128 has 0.29 of its mass past D and 0.17 past 2D, so the direct sum
    # would read low; B^M is inner, so 1 - captured is exact to rounding
    B, M, D = bl.BlaschkeProduct(0.0, [(0.6, 2)]), 128, 256
    captured = np.sum(np.abs(B.power_list(M, D)[M].coeffs) ** 2)
    assert power_tail(B, M, D) == pytest.approx(np.sqrt(1.0 - captured), rel=1e-12)


PRODUCTS = [[0.5, -0.3], [0.5, -0.3 + 0.2j, 0.1], [(0.6, 2)], [0.8, -0.79j], [0.5, 0.5 + 1e-9, -0.3]]
#: the counts' products, with z^3 and a zero at the origin; each runs at COUNT_DEGREES,
#: and one zero at 0.95 (rho_max = 0.95) runs at D = 64, where M = 2439
COUNT_PRODUCTS = PRODUCTS + [[(0.0, 3)], [0.0, 0.1], [0.0, 0.5 - 0.4j]]
COUNT_DEGREES = [1, 2, 5, 48, 128, 256]
COUNT_CASES = [(zeros, D) for zeros in COUNT_PRODUCTS for D in COUNT_DEGREES] + [([0.95], 64)]


@pytest.mark.parametrize("zeros,D", COUNT_CASES)
def test_shell_count_is_the_smallest_with_negligible_deficit(zeros, D):
    B = bl.BlaschkeProduct(0.0, zeros, rho_max=0.95)
    M, D_safe = wold.shell_count(B, D), bl.safe_degree(D)
    if zeros == [0.95]:
        assert M == 2439
    powers = B.power_list(M + 1, D_safe)  # sequential products: an independent oracle
    assert np.linalg.norm(powers[M + 1].coeffs) <= 1e-15 < np.linalg.norm(powers[M].coeffs)


@pytest.mark.parametrize("n,D", [(1, 40), (2, 64), (3, 96)])
def test_monomial_counts(n, D):
    # z^(n(M+1)) leaves degrees <= D - D//2 at M = (D - D//2)//n, and z^(nM)
    # leaves the window at M = D//n + 1
    B = bl.BlaschkeProduct.monomial(n)
    assert wold.shell_count(B, D) == bl.safe_degree(D) // n
    assert wold.power_count(B, D) == D // n


@pytest.mark.parametrize("zeros,D", COUNT_CASES)
def test_power_count_is_the_largest_with_negligible_tail(zeros, D):
    B = bl.BlaschkeProduct(0.0, zeros, rho_max=0.95)
    M = wold.power_count(B, D)
    assert power_tail(B, M, D) <= 1e-15 < power_tail(B, M + 1, D)


def test_analyze_defaults_to_the_derived_count(B3, rng):
    f = TaylorPoly(rng.standard_normal(20))
    assert bl.analyze(f, B3, D=64).shell_count == wold.shell_count(B3, 64)


@pytest.mark.parametrize("zeros", [[0.5, -0.3], [0.5, -0.3 + 0.2j, 0.1], [(0.6, 2)], [(0.0, 3)]])
@pytest.mark.parametrize("M", [0, 1, 7, 64, 128])
def test_power_by_squaring_matches_sequential_powers(zeros, M):
    # power_tail squares B's section; power_list multiplies M times
    B, D = bl.BlaschkeProduct(0.0, zeros), 256
    squared, sequential = _power_coeffs(B, M, D), B.power_list(M, D)[M].coeffs
    assert np.max(np.abs(squared - sequential)) <= 1e-14
    mass = [np.sum(np.abs(c) ** 2) for c in (squared, sequential)]
    assert abs(mass[0] - mass[1]) <= 1e-14
    if B == bl.BlaschkeProduct.monomial(3):
        assert np.array_equal(squared, sequential)
        assert power_tail(B, M, D) == (0.0 if 3 * M <= D else 1.0)


def test_decomposition_json(B3, rng):
    f = TaylorPoly(rng.standard_normal(8))
    dec = bl.analyze(f, B3, 4, 48)
    obj = dec.to_json()
    assert obj["M"] == 4
    assert len(obj["c"]) == 3 and len(obj["c"][0]) == 5


class TestShellFrame:
    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.setattr(wold, "_FRAMES", OrderedDict())

    def test_suite_builds_cells_once_per_key(self, monkeypatch):
        calls = []
        build = wold.cell_matrix

        def counted(basis, B, M, D):
            calls.append((B, M, D))
            return build(basis, B, M, D)

        monkeypatch.setattr(wold, "cell_matrix", counted)
        B = {"theta": 0.0, "zeros": [{"re": 0.5, "im": 0.0}, {"re": -0.3, "im": 0.0}]}
        rep = cli.run(cli.parse_config({"B": B, "alpha": -1.0, "degree": 64}, "suite"))
        assert rep.all_passed
        assert 1 <= len(calls) <= 4
        assert len(set(calls)) == len(calls)

    def test_callers_model_basis_is_the_frames(self, B3, rng, monkeypatch):
        calls = []
        build = wold.cell_matrix

        def counted(basis, B, M, D):
            calls.append((B, M, D))
            return build(basis, B, M, D)

        monkeypatch.setattr(wold, "cell_matrix", counted)
        D, M = 64, 8
        basis = bl.model_basis(B3, D)
        f = TaylorPoly(rng.standard_normal(20))
        for _ in range(3):
            bl.synthesize(bl.analyze(f, B3, M, D, basis=basis), D)
        assert basis is bl.model_basis(B3, D)
        assert np.array_equal(wold.shell_frame(B3, M, D)[:, :3], basis.U)
        assert len(calls) == 1

    def test_keyword_built_basis_is_the_frames(self, B3, rng, monkeypatch):
        calls = []
        build = wold.cell_matrix

        def counted(basis, B, M, D):
            calls.append((B, M, D))
            return build(basis, B, M, D)

        monkeypatch.setattr(wold, "cell_matrix", counted)
        D, M = 64, 8
        basis = bl.model_basis(B3, D=D)
        f = TaylorPoly(rng.standard_normal(20))
        for _ in range(3):
            bl.synthesize(bl.analyze(f, B3, M, D, basis=basis), D)
        assert basis is bl.model_basis(B3, D)
        assert len(calls) == 1

    def test_rotated_basis_gets_rotated_coefficients(self, B3, rng):
        # the cells of the rotated basis U Q are the frame's cells times
        # I (x) Q, so coordinates in them are (I (x) Q^H) c
        D, M = 64, 8
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        E = wold.shell_frame(B3, M, D)
        E_rot = cell_matrix(bl.ModelSpaceBasis(bl.model_basis(B3, D).U @ Q), B3, M, D)
        assert np.max(np.abs(E_rot - E @ np.kron(np.eye(M + 1), Q))) < 1e-13
        f = TaylorPoly(rng.standard_normal(20) + 1j * rng.standard_normal(20))
        c = bl.analyze(f, B3, M, D).coefficients
        c_rot = (E_rot.conj().T @ f.pad(D).coeffs).reshape(M + 1, 3).T
        assert np.max(np.abs(c_rot - Q.conj().T @ c)) < 1e-12

    @pytest.mark.parametrize("which", ["rotated", "half window", "double window"])
    def test_a_basis_other_than_the_frames_is_refused(self, B3, rng, which):
        # shells are read against model_basis(B, D) alone: a rotation of it,
        # or the basis of another window, names other coordinates
        D, M = 64, 8
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        basis = {
            "rotated": lambda: bl.ModelSpaceBasis(bl.model_basis(B3, D).U @ Q),
            "half window": lambda: bl.model_basis(B3, D // 2),
            "double window": lambda: bl.model_basis(B3, 2 * D),
        }[which]()
        f = TaylorPoly(rng.standard_normal(20) + 1j * rng.standard_normal(20))
        for call in (lambda: bl.analyze(f, B3, M, D, basis=basis),
                     lambda: bl.norm_equivalence_ratio(f, B3, -1.0, M, D, basis=basis)):
            with pytest.raises(BlaschkeLabError, match=r"model_basis\(B, D\) at D = 64"):
                call()

    @pytest.mark.parametrize("zeros", [[0.5, -0.3], [0.5, -0.3 + 0.2j, 0.1], [(0.6, 2)], [(0.0, 3)]])
    def test_synthesize_reads_the_frame_of_any_window(self, zeros, rng):
        # the u_j are the same functions at every window, so a decomposition
        # made at D synthesizes at D' from the frame of (B, D')
        B, D, M = bl.BlaschkeProduct(0.0, zeros), 64, 20
        f = TaylorPoly(rng.standard_normal(21) + 1j * rng.standard_normal(21))
        dec = bl.analyze(f, B, M, D)
        g = bl.synthesize(dec, D).coeffs
        scale = np.max(np.abs(dec.coefficients))
        for D2 in (D // 2, 2 * D):
            g2 = bl.synthesize(dec, D2).coeffs
            assert len(g2) == D2 + 1
            shared = min(D, D2) + 1
            assert np.max(np.abs(g2[:shared] - g[:shared])) <= 1e-15 * scale

    @pytest.mark.parametrize("growth", [None, (3, 20), (8, 9), (10, 30)], ids=["third", "3-20", "8-9", "10-30"])
    @pytest.mark.parametrize("zeros", [[0.5, -0.3], [0.5, -0.3 + 0.2j, 0.1], [(0.6, 2)]])
    def test_grown_frame_equals_a_fresh_build(self, zeros, growth, monkeypatch):
        # growths that start inside the first block, end mid-block, or
        # continue from a shell count inside a later block
        calls = []
        build = wold.cell_matrix

        def counted(basis, B, M, D):
            calls.append((B, M, D))
            return build(basis, B, M, D)

        monkeypatch.setattr(wold, "cell_matrix", counted)
        B = bl.BlaschkeProduct(0.0, zeros)
        D = 128
        m, M = growth or (D // B.degree // 3, D // B.degree)
        small = wold.shell_frame(B, m, D)
        grown = wold.shell_frame(B, M, D)
        assert len(calls) == 1  # the growth continued the chain, no rebuild
        assert np.array_equal(grown[:, : small.shape[1]], small)
        assert np.array_equal(grown, build(bl.model_basis(B, D), B, M, D))
        assert np.shares_memory(wold.shell_frame(B, M - 1, D), grown)  # a hit is a view of the same frame

    def test_the_memo_keeps_the_last_four_keys(self, B2, monkeypatch):
        # least recently used first: a hit or a growth moves its key to the
        # end, and each key holds one entry
        calls = []
        build = wold.cell_matrix

        def counted(basis, B, M, D):
            calls.append((B, D))
            return build(basis, B, M, D)

        monkeypatch.setattr(wold, "cell_matrix", counted)
        assert wold._FRAME_MEMO_SIZE == 4
        keys = [(B2, D) for D in (16, 20, 24, 28, 32)]
        for B, D in keys[:4]:
            wold.shell_frame(B, 2, D)
        assert list(wold._FRAMES) == keys[:4] and len(calls) == 4
        wold.shell_frame(B2, 1, 16)  # a hit refreshes (B2, 16)
        assert list(wold._FRAMES) == keys[1:4] + keys[:1] and len(calls) == 4
        wold.shell_frame(B2, 2, 32)  # a fifth key evicts the least recently used, (B2, 20)
        assert list(wold._FRAMES) == [keys[2], keys[3], keys[0], keys[4]] and len(calls) == 5
        wold.shell_frame(B2, 6, 24)  # a growth replaces the entry of (B2, 24), builds nothing anew
        assert list(wold._FRAMES) == [keys[3], keys[0], keys[4], keys[2]] and len(calls) == 5
        wold.shell_frame(B2, 2, 20)  # the evicted key is built again
        assert list(wold._FRAMES) == [keys[0], keys[4], keys[2], keys[1]]
        assert calls[5:] == [keys[1]]

    @pytest.mark.parametrize("M", [0, 6, 7, 8, 9, 16, None])
    @pytest.mark.parametrize("D", [64, 256])
    @pytest.mark.parametrize("name", list(CHAIN_PRODUCTS))
    def test_block_chain_equals_sequential_krylov(self, name, D, M):
        # the blocks T_(B^8) E_(block before) against E_k = T_B E_(k-1) alone
        B = bl.BlaschkeProduct(0.0, CHAIN_PRODUCTS[name])
        if M is None:
            M = wold.shell_count(B, D)
        basis = bl.model_basis(B, D)
        E = cell_matrix(basis, B, M, D)
        TB = B.toeplitz(D)
        reference = [basis.U]
        for _ in range(M):
            reference.append(TB @ reference[-1])
        assert E.shape == (D + 1, B.degree * (M + 1))
        assert np.max(np.abs(E - np.hstack(reference))) <= 1e-13

    def test_cached_arrays_are_read_only(self, B3):
        E, basis = wold.shell_frame(B3, 8, 64), bl.model_basis(B3, 64)
        assert np.array_equal(E[:, :3], basis.U)  # shell 0 is the basis, bitwise
        for arr in (E, E[:, :3], basis.U, wold.shell_frame(B3, 4, 64)):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        with pytest.raises(ValueError):
            B3.taylor(64).coeffs[0] = 1.0
        lam = bl.WeightAlpha(-0.5).diagonal(64)
        assert lam is bl.WeightAlpha(-0.5).diagonal(64)
        with pytest.raises(ValueError):
            lam[0] = 2.0

    @pytest.mark.parametrize("zeros", [[0.5, -0.3], [0.5, -0.3 + 0.2j, 0.1], [(0.6, 2)]])
    def test_krylov_cells_match_convolution(self, zeros):
        B = bl.BlaschkeProduct(0.0, zeros)
        D = 128
        M = D // B.degree
        wold.shell_frame(B, M // 2, D)
        grown, basis = wold.shell_frame(B, M, D), bl.model_basis(B, D)
        powers = B.power_list(M, D)
        reference = np.stack(
            [np.convolve(u, p.coeffs)[: D + 1] for p in powers for u in basis.U.T],
            axis=1,
        )
        assert np.max(np.abs(grown - reference)) < 1e-13
