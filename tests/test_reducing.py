import dataclasses

import numpy as np
import pytest

import blaschke_lab as bl
from blaschke_lab import cli
from blaschke_lab import reducing as rd
from blaschke_lab import safe_degree, spaces
from blaschke_lab.errors import BlaschkeLabError, ConditioningError, DimensionMismatchError, MembershipError, ZeroFunctionError
from blaschke_lab.spaces import TaylorPoly, as_coeffs, operator_norm_safe
from conftest import b_norm, identity, monomial, zero


def _mobius_column_loop(a, N, D):
    """Reference Mobius-power projections of every class j: each generator
    v_p by one np.convolve with the Blaschke factor, P_j summed one rank-1
    term at a time, class j stopping at its first generator whose in-window
    mass is below 1e-14. Returns [(P_j, clean_j) for j < N], clean_j the
    unit generators u_p, p = j mod N, whose padded-window tail is at most
    the library's guard tolerance, truncated at D."""
    a = complex(a)
    scale = 1.0 - abs(a) ** 2
    # only a cap on the loop: below D = 40 the in-window mass of u_p falls
    # under 1e-14 later than D alone predicts
    p_bound = 2 * (int(np.ceil(max(D, 40) * (1 + abs(a)) / (1 - abs(a)))) + 4 * N + 8)
    D_pad = D + max(D // 2, 40)
    lam = (np.arange(D_pad + 1) + 1.0) ** -1.0
    k = np.arange(D_pad + 1)
    v = (k + 1.0) * np.conj(a) ** k
    fac = bl.blaschke_factor_taylor(a, D_pad).coeffs
    Ps = [np.zeros((D + 1, D + 1), dtype=complex) for _ in range(N)]
    bases = [[] for _ in range(N)]
    live = set(range(N))
    for p in range(p_bound + 1):
        j = p % N
        if j in live:
            u = v * (np.sqrt(p + 1.0) * scale)
            if np.sum(np.abs(u[: D + 1]) ** 2 * lam[: D + 1]) < 1e-14:
                live.discard(j)
                if not live:
                    break
            else:
                Ps[j] += np.outer(u[: D + 1], np.conj(u[: D + 1]) * lam[: D + 1])
                if np.sqrt(np.sum(np.abs(u[D + 1 :]) ** 2 * lam[D + 1 :])) <= rd._MOBIUS_CLEAN_TOL:
                    bases[j].append(u[: D + 1])
        v = np.convolve(v, fac)[: D_pad + 1]
    else:
        raise AssertionError("the include cut never fired")
    return list(zip(Ps, bases))


def _generator_by_convolution(a, j, D):
    """u_j on the padded window of D: the normalized kernel at a times j
    Blaschke factors, one np.convolve each."""
    D_pad = D + max(D // 2, 40)
    k = np.arange(D_pad + 1)
    u = np.sqrt(j + 1.0) * (1 - abs(a) ** 2) * (k + 1.0) * np.conj(a) ** k
    fac = bl.blaschke_factor_taylor(a, D_pad).coeffs
    for _ in range(j):
        u = np.convolve(u, fac)[: D_pad + 1]
    return u


class TestMonomialProjection:
    def test_whole_space_for_n1(self):
        P = bl.monomial_reducing_projection(1, 0, -1.0, 8)
        assert np.allclose(P.entries, np.eye(9))

    def test_odd_indices_for_n2_j1(self):
        P = bl.monomial_reducing_projection(2, 1, -1.0, 5)
        assert np.allclose(np.diag(P.entries), [0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_reduces_monomial_product(self, alpha):
        N, D = 3, 60
        B = bl.BlaschkeProduct.monomial(N)
        for j in range(N):
            P = bl.monomial_reducing_projection(N, j, alpha, D)
            assert bl.reducing_residual(P, B) < 1e-12

    def test_projection_laws(self):
        P = bl.monomial_reducing_projection(2, 0, -1.0, 40)
        idem, sa = bl.projection_defects(P)
        assert idem < 1e-12 and sa < 1e-12
        assert np.trace(P.entries) == 21
        # the unit monomials (k+1)^(1/2) z^k: even k fixed, odd k annihilated
        for k, v in enumerate(np.diag(np.sqrt(np.arange(41) + 1.0))):
            assert bl.weighted_norm(TaylorPoly(v), -1.0) == pytest.approx(1.0, abs=1e-15)
            image = v if k % 2 == 0 else np.zeros(41)
            assert bl.weighted_norm(TaylorPoly(P.entries @ v - image), -1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 1.0])
    @pytest.mark.parametrize("N", [2, 3])
    def test_defects_are_exactly_zero(self, alpha, N):
        # a 0/1 diagonal is idempotent and, with the weight ratios' unit
        # diagonal, weighted-self-adjoint bit for bit
        for j in range(N):
            P = bl.monomial_reducing_projection(N, j, alpha, 256)
            assert np.array_equal(bl.weighted_adjoint(P).entries, P.entries)
            assert bl.projection_defects(P) == (0.0, 0.0)


def _k0_by_loop(a, N, D):
    """max over j < N and m <= D_safe of |<g_j, B z^m>| at alpha = -1, g_j the derivative kernel
    z^j/(1 - conj(a) z)^(j+2), one inner product at a time."""
    from math import comb

    B = bl.BlaschkeProduct(0.0, [(a, N)])
    TB = bl.toeplitz_matrix(B.taylor(D), D, -1.0)
    lam = (np.arange(D + 1) + 1.0) ** -1.0
    worst = 0.0
    for j in range(N):
        g = np.zeros(D + 1, dtype=complex)
        k = np.arange(D + 1 - j)
        g[j:] = np.array([comb(int(i) + j + 1, j + 1) for i in k]) * np.conj(a) ** k
        for m in range(safe_degree(D) + 1):
            worst = max(worst, abs(np.sum(g * np.conj(TB.entries[:, m]) * lam)))
    return worst


class TestMobiusProjection:
    def test_k0_orthogonality_feeding_proposition(self):
        # derivative kernels z^j/(1-a z)^(j+2) against B * A at alpha = -1
        assert _k0_by_loop(0.5, 2, 120) < 1e-8

    @pytest.mark.parametrize("a,N,D", [(a, N, D) for a in (0.5, 0.8) for N in (2, 3) for D in (64, 256)])
    def test_battery_k0_equals_the_loop(self, a, N, D):
        obj = {
            "B": {"theta": 0.0, "zeros": [{"re": a, "im": 0.0, "mult": N}]},
            "alpha": -1.0,
            "degree": D,
            "inputs": {"family": "mobius_power", "a": [a, 0.0]},
        }
        records = cli.run(cli.parse_config(obj, "reducing")).records
        [k0] = [r.residual for r in records if r.name == "reducing/mobius/k0_orthogonality"]
        assert abs(k0 - _k0_by_loop(a, N, D)) <= 1e-15

    def test_reducing_residual_both_parities(self):
        a, N, D = 0.5, 2, 120
        B = bl.BlaschkeProduct(0.0, [(a, 2)])
        for j in range(N):
            P = bl.mobius_power_reducing_projection(a, N, j, D)
            assert bl.reducing_residual(P, B) < 1e-6

    @pytest.mark.parametrize("a,N,D", [(0.5, 2, 120), (0.8, 3, 256), (0.3 + 0.4j, 4, 96)])
    def test_self_adjoint_and_fixes_clean_generators(self, a, N, D):
        # P_j u_p = u_p for every clean generator of the oracle, p = j mod N
        for j, (_, clean) in enumerate(_mobius_column_loop(a, N, D)):
            P = bl.mobius_power_reducing_projection(a, N, j, D)
            _, sa = bl.projection_defects(P)
            assert sa < 1e-10
            assert len(clean) > 0
            for u in clean:
                assert bl.weighted_norm(TaylorPoly(P.entries @ u - u), -1.0) < 1e-10

    def test_bottom_generator_is_kernel(self):
        # the first generator of the j = 0 family is the normalized weighted
        # kernel (1 - |a|^2)/(1 - conj(a) z)^2 at a, and P_0 fixes it
        a, D = 0.3 + 0.4j, 80
        [(_, clean), _] = _mobius_column_loop(a, 2, D)
        k = np.arange(D + 1)
        kernel = (1 - abs(a) ** 2) * (k + 1.0) * np.conj(a) ** k
        assert np.max(np.abs(clean[0] - kernel)) < 1e-12
        P = bl.mobius_power_reducing_projection(a, 2, 0, D)
        assert bl.weighted_norm(TaylorPoly(P.entries @ kernel - kernel), -1.0) < 1e-10

    def test_complement_family_sums_to_identity_on_safe_block(self):
        a, N, D = 0.5, 2, 120
        Ps = [bl.mobius_power_reducing_projection(a, N, j, D).entries for j in range(N)]
        total = sum(Ps)
        Ds = safe_degree(D)
        assert np.max(np.abs((total - np.eye(D + 1))[: Ds + 1, : Ds + 1])) < 1e-10

    def test_rejects_zero_a(self):
        with pytest.raises(ValueError):
            bl.mobius_power_reducing_projection(0.0, 2, 0, 40)

    @pytest.mark.parametrize("a", [1.0, 1.2j])
    def test_rejects_a_off_the_disc_whatever_rho_max(self, a):
        with pytest.raises(ValueError, match=r"\|a\| < 1"):
            bl.mobius_power_reducing_projection(a, 2, 0, 40, rho_max=2.0)

    def test_conditioning_error_when_window_tiny(self):
        with pytest.raises(ConditioningError):
            bl.mobius_power_reducing_projection(0.79, 2, 1, 6)

    @pytest.mark.parametrize("a,N,D", [(0.5, 2, 64), (0.8, 3, 256), (0.5j, 3, 64), (0.6 - 0.5j, 4, 128)])
    def test_clean_generators_are_orthonormal(self, a, N, D):
        # across all classes: U_a is unitary and the unit monomials are orthonormal
        lam = (np.arange(D + 1) + 1.0) ** -1.0
        U = np.stack([u for _, clean in _mobius_column_loop(a, N, D) for u in clean], axis=1)
        assert np.max(np.abs(U.conj().T @ (lam[:, None] * U) - np.eye(U.shape[1]))) < 1e-8

    def test_conditioning_error_when_no_generator_is_clean(self):
        with pytest.raises(
            ConditioningError,
            match=r"^no Mobius-power generator is window-clean at D = 48: class 0's first generator has "
            r"padded-window tail 7\.703e-05 > 1e-10; increase D to >= 111$",
        ):
            bl.mobius_power_reducing_projection(0.8, 2, 0, 48)

    @pytest.mark.parametrize(
        "a,N,j,D", [(0.8, 2, 0, 48), (0.8, 4, 3, 4), (0.1, 1, 0, 4), (-0.79j, 3, 2, 128), (0.6 - 0.5j, 2, 1, 24)]
    )
    def test_class_builds_at_the_window_the_error_names(self, a, N, j, D):
        with pytest.raises(ConditioningError, match=r"increase D to >= \d+$") as exc:
            bl.mobius_power_reducing_projection(a, N, j, D)
        D_min = int(str(exc.value).rpartition(" ")[2])
        assert D_min > D
        assert bl.mobius_power_reducing_projection(a, N, j, D_min).degree == D_min
        with pytest.raises(ConditioningError, match=rf"^no Mobius-power generator is window-clean at D = {D_min - 1}: "):
            bl.mobius_power_reducing_projection(a, N, j, D_min - 1)

    @pytest.mark.parametrize(
        "a,j,D",
        [
            (0.8, 32, 512),
            (-0.79j, 32, 512),
            (0.5, 63, 256),
            (0.3 + 0.4j, 48, 128),
            (0.8, 3, 128),
            (0.8, 3, 8),  # the tail reaches the end of the padded window
            (0.8, 0, 110),  # the last D below and the first D at the tolerance
            (0.8, 0, 111),
        ],
    )
    def test_guard_tail_equals_a_convolution_oracle(self, a, j, D):
        # the binomial sums for the coefficients of u_j cancel past j ~ 10
        # (at (0.8, 32, 512) they read 1e-4 for a clean 3.6e-12 tail)
        a = complex(a)
        lam = (np.arange(D + max(D // 2, 40) + 1) + 1.0) ** -1.0
        u = _generator_by_convolution(a, j, D)
        ref = np.sqrt(np.sum(np.abs(u[D + 1 :]) ** 2 * lam[D + 1 :]))
        got = rd._generator_tail(a, j, D)
        assert abs(got - ref) <= 1e-4 * ref + 1e-14
        assert (got <= rd._MOBIUS_CLEAN_TOL) == (ref <= rd._MOBIUS_CLEAN_TOL)

    @pytest.mark.parametrize("a,N,D", [(0.8, 2, 256), (0.5j, 3, 64), (-0.3 + 0.4j, 1, 128)])
    def test_equals_column_loop(self, a, N, D):
        for j, (P_ref, clean) in enumerate(_mobius_column_loop(a, N, D)):
            P = bl.mobius_power_reducing_projection(a, N, j, D)
            assert np.max(np.abs(P.entries - P_ref)) < 1e-12
            assert len(clean) > 0
            for u in clean:
                assert bl.weighted_norm(TaylorPoly(P.entries @ u - u), -1.0) < 1e-10

    @pytest.mark.parametrize("a,N,D", [(0.8, 1, 128), (0.8, 2, 256), (0.5j, 3, 64), (0.5, 3, 128)])
    def test_equals_identity_plus_sections_over_n(self, a, N, D):
        # the oracle sums (I + sum_r omega^(-(j+1)r) C_r)/N from an identity
        C = rd._mobius_frame(complex(a), N, D)
        for j in range(N):
            ref = np.eye(D + 1, dtype=complex)
            for r, C_r in enumerate(C, start=1):
                ref += np.exp(-2j * np.pi * (j + 1) * r / N) * C_r
            ref /= N
            assert np.array_equal(bl.mobius_power_reducing_projection(a, N, j, D).entries, ref)

    def test_single_class_is_identity(self):
        P = bl.mobius_power_reducing_projection(0.8, 1, 0, 128)
        assert np.max(np.abs(P.entries - np.eye(129))) < 1e-14

    @pytest.mark.parametrize("a,N,D", [(0.8, 2, 256), (0.5j, 3, 64), (0.6, 4, 128)])
    def test_classes_sum_to_identity_on_full_window(self, a, N, D):
        total = sum(bl.mobius_power_reducing_projection(a, N, j, D).entries for j in range(N))
        assert np.max(np.abs(total - np.eye(D + 1))) < 1e-13


FRAME_GRID = [(a, N, D) for a in (0.8, 0.5, 0.3 + 0.4j) for N in (1, 2, 3) for D in (64, 128, 256)]


#: a subset of the grid on which the first-generator guard was checked
#: against a sweep of every generator; both verdicts occur for every a
VERDICT_GRID = [(a, N, D) for a in (0.3, 0.5j, 0.8, 0.6 - 0.5j) for N in (1, 2, 3, 4) for D in (4, 8, 16, 32, 64, 128)]


def _mobius_class(a, N, j, D):
    """The P entries of class j, or the error it raises."""
    try:
        return bl.mobius_power_reducing_projection(a, N, j, D).entries
    except ConditioningError as exc:
        return str(exc)


class TestMobiusFrame:
    """Each class of one (a, N, D) builds the composition sections C_r once;
    the guard reads one generator per class."""

    @pytest.mark.parametrize("a,N,D", FRAME_GRID)
    def test_every_class_equals_the_column_loop(self, a, N, D):
        for j, (P_ref, clean) in enumerate(_mobius_column_loop(a, N, D)):
            got = _mobius_class(a, N, j, D)
            assert isinstance(got, str) == (len(clean) == 0)
            if not isinstance(got, str):
                assert np.max(np.abs(got - P_ref)) < 1e-12

    @pytest.mark.parametrize("a,N,D", VERDICT_GRID)
    def test_guard_verdict_is_some_clean_generator(self, a, N, D):
        # the first generator decides: a class builds exactly when the
        # oracle's sweep of all its generators finds a clean one
        for j, (_, clean) in enumerate(_mobius_column_loop(a, N, D)):
            assert isinstance(_mobius_class(a, N, j, D), str) == (len(clean) == 0), j

    @pytest.mark.parametrize("a,N,D", FRAME_GRID)
    def test_each_built_class_sweeps_its_sections_once(self, a, N, D, monkeypatch):
        sweeps = []
        sweep = rd._mobius_columns

        def counted(beta, alpha, delta, gamma, c0, ncol):
            sweeps.append("section" if len(c0) == D + 1 else ncol)
            return sweep(beta, alpha, delta, gamma, c0, ncol)

        monkeypatch.setattr(rd, "_mobius_columns", counted)
        built = [not isinstance(_mobius_class(a, N, j, D), str) for j in range(N)]
        # the sections C_1..C_(N-1) per class the guard admits; no generator
        # sweep, and no sections for a class the guard rejects
        assert sweeps == ["section"] * (N - 1) * sum(built)

    def test_section_arrays_are_read_only(self):
        C = rd._mobius_frame(0.5 + 0j, 3, 64)
        assert len(C) == 2
        for arr in C:
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


#: a grid over real, imaginary and off-axis points up to |a| = 0.79, read with rho_max 0.85
SECTION_GRID = [(a, N, D) for a in (0.3, 0.5, 0.8, 0.5j, 0.6 - 0.5j, -0.79j) for N in (2, 3) for D in (64, 128, 256)]

#: windows that are no multiple of the tile, so the padded edge tiles are compared too
WINDOW_GRID = [(a, N, D) for a in (0.8, 0.3 + 0.4j, -0.79j) for N in (2, 3, 4, 5) for D in (1, 4, 9, 100, 257)]


def _sections_by_diagonals(beta, alpha, delta, gamma, c0, ncol):
    """Oracle of _mobius_columns in the precision of c0: the recursion
    c[k, l] = b c[k, l-1] + g c[k-1, l] + al c[k-1, l-1] swept one anti-diagonal s = k + l at a time, each
    from the two before it (the library's sweep before it was tiled)."""
    D, dtype = len(c0) - 1, c0.dtype
    b, al, g = beta / delta, alpha / delta, -gamma / delta
    out = np.zeros((D + 1, ncol), dtype=dtype)
    prev = row = np.zeros(D + 1, dtype=dtype)  # row[k] = c[k, s - k]
    for s in range(ncol + D):
        nxt = b * row
        nxt[1:] += g * row[:-1] + al * prev[:-1]
        nxt[s : s + 1] = c0[s : s + 1]  # column 0
        prev, row = row, nxt
        k = np.arange(max(0, s - ncol + 1), min(D, s) + 1)
        out[k, s - k] = row[k]
    return out


def _section_inputs(a, N, D):
    """The arguments _mobius_frame(a, N, D) passes to _mobius_columns, one tuple per section."""
    calls, sweep = [], rd._mobius_columns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rd, "_mobius_columns", lambda *args: calls.append(args) or sweep(*args))
        rd._mobius_frame(complex(a), N, D)
    return calls


def _section_inputs_long(a, N, D):
    """The same arguments formed in long double from a and N, omega from a long-double pi."""
    pi, a, k = 4 * np.arctan(np.longdouble(1)), np.clongdouble(a), np.arange(D + 1, dtype=np.longdouble)
    out = []
    for r in range(1, N):
        om = np.exp(np.clongdouble(1j) * (2 * pi * r / N))
        beta, alpha, delta, gamma = a * (1 - om), om - abs(a) ** 2, 1 - om * abs(a) ** 2, np.conj(a) * (om - 1)
        out.append((beta, alpha, delta, gamma, (alpha * delta - beta * gamma) / delta**2 * (k + 1) * (-gamma / delta) ** k, D + 1))
    return out


def _max_gap(x, ref, rows=256):
    """max |x - ref|, a block of rows at a time (the long-double references reach 130 MB)."""
    return max(float(np.max(np.abs(x[i : i + rows] - ref[i : i + rows]))) for i in range(0, len(ref), rows))


class TestMobiusSections:
    """_mobius_columns fills the sections by tiles; the anti-diagonal sweep it replaced is the oracle."""

    @pytest.mark.parametrize("a,N,D", sorted(set(FRAME_GRID + SECTION_GRID + WINDOW_GRID), key=str))
    def test_tiles_equal_the_diagonal_sweep(self, a, N, D):
        C, inputs = rd._mobius_frame(complex(a), N, D), _section_inputs(a, N, D)
        assert len(C) == len(inputs) == N - 1
        for C_r, args in zip(C, inputs):
            ref = _sections_by_diagonals(*args)
            assert C_r.shape == ref.shape == (D + 1, D + 1)
            assert _max_gap(C_r, ref) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
    @pytest.mark.parametrize("a,N,D", [(0.8, 2, 256), (0.8, 3, 512), (0.99, 2, 2048)])
    def test_tiles_are_as_accurate_as_the_sweep(self, a, N, D):
        # both float methods against the sweep run in long double from long-double inputs, so each error is
        # the distance from the section itself; a = 0.99 lies past the default rho_max, and the sections take
        # no guard. An ulp of b alone moves the sections at a = 0.99 by about 1e-12 relative.
        C = rd._mobius_frame(complex(a), N, D)
        for C_r, args, exact in zip(C, _section_inputs(a, N, D), _section_inputs_long(a, N, D)):
            ref = _sections_by_diagonals(*exact)
            sweep_gap = _max_gap(_sections_by_diagonals(*args), ref)
            assert _max_gap(C_r, ref) <= 3 * sweep_gap


def _outcome(fn):
    """fn's value, or the (type, message) of the library error it raises."""
    try:
        return fn()
    except (BlaschkeLabError, ValueError) as exc:
        return type(exc), str(exc)


def _class_residual_written_out(a, N, j, D, B):
    """The residual of class j alone, as one expression over the safe-block commutators of its sections C_r:
    max over T = T_B*, T_B of ||[C_1, T] + sum_(r >= 2) (omega^(-(j+1)r) / omega^(-(j+1))) [C_r, T]|| / N.
    Sharing the sums between classes must not move a bit of it."""
    a, phase = rd._mobius_class(a, N, j, D, bl.RHO_MAX)
    w, D_safe = spaces.as_weight(-1.0), safe_degree(D)
    K = [(spaces._adjoint_commutator_block(C, B, w, D), spaces._commutator_block(C, B, D)) for C in rd._mobius_frame(a, N, D)]
    rel = [ph / phase[0] for ph in phase[1:]]
    return max(operator_norm_safe(sum((c * K_r[i] for c, K_r in zip(rel, K[1:])), K[0][i]), w, D_safe) for i in (0, 1)) / N


class TestMobiusSectionResidual:
    """mobius_power_reducing_residual reads each class's residual from the
    commutators of the sections C_r, shared by every class, and forms no
    projection."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        # the memo holds the residual of every class of a key, nothing else
        rd._mobius_commutators.cache_clear()
        yield
        rd._mobius_commutators.cache_clear()

    @pytest.mark.parametrize("a,N,D", SECTION_GRID)
    def test_equals_the_residual_of_the_projection(self, a, N, D):
        B = bl.BlaschkeProduct(0.0, [(a, N)], rho_max=0.85)
        for j in range(N):
            got = _outcome(lambda: bl.mobius_power_reducing_residual(a, N, j, D, B, rho_max=0.85))
            ref = _outcome(lambda: bl.reducing_residual(bl.mobius_power_reducing_projection(a, N, j, D, rho_max=0.85), B))
            if isinstance(ref, tuple):
                assert got == ref, j  # the same error type and message
            elif ref > 1e-13:
                assert abs(got - ref) <= 1e-4 * ref, j
            else:
                assert abs(got - ref) <= 1e-13, j

    @pytest.mark.parametrize("a,D", sorted({(a, D) for a, N, D in SECTION_GRID}, key=str))
    def test_the_classes_of_n2_read_one_value(self, a, D):
        B = bl.BlaschkeProduct(0.0, [(a, 2)], rho_max=0.85)
        zero, one = (_outcome(lambda j=j: bl.mobius_power_reducing_residual(a, 2, j, D, B, rho_max=0.85)) for j in (0, 1))
        if not isinstance(zero, tuple) and not isinstance(one, tuple):
            assert zero == one

    @pytest.mark.parametrize("a,N,D", [(0.5, 2, 64), (0.8, 3, 256), (0.6 - 0.5j, 3, 256)])
    def test_section_commutators_are_built_once_per_key(self, a, N, D, monkeypatch):
        blocks, norms = [], []

        def counted(kernel):
            def call(m, B, *args):
                blocks.append((kernel, B))
                return getattr(spaces, kernel)(m, B, *args)

            return call

        def counted_norm(*args):
            norms.append(args)
            return operator_norm_safe(*args)

        kernels = ("_adjoint_commutator_block", "_commutator_block")
        for kernel in kernels:
            monkeypatch.setattr(rd, kernel, counted(kernel))
        monkeypatch.setattr(rd, "operator_norm_safe", counted_norm)
        B = bl.BlaschkeProduct(0.0, [(a, N)])
        got = [[bl.mobius_power_reducing_residual(a, N, j, D, B) for j in range(N)] for _ in range(2)]
        # the T_B* blocks of every section, then its T_B blocks, for the first class only
        assert blocks == [(k, B) for k in kernels for _ in range(N - 1)]
        # one norm per T and distinct class sum: the classes of N = 2 share theirs
        assert len(norms) == 2 * (1 if N == 2 else N)
        # the memo holds the residual of every class, and each class reads its own
        assert got[0] == got[1] == list(rd._mobius_commutators(complex(a), N, D, B))
        # T_B enters the key: a rotated product has other commutators
        rotated = bl.BlaschkeProduct(0.5, [(a, N)])
        bl.mobius_power_reducing_residual(a, N, 0, D, rotated)
        assert blocks[2 * (N - 1) :] == [(k, rotated) for k in kernels for _ in range(N - 1)]
        assert rd._mobius_commutators.cache_info().maxsize == 2

    @pytest.mark.parametrize("N,refused", [(3, [2]), (4, [2, 3])])
    def test_a_class_the_guard_refuses_is_not_normed(self, N, refused, monkeypatch):
        # b_0.8^N at D = 128: the window shows the first generators of classes 0 and 1 only
        norms = []
        monkeypatch.setattr(rd, "operator_norm_safe", lambda *args: norms.append(args) or operator_norm_safe(*args))
        B = bl.BlaschkeProduct(0.0, [(0.8, N)])
        entry = rd._mobius_commutators(0.8 + 0j, N, 128, B)
        assert [j for j, res in enumerate(entry) if res is None] == refused
        assert len(norms) == 2 * (N - len(refused))
        for j in range(N):
            if j in refused:
                with pytest.raises(ConditioningError):
                    bl.mobius_power_reducing_residual(0.8, N, j, 128, B)
            else:
                assert bl.mobius_power_reducing_residual(0.8, N, j, 128, B) == entry[j]

    @pytest.mark.parametrize("a,N,D", [(a, N, D) for a in (0.5, 0.3 + 0.4j, 0.8) for N in (3, 4) for D in (64, 128, 256)])
    def test_every_class_equals_its_own_sum_bit_for_bit(self, a, N, D):
        B = bl.BlaschkeProduct(0.0, [(a, N)])
        for j in range(N):
            got = _outcome(lambda: bl.mobius_power_reducing_residual(a, N, j, D, B))
            assert got == _outcome(lambda: _class_residual_written_out(a, N, j, D, B)), j

    def test_forms_no_projection(self, monkeypatch):
        def no_projection(*args, **kw):
            raise AssertionError("a projection was formed")

        monkeypatch.setattr(rd, "mobius_power_reducing_projection", no_projection)
        B = bl.BlaschkeProduct(0.0, [(0.8, 2)])
        assert 0 < bl.mobius_power_reducing_residual(0.8, 2, 0, 256, B) < 1e-6

    def test_one_class_is_the_identity(self):
        B = bl.BlaschkeProduct(0.0, [0.8])
        assert bl.mobius_power_reducing_residual(0.8, 1, 0, 128, B) == 0.0

    @pytest.mark.parametrize(
        "a,N,j,D,kw", [(0.0, 2, 0, 40, {}), (1.0, 2, 0, 40, {"rho_max": 2.0}), (0.5, 2, 2, 40, {}), (0.8, 2, 0, 48, {})]
    )
    def test_raises_what_the_projection_raises(self, a, N, j, D, kw):
        B = bl.BlaschkeProduct(0.0, [(0.5, 2)])
        got = _outcome(lambda: bl.mobius_power_reducing_residual(a, N, j, D, B, **kw))
        assert isinstance(got, tuple)
        assert got == _outcome(lambda: bl.mobius_power_reducing_projection(a, N, j, D, **kw))


def reducing_residual_by_full_products(P, B):
    """Oracle of reducing_residual: the full products m T, T m, m T* and T* m
    with T* the weighted adjoint of the whole section, then the safe block."""
    m, w, D = P.entries, P.alpha, P.degree
    T = B.toeplitz(D)
    T_star = bl.weighted_adjoint(bl.OperatorMatrix(T, w)).entries
    return max(operator_norm_safe(m @ X - X @ m, w, safe_degree(D)) for X in (T, T_star))


def reducing_residual_written_out(P, B):
    """reducing_residual as one expression: the safe block of [P, T_B] as
    spaces._commutator_block forms it, and the safe rows adj of T_B*.
    Sharing these blocks with the Mobius-power path must not move a bit."""
    w, D, m = P.alpha, P.degree, P.entries
    TB, lam, D_safe = B.toeplitz(D), w.diagonal(D), safe_degree(D)
    s = slice(0, D_safe + 1)
    adj = (TB[:, s].conj().T * lam[None, :]) / lam[s, None]
    return max(
        operator_norm_safe(m[s, :] @ TB[:, s] - TB[s, s] @ m[s, s], w, D_safe),
        operator_norm_safe(m[s, s] @ adj[:, s] - adj @ m[:, s], w, D_safe),
    )


def _residual_cases(D):
    """(label, P, B): Mobius classes of N = 2 and 3, monomial classes in two
    weights, and custom projections that do and do not reduce."""
    cases = []
    for a, N in [(0.5, 2), (0.5j, 3)] + ([(0.8, 2), (0.8, 3)] if D >= 256 else []):
        B = bl.BlaschkeProduct(0.0, [(a, N)])
        cases += [(f"mobius {a} {N} {j}", bl.mobius_power_reducing_projection(a, N, j, D), B) for j in range(N)]
    for N, alpha in [(2, -1.0), (3, 0.0)]:
        B = bl.BlaschkeProduct.monomial(N)
        cases += [(f"monomial {N} {j} {alpha}", bl.monomial_reducing_projection(N, j, alpha, D), B) for j in range(N)]
    # span{(1+z) z^(2k)} reduces z^2 on the Hardy weight only; a spread-out basis reduces nothing
    parity = [TaylorPoly(np.eye(D + 1)[2 * k] + np.eye(D + 1)[2 * k + 1]) for k in range(D // 2)]
    spread = [TaylorPoly(0.9 ** np.arange(D + 1)), TaylorPoly(np.cos(np.arange(D - 20)) + 0.2j)]
    for alpha in (0.0, -1.0):
        cases.append((f"custom parity {alpha}", bl.projection_from_basis(parity, alpha, D), bl.BlaschkeProduct.monomial(2)))
        cases.append((f"custom spread {alpha}", bl.projection_from_basis(spread, alpha, D), bl.BlaschkeProduct(0.0, [0.5, -0.3])))
    # a self-adjoint P has equal commutator norms with T and T*; a random
    # section does not, so it tells the two commutators apart
    re, im = np.random.default_rng(D).standard_normal((2, D + 1, D + 1))
    m = re + 1j * im
    for alpha in (-1.0, 0.5):
        P = bl.OperatorMatrix(m, alpha)
        cases.append((f"random section {alpha}", P, bl.BlaschkeProduct(0.0, [0.5, -0.3 + 0.2j, 0.1])))
    return cases


class TestReducingResidual:
    @pytest.mark.parametrize("D", [96, 256])
    def test_equals_full_product_slice(self, D):
        # D = 256 is where BLAS blocking of the full products moves the last bits
        for label, P, B in _residual_cases(D):
            ref = reducing_residual_by_full_products(P, B)
            got = bl.reducing_residual(P, B)
            assert abs(got - ref) <= 1e-14 * max(1.0, ref), label

    @pytest.mark.parametrize("D", [96, 256])
    def test_equals_its_expression_written_out_bit_for_bit(self, D):
        for label, P, B in _residual_cases(D):
            assert bl.reducing_residual(P, B) == reducing_residual_written_out(P, B), label

    def test_identity_projection(self, B2):
        D = 60
        P = identity(D, -1.0)
        assert bl.reducing_residual(P, B2) == 0.0

    def test_hardy_subspace_passes_alpha0_fails_bergman(self):
        # span{(1+z) z^(2k)}: reducing on the Hardy weight, not on Bergman
        D = 40
        B = bl.BlaschkeProduct.monomial(2)
        funcs = []
        for k in range(0, (D - 1) // 2 + 1):
            c = np.zeros(D + 1, dtype=complex)
            c[2 * k] = 1
            c[2 * k + 1] = 1
            funcs.append(TaylorPoly(c))
        P0 = bl.projection_from_basis(funcs, 0.0, D)
        assert bl.reducing_residual(P0, B) < 1e-10
        P1 = bl.projection_from_basis(funcs, -1.0, D)
        assert bl.reducing_residual(P1, B) > 1e-3

    def test_random_subspace_fails(self, B2, rng):
        D = 48
        funcs = [TaylorPoly(rng.standard_normal(D + 1) + 1j * rng.standard_normal(D + 1)) for _ in range(3)]
        P = bl.projection_from_basis(funcs, -1.0, D)
        assert bl.reducing_residual(P, B2) > 1e-2

    def test_complement_closure(self):
        D = 40
        B = bl.BlaschkeProduct.monomial(2)
        P = bl.monomial_reducing_projection(2, 0, -1.0, D)
        r1 = bl.reducing_residual(P, B)
        complement = bl.OperatorMatrix(np.eye(D + 1) - P.entries, -1.0)
        r2 = bl.reducing_residual(complement, B)
        assert abs(r1 - r2) < 1e-12

    def test_zero_basis_function_is_named_before_normalising(self):
        with pytest.raises(ZeroFunctionError, match=r"^basis function 1 is the zero function$"):
            bl.projection_from_basis([TaylorPoly([1.0, 1.0]), TaylorPoly([0.0]), TaylorPoly([0.0, 0.0, 1.0])], -1.0, 8)

    def test_pairwise_annihilation(self):
        D = 30
        P0 = bl.monomial_reducing_projection(2, 0, -1.0, D)
        P1 = bl.monomial_reducing_projection(2, 1, -1.0, D)
        assert np.max(np.abs(P0.entries @ P1.entries)) == 0.0


def intertwining_by_dense_operators(J):
    """Oracle of intertwining_residual: J S - T_B J on z^0..z^(K-2) with S the
    K x K shift, as Lambda^(1/2) (...) Lambda_K^(-1/2) in the weights of
    target and domain, its rows cut to the safe block, by one SVD."""
    D, K = J.F.shape[0] - 1, J.F.shape[1]
    X = (J.F @ np.eye(K, k=-1) - J.B.toeplitz(D) @ J.F)[:, : K - 1]
    a = J.alpha.alpha
    scaled = ((np.arange(D + 1) + 1.0) ** (a / 2))[:, None] * X * ((np.arange(K - 1) + 1.0) ** (-a / 2))[None, :]
    return float(np.linalg.svd(scaled[: safe_degree(D) + 1], compute_uv=False)[0])


class TestShiftEquivMonomial:
    def test_n1_is_identity(self):
        J = bl.shift_equiv_monomial(1, -1.0, 10)
        assert np.array_equal(J.F, np.eye(11))

    @pytest.mark.parametrize("n,D", [(3, 1), (3, 3), (3, 4), (3, 8), (2, 4), (1, 0)])
    def test_small_window_asks_for_larger_D(self, n, D):
        # the safe block must hold z^(n-1) and z^(2n-1), or J S - T_B J
        # compares no pair of images
        with pytest.raises(DimensionMismatchError, match=rf"; increase D to >= {4 * n - 3}$"):
            bl.shift_equiv_monomial(n, -1.0, D)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smallest_window_compares_two_images(self, n):
        D = 4 * n - 3
        J = bl.shift_equiv_monomial(n, -1.0, D)
        assert 2 * n - 1 <= safe_degree(D) and J.F.shape[1] >= 2
        assert bl.intertwining_residual(J) == 0.0

    def test_n2_bergman_first_image(self):
        # J(1) = sqrt(2) z and its Bergman norm matches the constant's
        J = bl.shift_equiv_monomial(2, -1.0, 12)
        img = TaylorPoly(J.F[:, 0])
        assert img.coeffs[1] == pytest.approx(np.sqrt(2.0))
        assert bl.weighted_norm(img, -1.0) == pytest.approx(bl.weighted_norm(TaylorPoly.one(), -1.0))

    @pytest.mark.parametrize("alpha,expected", [(-1.0, 6.81e-7), (0.0, 1.0e-6), (1.0, 1.47e-6)])
    def test_intertwining_measures_both_sides_in_the_alpha_geometry(self, alpha, expected):
        # one image off by 1e-6: J(z^12) gains 1e-6 z^25. The defect reaches
        # columns 11 and 12, whose unit vectors z^k / (k+1)^(alpha/2) scale it
        J = bl.shift_equiv_monomial(2, alpha, 64)
        assert bl.intertwining_residual(J) == 0.0
        F = J.F.copy()
        F[25, 12] += 1e-6
        perturbed = dataclasses.replace(J, F=F)
        got = bl.intertwining_residual(perturbed)
        assert got == pytest.approx(expected, rel=2e-3)
        assert got == pytest.approx(intertwining_by_dense_operators(perturbed), rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 1.0])
    def test_intertwining_equals_the_dense_oracle(self, B3, rng, alpha):
        D = 64
        h = TaylorPoly(bl.model_basis(B3, D).U[:, 1])
        general = bl.shift_equiv_general(B3, h, alpha, 10, D)
        noise = rng.standard_normal(general.F.shape) * 1e-3
        for J in (general, dataclasses.replace(general, F=general.F + noise)):
            ref = intertwining_by_dense_operators(J)
            assert abs(bl.intertwining_residual(J) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n,alpha", [(2, -1.0), (3, 1.0), (2, 0.0)])
    def test_unitarity_and_intertwining(self, n, alpha):
        J = bl.shift_equiv_monomial(n, alpha, 60)
        assert bl.unitarity_defect(J) < 1e-10
        assert bl.intertwining_residual(J) < 1e-13


#: the products of the regression matrix
PRODUCTS = {
    "B2": [0.5, -0.3],
    "B3": [0.5, -0.3 + 0.2j, 0.1],
    "0.6 double": [(0.6, 2)],
    "0.8, -0.79i": [0.8, -0.79j],
    "near duplicate": [0.5, 0.5 + 1e-9, -0.3],
}


def bnorm_defect_by_analysis(J, M):
    """Reference for bnorm_defect: the expansion-norm identity one image at
    a time, b_norm of analyze(J(z^k)) on shells 0..M against (k+1)^(alpha/2)."""
    D = J.F.shape[0] - 1
    worst = 0.0
    for k, img in enumerate(J.F.T):
        dec = bl.analyze(TaylorPoly(img), J.B, M, D)
        worst = max(worst, abs(b_norm(dec, J.alpha) - (k + 1.0) ** (J.alpha.alpha / 2)))
    return worst


def b_norm_unitarity_defect(J, *, M):
    """Entrywise deviation of the Gram matrix of {J(z^k)} from that of
    {z^k} in shell coordinates on shells 0..M: the expansion norm, in which
    the general construction is unitary."""
    target = np.diag((np.arange(J.F.shape[1]) + 1.0) ** J.alpha.alpha)
    D = J.F.shape[0] - 1
    coords = [bl.analyze(TaylorPoly(f), J.B, M, D).coefficients for f in J.F.T]
    kw = (np.arange(M + 1) + 1.0) ** J.alpha.alpha
    G = np.einsum("inm,jnm,m->ij", np.array(coords), np.conj(coords), kw)
    return float(np.max(np.abs(G - target)))


def images_one_product_at_a_time(B, h, M, D):
    """Reference for the images of shift_equiv_general: h B^k = T_B h B^(k-1), one
    product per image, with h at unit H^2 norm."""
    F = np.empty((D + 1, M + 1), dtype=complex)
    F[:, 0] = as_coeffs((1.0 / bl.weighted_norm(h, 0.0)) * h, D)
    for k in range(1, M + 1):
        F[:, k] = B.toeplitz(D) @ F[:, k - 1]
    return F


class TestShiftEquivGeneral:
    def test_monomial_h_reduces_to_monomial_construction(self):
        # B = z^n with h = z^(n-1): shells of h B^k are single monomials
        n, D = 2, 40
        B = bl.BlaschkeProduct.monomial(n)
        J = bl.shift_equiv_general(B, monomial(n - 1, D), -1.0, 10, D)
        assert J.F.shape == (D + 1, 11)
        assert np.max(np.abs(J.F - np.eye(D + 1)[:, n - 1 : 11 * n : n])) < 1e-14

    @pytest.mark.parametrize("D", [64, 256])
    @pytest.mark.parametrize("name", ["B2", "B3", "0.8, -0.79i"])
    def test_images_are_one_product_at_a_time(self, name, D):
        # the frame's chain takes the step T_B through shell 7, then one step
        # T_(B^8) per block of 8 shells: bitwise the reference below the first
        # block, within rounding past it
        B = bl.BlaschkeProduct(0.0, PRODUCTS[name])
        h = TaylorPoly(bl.model_basis(B, D).U[:, 0])
        for M in (0, 1, 7, 8, 9, 17, 46):
            F, ref = bl.shift_equiv_general(B, h, -1.0, M, D).F, images_one_product_at_a_time(B, h, M, D)
            assert F.shape == ref.shape == (D + 1, M + 1)
            if M <= 7:
                assert np.array_equal(F, ref), M
            else:
                assert np.max(np.abs(F - ref)) <= 1e-14 * np.max(np.abs(ref)), M

    def test_bnorm_identity(self, B3):
        D, K = 96, 10
        basis = bl.model_basis(B3, D)
        J = bl.shift_equiv_general(B3, TaylorPoly(basis.U[:, 1]), -1.0, K, D)
        for k, img in enumerate(J.F.T):
            dec = bl.analyze(TaylorPoly(img), B3, K + 2, D, basis=basis)
            assert b_norm(dec, -1.0) == pytest.approx((k + 1.0) ** (-0.5), abs=1e-9)
        assert bl.bnorm_defect(J, K + 2) < 1e-9

    @pytest.mark.parametrize("D", [64, 256])
    @pytest.mark.parametrize("zeros", list(PRODUCTS.values()), ids=list(PRODUCTS))
    def test_bnorm_defect_matches_one_analysis_per_image(self, zeros, D):
        # the battery's images h B^k and shells, read in one product and one
        # analyze call at a time; the images are formed without
        # shift_equiv_general's membership gate, which some miss at D = 64
        B = bl.BlaschkeProduct(0.0, zeros)
        M = max(2, bl.wold.power_count(B, D))
        F = [bl.model_basis(B, D).U[:, 0]]
        for _ in range(M):
            F.append(B.toeplitz(D) @ F[-1])
        for alpha in (-1.0, 0.0, 1.0):
            J = bl.IntertwinerJ(F=np.stack(F, axis=1), alpha=bl.WeightAlpha(alpha), B=B)
            M_ana = max(bl.wold.shell_count(B, D), M)
            assert abs(bl.bnorm_defect(J, M_ana) - bnorm_defect_by_analysis(J, M_ana)) <= 1e-14

    def test_bnorm_defect_matches_one_analysis_per_image_off_the_identity(self, B3, rng):
        # random images, so that the defect is O(1), not rounding
        D, M = 64, 12
        F = rng.standard_normal((D + 1, 5)) + 1j * rng.standard_normal((D + 1, 5))
        J = bl.IntertwinerJ(F=F, alpha=bl.WeightAlpha(-1.0), B=B3)
        worst = bnorm_defect_by_analysis(J, M)
        assert worst > 1.0
        assert bl.bnorm_defect(J, M) == pytest.approx(worst, rel=1e-14)

    def test_unitary_in_b_norm_not_alpha_norm(self, B3):
        D, K = 96, 8
        basis = bl.model_basis(B3, D)
        J = bl.shift_equiv_general(B3, TaylorPoly(basis.U[:, 0]), -1.0, K, D)
        assert b_norm_unitarity_defect(J, M=K + 2) < 1e-9
        assert bl.unitarity_defect(J) > 1e-2

    def test_shell_shift(self, B2):
        D = 96
        K = max(2, D // (3 * B2.degree))
        basis = bl.model_basis(B2, D)
        J = bl.shift_equiv_general(B2, TaylorPoly(basis.U[:, 0]), -1.0, K, D)
        assert bl.shell_shift_residual(J, K + 2) < 1e-8

    def test_shell_shift_matches_one_analysis_per_image(self, B3, rng):
        # the images analysed one at a time, as a reference; random images
        # so that the residual is O(1), not rounding
        D, M = 64, 12
        F = rng.standard_normal((D + 1, 5)) + 1j * rng.standard_normal((D + 1, 5))
        J = bl.shift_equiv_general(B3, TaylorPoly(bl.model_basis(B3, D).U[:, 0]), 0.0, 4, D)
        J = dataclasses.replace(J, F=F)
        worst = 0.0
        for f in F.T:
            c = bl.analyze(TaylorPoly(f), B3, M, D).coefficients
            c_b = bl.analyze(TaylorPoly(B3.toeplitz(D) @ f), B3, M, D).coefficients
            worst = max(worst, np.max(np.abs(c_b - np.pad(c[:, :-1], ((0, 0), (1, 0))))))
        assert worst > 0.1
        assert bl.shell_shift_residual(J, M) == pytest.approx(worst, rel=1e-13)

    @pytest.mark.parametrize("M", [-1, -2])
    def test_a_negative_image_count_is_an_error(self, B3, M):
        # the chain would return no images at M = -1, not fail
        h = TaylorPoly(bl.model_basis(B3, 64).U[:, 0])
        with pytest.raises(DimensionMismatchError, match=rf"^image count M = {M} is negative; "):
            bl.shift_equiv_general(B3, h, -1.0, M, 64)

    def test_membership_rejected(self, B3):
        with pytest.raises(MembershipError):
            bl.shift_equiv_general(B3, monomial(7, 40), -1.0, 6, 96)

    def test_h_past_the_window_is_rejected(self):
        # h = z + 5 z^30 at D = 8: cut to z, it would pass the model-space
        # test of B = z^2 and then fail the expansion-norm identity
        c = np.zeros(31)
        c[1], c[30] = 1.0, 5.0
        with pytest.raises(DimensionMismatchError, match=r"^function degree 30 exceeds the window D = 8; "):
            bl.shift_equiv_general(bl.BlaschkeProduct.monomial(2), TaylorPoly(c), -1.0, 3, 8)

    def test_truncated_model_function_asks_for_larger_D(self):
        # the library's own basis vector for a zero at 0.8 still carries mass
        # past D = 48, so the window test fails; the error says why and what
        # to change, and D = 96 passes
        B = bl.BlaschkeProduct(0.0, [0.8])
        h = TaylorPoly(bl.model_basis(B, 48).U[:, 0])
        with pytest.raises(MembershipError) as err:
            bl.shift_equiv_general(B, h, -1.0, 4, 48)
        msg = str(err.value)
        assert "D = 48" in msg and "D_safe = 24" in msg
        assert "true model-space function truncated at D can fail this way" in msg
        assert msg.endswith("increase D")
        bl.shift_equiv_general(B, TaylorPoly(bl.model_basis(B, 96).U[:, 0]), -1.0, 4, 96)


def hyperinvariance_check(
    P: bl.OperatorMatrix,
    W: bl.CommutantOperator | bl.OperatorMatrix,
) -> float:
    """Invariance defect ||(I - P) W P|| on the safe block: small means W
    maps the subspace into itself (invariance, not full commutation)."""
    Wm = W.realization.entries if isinstance(W, bl.CommutantOperator) else W.entries
    m = P.entries
    D_safe = safe_degree(P.degree)
    s = slice(0, D_safe + 1)
    # only the safe block: ((I - m) W m)[s, s] = (I - m)[s, :] W m[:, s]
    return operator_norm_safe((np.eye(D_safe + 1, len(m)) - m[s, :]) @ Wm @ m[:, s], P.alpha, D_safe)


class TestHyperinvariance:
    def test_tb_on_reducing_projection(self):
        D = 60
        B = bl.BlaschkeProduct.monomial(2)
        P = bl.monomial_reducing_projection(2, 0, -1.0, D)
        TB = bl.toeplitz_matrix(B.taylor(D), D, -1.0)
        assert hyperinvariance_check(P, TB) < 1e-8

    def test_identity(self):
        P = bl.monomial_reducing_projection(2, 1, -1.0, 30)
        assert hyperinvariance_check(P, identity(30, -1.0)) == 0.0

    def test_diagonal_phi_preserves_parity_component(self, rng):
        D, M = 64, 32
        B = bl.BlaschkeProduct.monomial(2)
        P = bl.monomial_reducing_projection(2, 0, -1.0, D)
        diag = [
            [TaylorPoly(rng.standard_normal(4)) if j == k else zero() for k in range(2)]
            for j in range(2)
        ]
        op = bl.build(bl.MultiplierMatrix.from_polys(diag), B, -1.0, M, D)
        assert hyperinvariance_check(P, op) < 1e-7


class TestSafeBlockDefects:
    """projection_defects and hyperinvariance_check form only the safe
    block; the oracle forms the full products and then slices it."""

    @staticmethod
    def projections():
        D = 128
        # spread over the whole window, so the safe block couples to the rest
        basis = [TaylorPoly(0.9 ** np.arange(D + 1)), TaylorPoly(np.cos(np.arange(D - 20)) + 0.2j)]
        return [
            bl.monomial_reducing_projection(2, 1, -1.0, D),
            bl.mobius_power_reducing_projection(0.8, 2, 0, D),
            bl.mobius_power_reducing_projection(0.8, 2, 1, D),
            bl.projection_from_basis(basis, 0.5, D),
        ]

    def test_projection_defects_equal_full_product_slice(self):
        for P in self.projections():
            m, w, D_safe = P.entries, P.alpha, safe_degree(P.degree)
            adj = bl.weighted_adjoint(P).entries
            ref = (operator_norm_safe(m @ m - m, w, D_safe), operator_norm_safe(m - adj, w, D_safe))
            for got, want in zip(bl.projection_defects(P), ref):
                assert abs(got - want) <= 1e-14 * max(1.0, want)

    def test_hyperinvariance_equals_full_product_slice(self, B2, rng):
        for P in self.projections():
            m, w, D = P.entries, P.alpha, P.degree
            phi = bl.MultiplierMatrix(rng.standard_normal((3, 2, 2)))
            for W in (bl.build(phi, B2, w, D // 2, D).realization.entries, rng.standard_normal((D + 1, D + 1))):
                ref = operator_norm_safe((np.eye(D + 1) - m) @ W @ m, w, safe_degree(D))
                got = hyperinvariance_check(P, bl.OperatorMatrix(W, w))
                assert abs(got - ref) <= 1e-14 * max(1.0, ref)


class TestMonomialLattice:
    def test_parity_projections_are_the_only_diagonal_survivors(self):
        # exhaustive over 0/1 diagonals at D = 20 on the full window, not
        # only the safe block: the commutator norms are formed here whole.
        # For diagonal P the commutator entries are (p_i - p_j) T_ij, and
        # both T_B = S^2 and its weighted adjoint carry order-one entries on
        # |i - j| = 2, so any parity violation leaves a residual far above
        # threshold; survivors are exactly the four parity patterns.
        D = 20
        B = bl.BlaschkeProduct.monomial(2)
        n_patterns = 2 ** (D + 1)
        bits = (np.arange(n_patterns)[:, None] >> np.arange(D + 1)[None, :]) & 1
        violations = (bits[:, 2:] != bits[:, :-2]).any(axis=1)
        survivors = np.nonzero(~violations)[0]
        assert len(survivors) == 4

        TB = bl.OperatorMatrix(B.toeplitz(D), -1.0)
        sections = (TB.entries, bl.weighted_adjoint(TB).entries)

        def residual_of(mask):
            m = np.diag(mask.astype(complex))
            return max(operator_norm_safe(m @ T - T @ m, -1.0, D) for T in sections)

        for idx in survivors:
            assert residual_of(bits[idx]) < 1e-10
        rng = np.random.default_rng(5)
        sample = rng.choice(np.nonzero(violations)[0], size=200, replace=False)
        for idx in sample:
            assert residual_of(bits[idx]) > 1e-10
