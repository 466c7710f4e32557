import functools
from typing import NamedTuple

import numpy as np
import pytest

import blaschke_lab as bl
from blaschke_lab.cli import parse_config, run
from blaschke_lab import wold
from blaschke_lab.errors import BlaschkeLabError, ConditioningError, DimensionMismatchError
from blaschke_lab.spaces import OperatorMatrix, TaylorPoly, operator_norm_safe, safe_degree, weighted_adjoint
from conftest import identity

PRODUCTS = {
    "B2": bl.BlaschkeProduct(0.0, [0.5, -0.3]),
    "B3": bl.BlaschkeProduct(0.0, [0.5, -0.3 + 0.2j, 0.1]),
    "double0.6": bl.BlaschkeProduct(0.0, [(0.6, 2)]),
    "near_rho_max": bl.BlaschkeProduct(0.0, [0.8, -0.79j]),
}


def blocks(chain):
    """[X_0, ..., X_kmax]: block k of the chain as its (D+1) x N columns."""
    N = chain.block_dim
    return [chain.X[:, k * N : (k + 1) * N] for k in range(chain.kmax + 1)]


def alpha_gram(A, Bm, alpha, D):
    lam = (np.arange(D + 1) + 1.0) ** alpha
    return A.conj().T @ (lam[:, None] * Bm)


def power_columns(B, k, m_max, D):
    """Columns B^k z^m, m = 0..m_max, truncated at D, one column at a time."""
    bk = B.power_list(k, D)[k].coeffs
    cols = np.zeros((D + 1, m_max + 1), dtype=complex)
    for m in range(m_max + 1):
        cols[m:, m] = bk[: D + 1 - m]
    return cols


def x_spaces_by_residual_svd(B, alpha, kmax, D):
    """Reference chain: reduced QR of every range, the full-size residual
    Q_k - Q_(k+1) Q_(k+1)^H Q_k, and its full SVD. Returns weighted-coordinate
    block ONBs and the singular values of each residual."""
    N, guard = B.degree, B.degree
    sq = np.sqrt((np.arange(D + 1) + 1.0) ** alpha)
    onbs = [
        np.linalg.qr(sq[:, None] * power_columns(B, k, D - k * N - guard, D))[0]
        for k in range(kmax + 2)
    ]
    blocks, svals = [], []
    for k in range(kmax + 1):
        resid = onbs[k] - onbs[k + 1] @ (onbs[k + 1].conj().T @ onbs[k])
        U, s, _ = np.linalg.svd(resid)
        blocks.append(U[:, :N])
        svals.append(s)
    return blocks, svals


@functools.lru_cache(maxsize=None)
def residual_svd_reference(name, alpha, kmax, D_ref=256):
    return x_spaces_by_residual_svd(PRODUCTS[name], alpha, kmax, D_ref)


def weighted_stack(cols, alpha, D):
    sq = np.sqrt((np.arange(D + 1) + 1.0) ** alpha)
    return sq[:, None] * cols


def projector(Q):
    return Q @ Q.conj().T


class TestXSpaces:
    def test_monomial_blocks_are_monomial_spans(self):
        N, D, kmax = 2, 60, 4
        chain = bl.x_spaces(bl.BlaschkeProduct.monomial(N), -1.0, kmax, D)
        for k, blk in enumerate(blocks(chain)):
            support = set(np.nonzero(np.abs(blk) > 1e-12)[0])
            assert support == {k * N, k * N + 1}

    def test_block_zero_orthogonal_to_b_times_everything(self, B2):
        D = 120
        chain = bl.x_spaces(B2, -1.0, 0, D)
        lam = (np.arange(D + 1) + 1.0) ** -1.0
        TB = bl.toeplitz_matrix(B2.taylor(D), D, -1.0)
        worst = 0.0
        for v in blocks(chain)[0].T:
            for m in range(bl.safe_degree(D) + 1):
                worst = max(worst, abs(np.sum(v * np.conj(TB.entries[:, m]) * lam)))
        assert worst < 1e-9

    def test_mobius_power_block_zero_is_kernel_span(self):
        # B = single-factor squared at a = 0.5; block 0 matches the
        # derivative-kernel span {1/(1-0.5z)^2, z/(1-0.5z)^3}
        a, D = 0.5, 120
        B = bl.BlaschkeProduct(0.0, [(a, 2)])
        chain = bl.x_spaces(B, -1.0, 0, D)
        k = np.arange(D + 1)
        g0 = (k + 1.0) * a**k
        g1 = np.zeros(D + 1)
        g1[1:] = np.array([(i + 1) * (i + 2) / 2 for i in range(D)]) * a ** np.arange(D)
        lam = (k + 1.0) ** -1.0
        sq = np.sqrt(lam)
        Q1, _ = np.linalg.qr(sq[:, None] * np.stack([g0, g1], axis=1).astype(complex))
        Q2 = sq[:, None] * blocks(chain)[0]
        s = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
        angles = np.arccos(np.clip(s, 0, 1))
        assert np.max(angles) < 1e-6

    def test_blocks_mutually_orthogonal(self, B2):
        D, kmax = 120, 5
        chain = bl.x_spaces(B2, -1.0, kmax, D)
        for k in range(kmax + 1):
            for l in range(k + 1, kmax + 1):
                G = alpha_gram(blocks(chain)[k], blocks(chain)[l], -1.0, D)
                assert np.max(np.abs(G)) < 1e-9

    def test_rejects_kmax_beyond_window(self, B2):
        with pytest.raises(ValueError):
            bl.x_spaces(B2, -1.0, 14, 30)

    def test_rejects_negative_kmax(self, B2):
        with pytest.raises(ValueError, match=r"^kmax must be >= 0, got -1$"):
            bl.x_spaces(B2, -1.0, -1, 64)

    def test_reads_the_memoized_shell_frame(self, B2, monkeypatch):
        D = 96
        frame = wold.shell_frame(B2, 10, D)

        def no_new_cells(*args):
            raise AssertionError("x_spaces built cells the frame already holds")

        monkeypatch.setattr(wold, "cell_matrix", no_new_cells)
        monkeypatch.setattr(wold, "_continue_cells", no_new_cells)
        chain = bl.x_spaces(B2, -1.0, 3, D)
        assert np.shares_memory(wold.shell_frame(B2, 10, D), frame)
        assert chain.block_dim == B2.degree

    def test_cumulative_dimension(self, B2):
        D, kmax = 120, 4
        chain = bl.x_spaces(B2, -1.0, kmax, D)
        assert chain.X.shape == (D + 1, (kmax + 1) * B2.degree)
        assert [b.shape[1] for b in blocks(chain)] == [B2.degree] * (kmax + 1)
        assert (chain.kmax, chain.degree) == (kmax, D)  # read off the shape of X

    def test_completeness_monomial(self):
        # union of blocks spans the monomials below (kmax+1) N
        N, D, kmax = 2, 60, 4
        chain = bl.x_spaces(bl.BlaschkeProduct.monomial(N), -1.0, kmax, D)
        lam = (np.arange(D + 1) + 1.0) ** -1.0
        sq = np.sqrt(lam)
        Q = sq[:, None] * chain.X
        target = np.zeros((D + 1, (kmax + 1) * N))
        for m in range((kmax + 1) * N):
            target[m, m] = 1.0
        Qt, _ = np.linalg.qr(sq[:, None] * target.astype(complex))
        # sine of the largest principal angle (arccos floors out at ~1e-8)
        resid = Qt - Q @ (Q.conj().T @ Qt)
        assert np.linalg.norm(resid, 2) < 1e-8

    def test_codimension_of_b_range(self, B2):
        # the truncated column span of {B z^m} has codimension N
        D = 80
        guard = B2.degree
        m_max = D - B2.degree - guard
        TB = bl.toeplitz_matrix(B2.taylor(D), D, -1.0)
        cols = TB.entries[:, : m_max + 1]
        full = D - guard + 1
        rank = np.linalg.matrix_rank(cols, tol=1e-8)
        assert full - rank == B2.degree

    # the principal-vector split of the ranges needs a complete QR per block,
    # so the reference is built at D_ref = 256 only, where every product's
    # cells fit; a chain at D < D_ref is held to the reference cut to degree D,
    # which it matches up to the reference's weighted mass past D
    @pytest.mark.parametrize("D", [48, 128, 256])
    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.0, 1.0])
    @pytest.mark.parametrize("name", list(PRODUCTS))
    def test_equals_residual_svd(self, name, alpha, D):
        B, kmax = PRODUCTS[name], 3
        ref_blocks, svals = residual_svd_reference(name, alpha, kmax)
        N = B.degree
        for s in svals:  # the reference found exactly N complement directions
            assert s[N - 1] > 1.0 - 1e-6 and s[N] < 0.9
        tail = np.linalg.norm(np.hstack(ref_blocks)[D + 1 :], 2)
        chain = bl.x_spaces(B, alpha, kmax, D)
        for ref, blk in zip(ref_blocks, blocks(chain), strict=True):
            got = projector(weighted_stack(blk, alpha, D))
            assert np.max(np.abs(got - projector(ref[: D + 1]))) <= tail + 1e-12

    @pytest.mark.parametrize("alpha", [-2.0, -1.0, 0.0, 1.0])
    @pytest.mark.parametrize("name", list(PRODUCTS))
    def test_equals_large_window_chain(self, name, alpha):
        # the chain at D against a D_ref = 1024 chain cut to degree D: they
        # differ by less than the reference's weighted mass past D, which at
        # D = 128 is below 1e-7 even next to rho_max
        B, D_ref, kmax = PRODUCTS[name], 1024, 3
        ref = bl.x_spaces(B, alpha, kmax, D_ref).X
        ref = ref * np.sqrt((np.arange(D_ref + 1) + 1.0) ** alpha)[:, None]
        N = B.degree
        for D in (48, 96, 128):
            chain = bl.x_spaces(B, alpha, kmax, D)
            tail = np.linalg.norm(ref[D + 1 :], 2)
            worst = max(
                np.max(np.abs(projector(weighted_stack(blk, alpha, D)) - projector(ref[: D + 1, k * N : (k + 1) * N])))
                for k, blk in enumerate(blocks(chain))
            )
            assert worst <= tail + 1e-15, f"D = {D}"
        assert worst <= 1e-12

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("name", ["B2", "B3"])
    def test_blocks_in_range_and_orthogonal_to_next(self, name, alpha):
        B, D, kmax = PRODUCTS[name], 128, 3
        N = B.degree
        sq = np.sqrt((np.arange(D + 1) + 1.0) ** alpha)
        chain = bl.x_spaces(B, alpha, kmax, D)
        for k, blk in enumerate(blocks(chain)):
            X = weighted_stack(blk, alpha, D)
            here = sq[:, None] * power_columns(B, k, D - k * N - N, D)
            Q, _ = np.linalg.qr(here)
            assert np.linalg.norm(X - Q @ (Q.conj().T @ X), 2) < 1e-12
            nxt = sq[:, None] * power_columns(B, k + 1, D - (k + 1) * N - N, D)
            assert np.max(np.abs(nxt.conj().T @ X)) < 1e-12


#: least-squares residual above which k_spaces refuses to divide by B^k.
_KSPACE_RESIDUAL_TOL = 1e-6


def k_spaces(chain: bl.XSpaceChain) -> list[np.ndarray]:
    """Recover K_k from X_k by dividing out B^k: solve T_B^k g = x in least
    squares for each block vector x, a column of the result. K_0 equals X_0
    identically."""
    D = chain.degree
    w = chain.alpha
    sq = np.sqrt(w.diagonal(D))
    N = chain.B.degree
    TB = chain.B.toeplitz(D)
    out = []
    TBk = np.eye(D + 1, dtype=complex)
    for k, blk in enumerate(blocks(chain)):
        if k > 0:
            TBk = TBk @ TB
        if k == 0:
            out.append(blk)
            continue
        m_max = D - (k + 1) * N
        A = (sq[:, None] * TBk)[:, : m_max + 1]
        X = sq[:, None] * blk
        G, *_ = np.linalg.lstsq(A, X, rcond=None)
        for res in np.linalg.norm(A @ G - X, axis=0):
            if res > _KSPACE_RESIDUAL_TOL:
                raise ConditioningError(
                    f"division by B^{k} left residual {res:.3e} (> {_KSPACE_RESIDUAL_TOL:.1e})"
                )
        full = np.zeros((D + 1, N), dtype=complex)
        full[: m_max + 1] = G
        out.append(full)
    return out


class TestKSpaces:
    def test_k0_is_x0(self, B2):
        chain = bl.x_spaces(B2, -1.0, 2, 100)
        ks = k_spaces(chain)
        assert np.max(np.abs(ks[0] - blocks(chain)[0])) < 1e-14

    def test_monomial_k_spaces_are_low_monomials(self):
        N, D = 2, 60
        chain = bl.x_spaces(bl.BlaschkeProduct.monomial(N), -1.0, 3, D)
        ks = k_spaces(chain)
        for basis in ks:
            assert np.max(np.abs(basis[N:])) < 1e-10

    def test_division_roundtrip(self, B2):
        D, kmax = 120, 4
        chain = bl.x_spaces(B2, -1.0, kmax, D)
        ks = k_spaces(chain)
        lam = (np.arange(D + 1) + 1.0) ** -1.0
        TB = bl.toeplitz_matrix(B2.taylor(D), D, -1.0).entries
        for k in range(kmax + 1):
            TBk = np.linalg.matrix_power(TB, k)
            diff = TBk @ ks[k] - blocks(chain)[k]
            assert np.max(np.sqrt(lam @ np.abs(diff) ** 2)) < 1e-8

    def test_residual_check_names_the_power(self, B2, monkeypatch):
        chain = bl.x_spaces(B2, -1.0, 2, 100)
        monkeypatch.setitem(globals(), "_KSPACE_RESIDUAL_TOL", 1e-30)
        with pytest.raises(ConditioningError, match=r"^division by B\^1 left residual .* \(> 1\.0e-30\)$"):
            k_spaces(chain)


def block_matrix_by_loop(W, chain):
    lam = chain.alpha.diagonal(chain.degree)
    stacks = blocks(chain)
    K = chain.kmax + 1
    out = np.empty((K, K, chain.block_dim, chain.block_dim), dtype=complex)
    for k in range(K):
        img = W.entries @ stacks[k]
        for l in range(K):
            out[l, k] = stacks[l].conj().T @ (lam[:, None] * img)
    return out


class TestBlockMatrix:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("name", ["B2", "B3"])
    def test_equals_block_loop(self, name, alpha, rng):
        B, D = PRODUCTS[name], 96
        chain = bl.x_spaces(B, alpha, 3, D)
        W = bl.OperatorMatrix(rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1)), alpha)
        assert np.max(np.abs(bl.block_matrix(W, chain) - block_matrix_by_loop(W, chain))) < 1e-13

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("name", ["B2", "B3"])
    def test_orthogonality_check_equals_block_loop(self, name, alpha):
        B, D, kmax = PRODUCTS[name], 96, 3
        cfg = {"B": B.to_json(), "alpha": alpha, "degree": D, "seed": 0, "inputs": {"kmax": kmax}}
        rec = {r.name: r for r in run(parse_config(cfg, "ortho")).records}["ortho/block_orthogonality"]
        blocks = block_matrix_by_loop(identity(D, alpha), bl.x_spaces(B, alpha, kmax, D))
        worst = max(np.max(np.abs(blocks[l, k])) for k in range(kmax + 1) for l in range(k + 1, kmax + 1))
        assert abs(rec.residual - worst) < 1e-13

    def test_weight_must_be_the_chains(self, B2):
        # W is read in the chain's inner product: a section of another weight is an error
        chain = bl.x_spaces(B2, -1.0, 3, 64)
        with pytest.raises(DimensionMismatchError, match=r"^operator alpha 0\.0 differs from the chain's alpha -1\.0$"):
            bl.block_matrix(OperatorMatrix(B2.toeplitz(64), 0.0), chain)
        assert bl.block_matrix(OperatorMatrix(B2.toeplitz(64), -1.0), chain).shape == (4, 4, 2, 2)

    def test_identity_blocks(self, B2):
        D = 100
        chain = bl.x_spaces(B2, -1.0, 3, D)
        blocks = bl.block_matrix(identity(D, -1.0), chain)
        N = B2.degree
        for k in range(4):
            for l in range(4):
                expect = np.eye(N) if k == l else np.zeros((N, N))
                assert np.max(np.abs(blocks[l, k] - expect)) < 1e-9

    def test_tb_is_subdiagonal_band(self, B2):
        D = 120
        kmax = 4
        chain = bl.x_spaces(B2, -1.0, kmax, D)
        TB = bl.toeplitz_matrix(B2.taylor(D), D, -1.0)
        blocks = bl.block_matrix(TB, chain)
        for k in range(kmax + 1):
            for l in range(kmax + 1):
                if l <= k:  # everything at or above the source index vanishes
                    assert np.max(np.abs(blocks[l, k])) < 1e-8

    def test_built_commutant_lower_triangular(self, B2, rng):
        D, kmax = 120, 5
        chain = bl.x_spaces(B2, -1.0, kmax, D)
        phi = bl.MultiplierMatrix.from_polys(
            [[TaylorPoly(rng.standard_normal(5) + 1j * rng.standard_normal(5)) for _ in range(2)] for _ in range(2)]
        )
        op = bl.build(phi, B2, -1.0, D // 2, D)
        blocks = bl.block_matrix(op.realization, chain)
        for k in range(kmax + 1):
            for l in range(k):
                assert np.max(np.abs(blocks[l, k])) < 1e-7

    @pytest.mark.parametrize("D", [64, 256])
    @pytest.mark.parametrize("name", ["B2", "B3"])
    def test_element_read_through_its_factors_equals_block_loop(self, name, D, rng):
        # S^H Lambda Z (E^H S) against the loop over the dense realization Z E^H
        B = PRODUCTS[name]
        chain = bl.x_spaces(B, -1.0, 3, D)
        phi = bl.MultiplierMatrix(rng.standard_normal((5, B.degree, B.degree)) + 1j * rng.standard_normal((5, B.degree, B.degree)))
        op = bl.build(phi, B, -1.0, wold.shell_count(B, D), D)
        assert np.max(np.abs(bl.block_matrix(op, chain) - block_matrix_by_loop(op.realization, chain))) < 1e-13


class NotSelfAdjointError(BlaschkeLabError):
    """Self-adjoint block analysis requested for a non-self-adjoint operator."""


class SelfAdjointReport(NamedTuple):
    off_diag_max: float
    block_defect_max: float
    input_defect: float


#: safe-block self-adjointness defect above which selfadjoint_block_check
#: rejects its input.
_SELFADJOINT_TOL = 1e-8


def selfadjoint_block_check(W: OperatorMatrix, chain: bl.XSpaceChain) -> SelfAdjointReport:
    """For self-adjoint W: off-diagonal blocks should vanish and diagonal
    blocks should be Hermitian. Rejects inputs whose safe-block
    self-adjointness defect exceeds _SELFADJOINT_TOL (1e-8)."""
    D = chain.degree
    D_safe = safe_degree(D)
    defect_mat = W.entries - weighted_adjoint(OperatorMatrix(W.entries, chain.alpha)).entries
    input_defect = operator_norm_safe(defect_mat, chain.alpha, D_safe)
    if input_defect > _SELFADJOINT_TOL:
        raise NotSelfAdjointError(
            f"input self-adjointness defect {input_defect:.3e} exceeds {_SELFADJOINT_TOL:.1e}"
        )
    blocks = bl.block_matrix(W, chain)
    K = chain.kmax + 1
    off = 0.0
    herm = 0.0
    for l in range(K):
        for k in range(K):
            nrm = float(np.linalg.norm(blocks[l, k], 2))
            if l != k:
                off = max(off, nrm)
            else:
                herm = max(
                    herm, float(np.linalg.norm(blocks[l, k] - blocks[l, k].conj().T, 2))
                )
    return SelfAdjointReport(off_diag_max=off, block_defect_max=herm, input_defect=input_defect)


class TestSelfAdjointCheck:
    def test_identity(self, B2):
        chain = bl.x_spaces(B2, -1.0, 3, 100)
        rep = selfadjoint_block_check(identity(100, -1.0), chain)
        assert rep.off_diag_max < 1e-12
        assert rep.block_defect_max < 1e-12

    def test_parity_projection_for_z2(self):
        D = 80
        B = bl.BlaschkeProduct.monomial(2)
        chain = bl.x_spaces(B, -1.0, 3, D)
        P = bl.monomial_reducing_projection(2, 0, -1.0, D)
        rep = selfadjoint_block_check(P, chain)
        assert rep.off_diag_max < 1e-9
        assert rep.block_defect_max < 1e-10

    def test_shift_rejected(self, B2):
        D = 100
        chain = bl.x_spaces(B2, -1.0, 3, D)
        TB = bl.toeplitz_matrix(B2.taylor(D), D, -1.0)
        with pytest.raises(NotSelfAdjointError):
            selfadjoint_block_check(TB, chain)


def test_shift_maps_blocks_upward(B2):
    # T_B X_k lies in B^(k+1) A, orthogonal to X_0, ..., X_k
    D, kmax = 120, 4
    chain = bl.x_spaces(B2, -1.0, kmax, D)
    lam = (np.arange(D + 1) + 1.0) ** -1.0
    sq = np.sqrt(lam)
    TB = bl.toeplitz_matrix(B2.taylor(D), D, -1.0).entries
    TBw = sq[:, None] * TB / sq[None, :]
    for k in range(kmax):
        img = TBw @ weighted_stack(blocks(chain)[k], -1.0, D)
        below = weighted_stack(chain.X[:, : (k + 1) * B2.degree], -1.0, D)
        assert np.linalg.norm(below.conj().T @ img, 2) < 1e-8
