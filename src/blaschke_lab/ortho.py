"""Orthogonal decompositions driven by the range filtration of T_B.

X_k is the alpha-orthogonal complement of B^(k+1) A inside B^k A; each block
has dimension N = deg B and T_B shifts the chain upward. Commutant elements
are block lower triangular against this chain, and self-adjoint ones are
block diagonal. Dividing B^k back out of X_k recovers the K_k spaces of the
non-orthogonal expansion A = K_0 + B K_1 + B^2 K_2 + ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import wold
from .blaschke import BlaschkeProduct
from .errors import ConditioningError, NotSelfAdjointError
from .spaces import (
    OperatorMatrix,
    TaylorPoly,
    WeightAlpha,
    as_weight,
    operator_norm_safe,
    safe_degree,
    weighted_adjoint,
)

__all__ = [
    "XSpaceChain",
    "x_spaces",
    "k_spaces",
    "block_matrix",
    "selfadjoint_block_check",
    "SelfAdjointReport",
]


@dataclass(frozen=True)
class XSpaceChain:
    """Orthonormal bases (under the stored weight) of X_0 .. X_kmax."""

    B: BlaschkeProduct
    alpha: WeightAlpha
    blocks: tuple[tuple[TaylorPoly, ...], ...]
    kmax: int
    degree: int

    @property
    def block_dim(self) -> int:
        return len(self.blocks[0])

    def block_matrix_stack(self) -> np.ndarray:
        """Blocks as an (kmax+1, D+1, N) array of coefficient columns."""
        return np.stack(
            [np.stack([v.coeffs for v in blk], axis=1) for blk in self.blocks]
        )


def x_spaces(B: BlaschkeProduct, w: WeightAlpha | float, kmax: int, D: int) -> XSpaceChain:
    """Compute the chain X_0, ..., X_kmax at truncation degree D.

    For every weight, the alpha-orthogonal complement of B^(k+1) A is
    Lambda^(-1) K_(B^(k+1)), with Lambda = diag(lambda_m) and the model space
    K_(B^(k+1)) = K_B + B K_B + ... + B^k K_B spanned by the shell cells
    u_j B^i, i <= k. In weighted coordinates (sqrt(lambda) f) these
    complements are the nested column prefixes of Lambda^(-1/2) E, E the
    cells of shells 0..kmax of shell_frame(B, kmax, D). One thin QR of that
    (D+1) x (kmax+1)N matrix orthonormalises the prefixes in order, so block
    k of Q spans X_k, the complement of B^(k+1) A minus that of B^k A.
    Accuracy is limited by the cells' tails past D, never by a rank decision.
    """
    w = as_weight(w)
    N = B.degree
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if D < (kmax + 3) * N:
        raise ValueError(f"D = {D} too small for kmax = {kmax} (need >= {(kmax + 3) * N})")
    sq = np.sqrt(w.diagonal(D))
    Q, _ = np.linalg.qr(wold.shell_frame(B, kmax, D).cells(kmax) / sq[:, None])
    X = (Q / sq[:, None]).T
    blocks = tuple(tuple(TaylorPoly(x) for x in X[k * N : (k + 1) * N]) for k in range(kmax + 1))
    return XSpaceChain(B=B, alpha=w, blocks=blocks, kmax=kmax, degree=D)


#: least-squares residual above which k_spaces refuses to divide by B^k.
_KSPACE_RESIDUAL_TOL = 1e-6


def k_spaces(chain: XSpaceChain) -> list[list[TaylorPoly]]:
    """Recover K_k from X_k by dividing out B^k: solve T_B^k g = x in least
    squares for each block vector x. K_0 equals X_0 identically."""
    D = chain.degree
    w = chain.alpha
    sq = np.sqrt(w.diagonal(D))
    N = chain.B.degree
    TB = chain.B.toeplitz(D)
    out = []
    TBk = np.eye(D + 1, dtype=complex)
    for k, blk in enumerate(chain.blocks):
        if k > 0:
            TBk = TBk @ TB
        if k == 0:
            out.append(list(blk))
            continue
        m_max = D - (k + 1) * N
        A = (sq[:, None] * TBk)[:, : m_max + 1]
        X = sq[:, None] * np.stack([x.coeffs for x in blk], axis=1)
        G, *_ = np.linalg.lstsq(A, X, rcond=None)
        for res in np.linalg.norm(A @ G - X, axis=0):
            if res > _KSPACE_RESIDUAL_TOL:
                raise ConditioningError(
                    f"division by B^{k} left residual {res:.3e} (> {_KSPACE_RESIDUAL_TOL:.1e})"
                )
        full = np.zeros((D + 1, N), dtype=complex)
        full[: m_max + 1] = G
        out.append([TaylorPoly(g) for g in full.T])
    return out


def block_matrix(W: OperatorMatrix, chain: XSpaceChain) -> np.ndarray:
    """Array of blocks <W x_k, x_l>_alpha, shape (kmax+1, kmax+1, N, N);
    index [l, k] holds the (target l, source k) block."""
    if W.degree != chain.degree:
        raise ValueError("operator and chain degrees differ")
    D = chain.degree
    lam = chain.alpha.diagonal(D)
    S = np.hstack(chain.block_matrix_stack())  # (D+1, K N), block k in columns kN..
    K = chain.kmax + 1
    N = chain.block_dim
    G = S.conj().T @ (lam[:, None] * (W.entries @ S))
    return G.reshape(K, N, K, N).transpose(0, 2, 1, 3)


class SelfAdjointReport(NamedTuple):
    off_diag_max: float
    block_defect_max: float
    input_defect: float


#: safe-block self-adjointness defect above which selfadjoint_block_check
#: rejects its input.
_SELFADJOINT_TOL = 1e-8


def selfadjoint_block_check(W: OperatorMatrix, chain: XSpaceChain) -> SelfAdjointReport:
    """For self-adjoint W: off-diagonal blocks should vanish and diagonal
    blocks should be Hermitian. Rejects inputs whose safe-block
    self-adjointness defect exceeds _SELFADJOINT_TOL (1e-8)."""
    D = chain.degree
    D_safe = safe_degree(D)
    defect_mat = W.entries - weighted_adjoint(W, chain.alpha).entries
    input_defect = operator_norm_safe(defect_mat, chain.alpha, D_safe)
    if input_defect > _SELFADJOINT_TOL:
        raise NotSelfAdjointError(
            f"input self-adjointness defect {input_defect:.3e} exceeds {_SELFADJOINT_TOL:.1e}"
        )
    blocks = block_matrix(W, chain)
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
