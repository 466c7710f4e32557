"""Orthogonal decompositions driven by the range filtration of T_B.

X_k is the alpha-orthogonal complement of B^(k+1) A inside B^k A; each block
has dimension N = deg B and T_B shifts the chain upward. Commutant elements
are block lower triangular against this chain, and self-adjoint ones are
block diagonal; block_matrix reads both off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wold
from .blaschke import BlaschkeProduct
from .commutant import CommutantOperator
from .errors import DimensionMismatchError
from .spaces import OperatorMatrix, WeightAlpha, _freeze, as_weight

__all__ = ["XSpaceChain", "x_spaces", "block_matrix"]


@dataclass(frozen=True, eq=False)
class XSpaceChain:
    """Orthonormal bases (under the stored weight) of X_0 .. X_kmax as the
    columns of one read-only (D+1) x (kmax+1)N array X: block k, the basis
    of X_k, is columns kN..(k+1)N-1."""

    B: BlaschkeProduct
    alpha: WeightAlpha
    X: np.ndarray

    @property
    def block_dim(self) -> int:
        return self.B.degree

    @property
    def kmax(self) -> int:
        return self.X.shape[1] // self.block_dim - 1

    @property
    def degree(self) -> int:
        return self.X.shape[0] - 1


def x_spaces(B: BlaschkeProduct, w: WeightAlpha | float, kmax: int, D: int) -> XSpaceChain:
    """Compute the chain X_0, ..., X_kmax at truncation degree D.

    For every weight, the alpha-orthogonal complement of B^(k+1) A is
    Lambda^(-1) K_(B^(k+1)), with Lambda = diag(lambda_m) and the model space
    K_(B^(k+1)) = K_B + B K_B + ... + B^k K_B spanned by the shell cells
    u_j B^i, i <= k. In weighted coordinates (sqrt(lambda) f) these
    complements are the nested column prefixes of Lambda^(-1/2) E, E the
    cells shell_frame(B, kmax, D) of shells 0..kmax. One thin QR of that
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
    Q, _ = np.linalg.qr(wold.shell_frame(B, kmax, D) / sq[:, None])
    return XSpaceChain(B=B, alpha=w, X=_freeze(Q / sq[:, None]))


def block_matrix(W: OperatorMatrix | CommutantOperator, chain: XSpaceChain) -> np.ndarray:
    """Array of blocks <W x_k, x_l>_alpha, shape (kmax+1, kmax+1, N, N);
    index [l, k] holds the (target l, source k) block. W must carry the
    chain's window and weight. W is read through the thin product W S with
    the chain's bases S, so an element gives S^H Lambda Z (E^H S)."""
    if W.degree != chain.degree:
        raise ValueError("operator and chain degrees differ")
    if W.alpha != chain.alpha:
        raise DimensionMismatchError(f"operator alpha {W.alpha.alpha} differs from the chain's alpha {chain.alpha.alpha}")
    D = chain.degree
    lam = chain.alpha.diagonal(D)
    S, K, N = chain.X, chain.kmax + 1, chain.block_dim
    G = S.conj().T @ (lam[:, None] * W.apply(S))
    return G.reshape(K, N, K, N).transpose(0, 2, 1, 3)
