"""Commutant of T_B realized as n x n matrices of polynomial multipliers.

A matrix Phi = (phi_jk) of polynomials acts on the shell components of a
function; conjugating that action by the shell isomorphism realizes an
operator commuting with T_B, held as its factors: the images of the shell
cells and the cells themselves. Polynomial entries are multipliers of every
weighted space, which keeps the construction weight-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blaschke import BlaschkeProduct, model_basis
from .errors import NotInCommutantError
from .spaces import (
    OperatorMatrix, TaylorPoly, WeightAlpha, _commutator_block, _freeze, _readonly, as_weight, operator_norm_safe,
    safe_degree,
)
from .wold import _shell_coordinates, shell_frame

__all__ = [
    "MultiplierMatrix",
    "CommutantOperator",
    "build",
    "extract_symbols",
    "symbols_to_matrix",
    "commutation_residual",
    "cowen_residual",
]

#: max entry degree a MultiplierMatrix accepts from its caller.
_MAX_SYMBOL_DEGREE = 64


@dataclass(frozen=True, eq=False)
class MultiplierMatrix:
    """Square array of polynomial multipliers phi_jk = sum_t coeffs[t, j, k] z^t,
    held as one read-only (T + 1) x n x n array: coeffs[t] is the t-th
    coefficient matrix of Phi and T its entry degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or 0 in c.shape or c.shape[1] != c.shape[2]:
            raise ValueError("multiplier coefficients must be a nonempty (T + 1) x n x n array with n >= 1")
        object.__setattr__(self, "coeffs", _freeze(c))

    @classmethod
    def from_polys(cls, entries: Sequence[Sequence[TaylorPoly]]) -> "MultiplierMatrix":
        """The matrix of nested rows of TaylorPoly entries, each zero-padded to
        the largest entry degree, which is capped at _MAX_SYMBOL_DEGREE: the
        cap guards config and user input, not matrices the library computes."""
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("multiplier matrix must be square")
        T = max((e.degree for row in entries for e in row), default=0)
        if T > _MAX_SYMBOL_DEGREE:
            raise ValueError(f"entry degree {T} exceeds the multiplier degree cap {_MAX_SYMBOL_DEGREE}")
        c = np.zeros((T + 1, n, n), dtype=complex)
        for j, row in enumerate(entries):
            for k, e in enumerate(row):
                c[: e.degree + 1, j, k] = e.coeffs
        return cls(_readonly(c))

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def max_entry_degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __sub__(self, other: "MultiplierMatrix") -> "MultiplierMatrix":
        T = max(self.max_entry_degree, other.max_entry_degree)
        a, b = (np.pad(m.coeffs, ((0, T - m.max_entry_degree), (0, 0), (0, 0))) for m in (self, other))
        return MultiplierMatrix(_readonly(a - b))


@dataclass(frozen=True, eq=False)
class CommutantOperator:
    """A commutant element held as its factors W = Z E^H: the read-only
    images Z of the cells under Phi (see _cell_images) and the cells E of
    shells 0..M, a view of the memoized shell frame. It carries the ambient
    weight and the window D of E. Readers ask it for rows of W or for a thin
    product W X; the dense W is formed only when realization is read."""

    phi: MultiplierMatrix
    B: BlaschkeProduct
    alpha: WeightAlpha
    images: np.ndarray
    cells: np.ndarray

    @property
    def degree(self) -> int:
        return self.cells.shape[0] - 1

    def rows(self, k: int) -> np.ndarray:
        """Rows 0..k-1 of W, Z[:k] E^H."""
        return self.images[:k] @ self.cells.conj().T

    def apply(self, X: np.ndarray) -> np.ndarray:
        """W X = Z (E^H X), with E^H X formed without a conjugate copy of E."""
        return self.images @ (self.cells.T @ X.conj()).conj()

    def apply_left(self, X: np.ndarray) -> np.ndarray:
        """X W = (X Z) E^H, for a thin X."""
        return (X @ self.images) @ self.cells.conj().T

    @cached_property
    def realization(self) -> OperatorMatrix:
        """The dense (D+1) x (D+1) section Z E^H, formed on first read."""
        return OperatorMatrix(_readonly(self.rows(self.degree + 1)), self.alpha)

    @cached_property
    def residual(self) -> float:
        """commutation_residual of the element, computed once."""
        return commutation_residual(self, self.B)


def _cell_images(phi: MultiplierMatrix, E_out: np.ndarray) -> np.ndarray:
    """The images Z_r = sum_t E_(r+t) P_t of the cells u_k B^r under Phi, in
    cell order (column r * n + k), from the cells E_out of shells 0..M + T:
    E_s is the n-column block of shell s, P_t the t-th coefficient matrix of
    Phi and T its entry degree. One batched product of the stacked P_t
    against the windows of (T + 1) n columns that start at each shell."""
    n, T, P = phi.n, phi.max_entry_degree, phi.coeffs
    windows = sliding_window_view(E_out, (T + 1) * n, axis=1)[:, ::n]  # [i, r, t*n + j]
    Z = np.empty((E_out.shape[0], windows.shape[1], n), dtype=complex)
    np.matmul(windows.transpose(1, 0, 2), P.reshape(-1, n), out=Z.transpose(1, 0, 2))
    return Z.reshape(E_out.shape[0], -1)


def build(phi: MultiplierMatrix, B: BlaschkeProduct, w: WeightAlpha | float, M: int, D: int) -> CommutantOperator:
    """The commutant element of Phi, as its factors.

    Phi sends the cell u_k B^r to Z_r = sum_t E_(r+t) P_t (see
    _cell_images), and the element is W = Z E^H over the cells E of
    shells 0..M; only Z is computed. Output shells extend to M + deg(Phi)
    so the polynomial action loses nothing. Accuracy of the safe block
    improves with M until M = wold.shell_count(B, D); past it the residual
    is limited by D alone.
    """
    if phi.n != B.degree:
        raise ValueError("multiplier matrix size must equal deg B")
    M_out = M + phi.max_entry_degree if M >= 0 else M  # shell_frame names a negative M
    E = shell_frame(B, M_out, D)
    Z = _readonly(_cell_images(phi, E))
    return CommutantOperator(phi=phi, B=B, alpha=as_weight(w), images=Z, cells=E[:, : phi.n * (M + 1)])


def commutation_residual(A: OperatorMatrix | CommutantOperator, B: BlaschkeProduct) -> float:
    """Safe-block operator norm of A T_B - T_B A in A's weight and window,
    from rows 0..D_safe of A alone: an element forms only Z[:D_safe+1] E^H."""
    D_safe = safe_degree(A.degree)
    return operator_norm_safe(_commutator_block(A.rows(D_safe + 1), B, A.degree), A.alpha, D_safe)


def extract_symbols(W: OperatorMatrix | CommutantOperator, B: BlaschkeProduct, *, tol_commute: float = 1e-8) -> np.ndarray:
    """phi_k = W u_k as the read-only (D+1) x n array W U, U = model_basis(B, D).U
    and D the degree of W, one thin product (Z (E^H U) for an element);
    requires W to commute with T_B on the safe block, to a commutation
    residual of at most tol_commute (extraction is meaningless otherwise).
    A built element for the same B supplies its memoized residual. The error
    names the window's limit max|a|^(D - D_safe) (B's Taylor tail past the
    guard), which no shell count lowers; it suggests a larger D only when
    that limit reaches tol_commute, as below it truncation cannot explain
    the residual."""
    D = W.degree
    res = W.residual if getattr(W, "B", None) == B else commutation_residual(W, B)
    if res > tol_commute:
        D_safe = safe_degree(D)
        limit = max(abs(a) for a, _ in B.zeros) ** (D - D_safe)
        why = (
            f"a commutant element truncated there keeps a residual near max|a|^(D - D_safe) = {limit:.1e}, "
            "so if W is one, increase D"
            if limit >= tol_commute
            else f"the window's limit max|a|^(D - D_safe) = {limit:.1e} is below tol_commute, "
            "so W does not commute with T_B at this window"
        )
        raise NotInCommutantError(
            f"commutation residual {res:.3e} exceeds tol_commute {tol_commute:.1e} at D = {D}, D_safe = {D_safe}; {why}"
        )
    return _readonly(W.apply(model_basis(B, D).U))


def symbols_to_matrix(F: np.ndarray, B: BlaschkeProduct, M: int) -> MultiplierMatrix:
    """Column k of Phi = shell components of the symbol phi_k = F[:, k], a
    function of degrees 0..D = F.shape[0] - 1: coeffs[t, j, k] =
    <phi_k, u_j B^t>_0 for t = 0..M, one product E^H F."""
    return MultiplierMatrix(_readonly(_shell_coordinates(F, B, M, F.shape[0] - 1).reshape(M + 1, B.degree, -1)))


def cowen_residual(W: OperatorMatrix | CommutantOperator, B: BlaschkeProduct, a: complex | Sequence[complex]) -> float:
    """max_m |<W* k_a, (B - B(a)) z^m>_0| over m up to the safe degree, and
    over the points when a is a 1-d sequence of them.

    Vanishing at a non-Blaschke sampling set characterizes membership in the
    commutant on H^2; a finite set can only falsify, not certify. W is read
    as an operator on the unweighted space (the criterion lives on H^2).
    W^H K = (K^H W)^H is one thin product for all kernels, (K^H Z) E^H for
    an element; no section of B - B(a) is built.
    """
    pts = np.atleast_1d(np.asarray(a, dtype=complex))
    if pts.ndim != 1 or np.any(np.abs(pts) >= 1.0):
        raise ValueError("sample points must be a point or 1-d sequence in the open disc")
    if not pts.size:
        raise ValueError("cowen_residual needs at least one sample point")
    D = W.degree
    D_safe = safe_degree(D)
    K = np.conj(pts)[None, :] ** np.arange(D + 1)[:, None]  # column i is k_(a_i)
    WK = W.apply_left(K.T.conj()).conj().T  # W^H K as one product
    Bvals = np.array([B.eval(p) for p in pts])
    G = B.toeplitz(D)[:, : D_safe + 1].conj().T @ WK - Bvals.conj() * WK[: D_safe + 1]
    return float(np.max(np.abs(G)))
