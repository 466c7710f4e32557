"""Truncated analytic-function arithmetic and weighted coefficient spaces.

Functions are held as finite Taylor coefficient vectors. The space with
weight exponent alpha has squared norm sum_k |a_k|^2 (k+1)^alpha; alpha = -1
is the Bergman space, alpha = 0 the Hardy space H^2, alpha = 1 the Dirichlet
space. Operators are dense matrices acting on the monomial coefficient basis.

Everything here is immutable and pure; values can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatchError


def _readonly(a) -> np.ndarray:
    """An array the library has just built, as a read-only contiguous complex array."""
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def _freeze(a) -> np.ndarray:
    """A value's input as a read-only contiguous complex array: a writeable array is copied,
    so the caller's stays writeable; a read-only one (what _readonly hands over) is not."""
    return _readonly(np.array(a, dtype=complex, order="C") if isinstance(a, np.ndarray) and a.flags.writeable else a)


@dataclass(frozen=True)
class WeightAlpha:
    """Weight exponent of the coefficient norm sum |a_k|^2 (k+1)^alpha."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    def diagonal(self, D: int) -> np.ndarray:
        """Read-only weights (k+1)^alpha for k = 0..D, memoized by (alpha, D)."""
        return _diagonal(self.alpha, D)


@lru_cache(maxsize=64)
def _diagonal(alpha: float, D: int) -> np.ndarray:
    lam = (np.arange(D + 1) + 1.0) ** alpha
    lam.setflags(write=False)
    return lam


def as_weight(w: "WeightAlpha | float") -> WeightAlpha:
    return w if isinstance(w, WeightAlpha) else WeightAlpha(float(w))


@dataclass(frozen=True)
class TaylorPoly:
    """An analytic function truncated at degree D: coeffs[k] is the k-th
    Taylor coefficient, len(coeffs) == D + 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = _freeze(self.coeffs)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, D: int = 0) -> "TaylorPoly":
        c = np.zeros(D + 1, dtype=complex)
        c[0] = 1.0
        return cls(_readonly(c))

    def pad(self, D: int) -> "TaylorPoly":
        """Zero-extend (or cut) to degree D."""
        return self if D == self.degree else TaylorPoly(_readonly(as_coeffs(self, D)))

    def __add__(self, other: "TaylorPoly") -> "TaylorPoly":
        D = max(self.degree, other.degree)
        return TaylorPoly(_readonly(self.pad(D).coeffs + other.pad(D).coeffs))

    def __sub__(self, other: "TaylorPoly") -> "TaylorPoly":
        D = max(self.degree, other.degree)
        return TaylorPoly(_readonly(self.pad(D).coeffs - other.pad(D).coeffs))

    def __mul__(self, scalar: complex) -> "TaylorPoly":
        return TaylorPoly(_readonly(self.coeffs * complex(scalar)))

    __rmul__ = __mul__


def as_coeffs(f: TaylorPoly, D: int) -> np.ndarray:
    """Coefficients of f zero-padded (or windowed) to length D + 1."""
    c = f.coeffs
    if len(c) == D + 1:
        return c
    if len(c) > D + 1:
        return c[: D + 1]
    out = np.zeros(D + 1, dtype=complex)
    out[: len(c)] = c
    return out


def require_window(f: TaylorPoly, D: int) -> None:
    """Raise if f has coefficients past degree D: an input the window would
    cut is an error, never silently truncated."""
    if f.degree > D:
        raise DimensionMismatchError(f"function degree {f.degree} exceeds the window D = {D}; pass D >= deg f")


@dataclass(frozen=True)
class OperatorMatrix:
    """Finite section of an operator: a dense (D+1) x (D+1) matrix acting on
    monomial coefficients, tagged with the weight its adjoints refer to."""

    entries: np.ndarray
    alpha: WeightAlpha = field(default_factory=lambda: WeightAlpha(0.0))

    def __post_init__(self):
        m = _freeze(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "alpha", as_weight(self.alpha))

    @property
    def degree(self) -> int:
        return self.entries.shape[0] - 1

    def rows(self, k: int) -> np.ndarray:
        return self.entries[:k]

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.entries @ X

    def apply_left(self, X: np.ndarray) -> np.ndarray:
        return X @ self.entries


# ---------------------------------------------------------------------------
# inner products and norms


def weighted_inner(f: TaylorPoly, g: TaylorPoly, w: WeightAlpha | float) -> complex:
    """<f, g>_alpha = sum_k f_k conj(g_k) (k+1)^alpha over shared indices.

    The shorter input is zero-padded, so the sum effectively runs over the
    indices where either carries coefficients.
    """
    L = min(len(f.coeffs), len(g.coeffs))
    lam = as_weight(w).diagonal(L - 1)
    return complex(np.sum(f.coeffs[:L] * np.conj(g.coeffs[:L]) * lam))


def weighted_norm(f: TaylorPoly, w: WeightAlpha | float) -> float:
    """||f||_alpha = sqrt(sum_k |f_k|^2 (k+1)^alpha), one real dot product."""
    c = f.coeffs
    return float(np.sqrt((c.real * c.real + c.imag * c.imag) @ as_weight(w).diagonal(f.degree)))


# ---------------------------------------------------------------------------
# arithmetic


def _trunc_mul(a: np.ndarray, b: np.ndarray, D: int) -> np.ndarray:
    c = np.convolve(a, b)[: D + 1]
    if len(c) < D + 1:
        c = np.pad(c, (0, D + 1 - len(c)))
    return c


def multiply(f: TaylorPoly, g: TaylorPoly, D: int) -> TaylorPoly:
    """Cauchy product truncated at degree D. Exact for polynomial inputs
    whenever deg f + deg g <= D."""
    if D < 0:
        raise ValueError("D must be nonnegative")
    return TaylorPoly(_readonly(_trunc_mul(f.coeffs, g.coeffs, D)))


# ---------------------------------------------------------------------------
# operators


def toeplitz_matrix(g: TaylorPoly, D: int, w: WeightAlpha | float = 0.0) -> OperatorMatrix:
    """Multiplication by g as a lower-triangular Toeplitz matrix: entry
    (j, k) = g_{j-k}. Column k holds the coefficients of g * z^k."""
    # row j is the window of (g_D, ..., g_0, 0, ..., 0) starting at D - j
    padded = np.concatenate((np.zeros(D, dtype=complex), as_coeffs(g, D)))[::-1]
    return OperatorMatrix(sliding_window_view(padded, D + 1)[::-1], as_weight(w))


def weighted_adjoint(A: OperatorMatrix) -> OperatorMatrix:
    """Adjoint with respect to A's weight <.,.>_alpha: Lambda^-1 A^H Lambda
    with Lambda = diag((k+1)^alpha), one product with the ratios lam_k / lam_j.
    Their diagonal is exactly 1, so a real diagonal section is its own adjoint
    bit for bit."""
    lam = A.alpha.diagonal(A.degree)
    m = A.entries.conj().T * (lam[None, :] / lam[:, None])
    return OperatorMatrix(_readonly(m), A.alpha)


def safe_degree(D: int) -> int:
    """Largest degree on which finite sections are trusted.

    Residuals that compare operators are measured after projecting inputs
    and outputs to degree <= safe_degree(D) = D - D//2: the guard D//2 keeps
    comparisons away from the truncation edge.
    """
    return D - D // 2


#: relative excess over the operator norm that operator_norm_safe may return
#: instead of taking an SVD.
_NORM_RTOL = 1e-5


def operator_norm_safe(X: np.ndarray, w: WeightAlpha | float, D_safe: int) -> float:
    """Operator norm of the safe-block section S of X, measured in the alpha
    geometry (S = Lambda^(1/2) X Lambda^(-1/2)), never below it.

    ||S||_F >= ||S||_2 >= ||S^H q|| for q the unit vector along S's largest
    column. When ||S||_F <= (1 + _NORM_RTOL) ||S^H q||, as for a section
    dominated by one direction, ||S||_F is returned: an upper bound at most
    1e-5 relative above the norm. Otherwise, or when the largest entry of S
    lies outside [1e-140, 1e140] (where its square could overflow or
    underflow), the norm is the largest singular value. An exactly zero
    section has norm 0.0 without an SVD; a NaN in it still reaches the SVD."""
    w = as_weight(w)
    sub = X[: D_safe + 1, : D_safe + 1]
    if not sub.any():
        return 0.0
    sq = np.sqrt(w.diagonal(D_safe))
    scaled = sq[:, None] * sub
    scaled /= sq[None, :]
    if 1e-140 <= np.abs(scaled).max() <= 1e140:
        col_sq = scaled.real**2
        col_sq += scaled.imag**2
        col_sq = col_sq.sum(axis=0)
        j = int(np.argmax(col_sq))
        frobenius = math.sqrt(col_sq.sum())
        if frobenius <= (1 + _NORM_RTOL) * np.linalg.norm(scaled[:, j].conj() @ scaled) / math.sqrt(col_sq[j]):
            return frobenius
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def _commutator_block(A: np.ndarray, B, D: int) -> np.ndarray:
    """Safe block of A T_B - T_B A for the section T_B = B.toeplitz(D) of a BlaschkeProduct B,
    read from rows 0..D_safe of A alone: (A T_B)[s, s] = A[s, :] T_B[:, s] sums over all D + 1 columns,
    and (T_B A)[s, s] = T_B[s, s] A[s, s] since T_B is lower triangular."""
    TB, s = B.toeplitz(D), slice(0, safe_degree(D) + 1)
    return np.subtract(X := A[s, :] @ TB[:, s], TB[s, s] @ A[s, s], out=X)  # in place on the first product


def _adjoint_commutator_block(A: np.ndarray, B, w: WeightAlpha, D: int) -> np.ndarray:
    """Safe block of A T_B* - T_B* A for the w-weighted adjoint T_B* of T_B = B.toeplitz(D).
    T_B is lower triangular, so only the rows s = 0..D_safe of T_B*, adj = Lambda_s^-1 T_B[:, s]^H Lambda,
    are formed, in place on one conjugate copy, and (A T_B*)[s, s] = A[s, s] adj[:, s]."""
    TB, lam, s = B.toeplitz(D), w.diagonal(D), slice(0, safe_degree(D) + 1)
    adj = TB[:, s].conj().T
    adj *= lam[None, :]
    adj /= lam[s, None]
    return np.subtract(X := A[s, s] @ adj[:, s], adj @ A[:, s], out=X)
