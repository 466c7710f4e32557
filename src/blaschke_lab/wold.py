"""Shell decomposition f = sum_k h_k B^k with h_k in the model space.

In H^2 the system {u_j B^k} (u_j the orthonormal model-space basis) is an
orthonormal basis, so analysis is a family of plain inner products. Because
truncation only removes coefficients beyond the window, those inner products
are exact for any input supported inside the window; accuracy of a round
trip is limited by the expansion tail beyond the largest computed shell, not
by the truncation itself.

The cells u_j B^k of one (B, D), in the basis u_j = model_basis(B, D), are
built once into one read-only array, the frame, kept in a memo of the last
_FRAME_MEMO_SIZE = 4 keys (B, D). The chain of cells takes the Krylov step
T_B for shells 1.._BLOCK-1 and then one step T_(B^_BLOCK) per block of
_BLOCK shells. Fewer shells are a column prefix (a view) of the frame; more
shells continue its chain from the last cached cells. Either way the cells
are bitwise those of a frame built for that count. The frame is the only
source of cells; the u_j of model_basis(B, D) are the same functions at
every window D.

Both shell counts of (B, D) are one bit search over the squares of B: shell_count
from the shell deficit on the safe block, power_count from the powers B^k that fit the window.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import BlaschkeProduct, ModelSpaceBasis, model_basis
from .errors import BlaschkeLabError, DimensionMismatchError, ZeroFunctionError
from .spaces import (
    TaylorPoly,
    WeightAlpha,
    _freeze,
    _readonly,
    _trunc_mul,
    as_weight,
    require_window,
    safe_degree,
    toeplitz_matrix,
)

__all__ = [
    "ShellDecomposition",
    "shell_frame",
    "analyze",
    "synthesize",
    "norm_equivalence_ratio",
    "cell_matrix",
    "shell_count",
    "power_count",
    "power_tail",
]

#: H^2 mass of a truncated power of B that counts as rounding.
_NEGLIGIBLE = 1e-15


def _last_power(b: np.ndarray, keep) -> int:
    """The largest p with keep(B^p through degree L), b being B through degree
    L, for a keep that once false stays false: the squares B^(2^i) are formed
    until keep fails on one, and p is read from them bit by bit."""
    L, squares = len(b) - 1, [b]
    while keep(squares[-1]):
        squares.append(_trunc_mul(squares[-1], squares[-1], L))
    p, power = 0, TaylorPoly.one(L).coeffs
    for i in reversed(range(len(squares) - 1)):  # p < 2^i for the last square
        if keep(trial := _trunc_mul(power, squares[i], L)):
            p, power = p + 2**i, trial
    return p


def shell_count(B: BlaschkeProduct, D: int) -> int:
    """The smallest M whose shell deficit ||B^(M+1)|| on degrees <= D_safe
    = safe_degree(D) is at most 1e-15, i.e. the last power B^M whose mass
    there exceeds 1e-30: shells past M carry nothing a safe-block residual
    can see. That mass never grows with M, as the safe block of T_B is a
    lower-triangular contraction, and falls below any tolerance as every
    zero of B lies inside the disc, so the search stops."""
    D_safe = safe_degree(D)
    return _last_power(B.taylor(D).coeffs[: D_safe + 1], lambda c: np.vdot(c, c).real > _NEGLIGIBLE**2)


def _power_coeffs(B: BlaschkeProduct, M: int, D: int) -> np.ndarray:
    """B^M through degree D by repeated squaring: ~2 log2(M) truncated products."""
    power, square = TaylorPoly.one(D).coeffs, B.taylor(D).coeffs
    while M:
        if M & 1:
            power = _trunc_mul(power, square, D)
        M >>= 1
        if M:
            square = _trunc_mul(square, square, D)
    return power


def _tail(c: np.ndarray, D: int) -> float:
    """H^2 norm past degree D of an inner function with coefficients c:
    sqrt(1 - captured) above 1e-4, and below, where that cancels, c past D."""
    lost = 1.0 - np.vdot(c[: D + 1], c[: D + 1]).real
    return float(np.sqrt(lost) if lost > 1e-8 else np.linalg.norm(c[D + 1 :]))


def power_tail(B: BlaschkeProduct, M: int, D: int) -> float:
    """H^2 norm of B^M's coefficients past degree D. A tail below 1e-4 is
    summed directly over degrees D < k <= 2D: B^M then has its mass inside
    the window, and past it the coefficients decay geometrically."""
    return _tail(_power_coeffs(B, M, 2 * D), D)


def power_count(B: BlaschkeProduct, D: int) -> int:
    """The largest M with power_tail(B, M, D) <= 1e-15: B^0, ..., B^M fit
    the window. The tail never shrinks as M grows, as T_B is a lower-triangular
    isometry, and it tends to 1, as B^M tends to 0 on degrees <= D, so the
    search through degree 2D stops."""
    return _last_power(B.taylor(2 * D).coeffs, lambda c: _tail(c, D) <= _NEGLIGIBLE)


def cell_matrix(
    basis: ModelSpaceBasis,
    B: BlaschkeProduct,
    M: int,
    D: int,
) -> np.ndarray:
    """Columns u_j B^k truncated at D, ordered k-major then j: column index
    k * n + j. Shape (D+1, n*(M+1)), Fortran order so a column prefix is
    laid out as the cells of fewer shells. The basis holds degrees 0..D."""
    return _continue_cells(basis.U, basis.dim, B, M, D)


#: shells per block of the frame chain past its first block
_BLOCK = 8


def _continue_cells(cells: np.ndarray, n: int, B: BlaschkeProduct, M: int, D: int) -> np.ndarray:
    """The cells of shells 0..m (n columns a shell) continued to shells
    0..M, in a new Fortran-order array.

    Shells 1.._BLOCK-1 are the block Krylov steps E_k = T_B E_(k-1); past
    them each block of _BLOCK shells is T_(B^_BLOCK) times the block before
    it, one product of _BLOCK * n columns. The recursion is exact: Toeplitz
    sections are lower triangular, so truncating before each product loses
    nothing below degree D. Every block is computed whole from the whole
    block before it, and only its shells up to M are kept, so a chain
    continued from a prefix is bitwise the chain built from shell 0.
    """
    E = np.empty((D + 1, n * (M + 1)), dtype=complex, order="F")
    E[:, : cells.shape[1]] = cells
    m = cells.shape[1] // n - 1
    TB = B.toeplitz(D)
    for k in range(m + 1, min(M, _BLOCK - 1) + 1):
        E[:, k * n : (k + 1) * n] = TB @ E[:, (k - 1) * n : k * n]
    width = _BLOCK * n
    starts = range(max(m + 1, _BLOCK) // _BLOCK * width, E.shape[1], width)  # from the block of shell m + 1
    if starts:
        TB8 = toeplitz_matrix(TaylorPoly(_readonly(_power_coeffs(B, _BLOCK, D))), D).entries
        for start in starts:
            block = TB8 @ E[:, start - width : start]
            E[:, start : start + width] = block[:, : E.shape[1] - start]
    return E


_FRAME_MEMO_SIZE = 4
_FRAMES: OrderedDict[tuple, np.ndarray] = OrderedDict()  # least recently used first


def shell_frame(B: BlaschkeProduct, M: int, D: int) -> np.ndarray:
    """The read-only cells of shells 0..M of (B, D), E[:, k*n + j] = u_j B^k,
    so shell 0 is model_basis(B, D).U. They are a column prefix of the frame
    the memo keeps for (B, D); a frame with fewer shells is grown from its
    last cells. A negative M is a DimensionMismatchError."""
    if M < 0:
        raise DimensionMismatchError(f"shell count M = {M} is negative; pass M >= 0")
    key, width = (B, D), B.degree * (M + 1)
    E = _FRAMES.get(key)
    if E is None or E.shape[1] < width:
        E = cell_matrix(model_basis(B, D), B, M, D) if E is None else _continue_cells(E, B.degree, B, M, D)
        E.setflags(write=False)
        _FRAMES[key] = E
        if len(_FRAMES) > _FRAME_MEMO_SIZE:
            _FRAMES.popitem(last=False)
    _FRAMES.move_to_end(key)
    return E[:, :width]


def _shell_coordinates(F: np.ndarray, B: BlaschkeProduct, M: int, D: int) -> np.ndarray:
    """c[k*n + j] = <F, u_j B^k>_0 on shells 0..M of the frame of (B, D), for
    one function F or a column per function, F holding degrees 0..len(F)-1
    <= D: one product E^H F over the rows F occupies, without padding F or
    a conjugate copy of E."""
    return (shell_frame(B, M, D)[: len(F)].T @ F.conj()).conj()


@dataclass(frozen=True)
class ShellDecomposition:
    """Coefficients c[j, k] of f against the orthonormal system {u_j B^k} of model_basis(B, .).

    Row j of c is also the coefficient sequence of the component function
    f_{j+1}(w) = sum_k c[j, k] w^k, so shells and components are two views
    of the same array.
    """

    B: BlaschkeProduct
    coefficients: np.ndarray  # (n, M+1)
    degree: int

    def __post_init__(self):
        c = _freeze(self.coefficients)
        if c.ndim != 2 or c.shape[0] != self.B.degree:
            raise ValueError("coefficient array must be n x (M+1)")
        object.__setattr__(self, "coefficients", c)

    @property
    def shell_count(self) -> int:
        return self.coefficients.shape[1] - 1

    def to_json(self) -> dict:
        return {
            "B": self.B.to_json(),
            "M": self.shell_count,
            "c": [[[v.real, v.imag] for v in row] for row in self.coefficients],
        }


def _window(f: TaylorPoly, B: BlaschkeProduct, M: int | None, D: int | None, basis: ModelSpaceBasis | None):
    """(M, D) for reading f on shells 0..M of the frame of (B, D). D defaults to
    deg f, M to shell_count(B, D); basis= may only be model_basis(B, D)."""
    D = f.degree if D is None else D
    M = shell_count(B, D) if M is None else M
    require_window(f, D)
    if basis is not None and basis is not (own := model_basis(B, D)) and not np.array_equal(basis.U, own.U):
        raise BlaschkeLabError(f"basis= must be model_basis(B, D) at D = {D}; shells are read in no other basis")
    return M, D


def analyze(
    f: TaylorPoly,
    B: BlaschkeProduct,
    M: int | None = None,
    D: int | None = None,
    *,
    basis: ModelSpaceBasis | None = None,
) -> ShellDecomposition:
    """Shell coefficients c[j, k] = <f, u_j B^k>_0 for k = 0..M.

    This is the orthogonal projection of f onto span{u_j B^k} in H^2; the
    returned decomposition minimizes the H^2 residual over that span. The
    u_j are the shell frame's basis model_basis(B, D); basis= may only name
    it. D defaults to deg f, M to shell_count(B, D).
    """
    M, D = _window(f, B, M, D, basis)
    c = _shell_coordinates(f.coeffs, B, M, D)
    return ShellDecomposition(B, _readonly(c.reshape(-1, B.degree).T), D)


def synthesize(dec: ShellDecomposition, D: int | None = None) -> TaylorPoly:
    """sum_{k<=M} sum_j c[j, k] u_j B^k truncated at degree D, read from the frame of any D."""
    E = shell_frame(dec.B, dec.shell_count, dec.degree if D is None else D)
    return TaylorPoly(_readonly(E @ dec.coefficients.T.reshape(-1)))  # k-major, as the cells


_FORM_ROWS = 16  # the rows of a Gram form: len(f) rounded up to a multiple of 16
_FORM_MEMO_SIZE = 4  # at D = 512 at most 4 x 513^2 x 16 B = 16,842,816 B


@lru_cache(maxsize=_FORM_MEMO_SIZE)
def _gram_form(B: BlaschkeProduct, w: WeightAlpha, M: int, D: int, r: int) -> np.ndarray:
    """G = E[:r] Lambda_M E[:r]^H, E the cells of shells 0..M of (B, D) and Lambda_M the shell
    weights (k+1)^alpha repeated n times, so f^H G[:L, :L] f = ||f||_B^2 for f of L <= r
    coefficients. The row count r is part of the key: the bits of a product depend on its
    size, so a form is never grown from a smaller one."""
    E = shell_frame(B, M, D)[:r]
    return _readonly((E * np.repeat(w.diagonal(M), B.degree)) @ E.conj().T)


def norm_equivalence_ratio(
    f: TaylorPoly,
    B: BlaschkeProduct,
    w: WeightAlpha | float,
    M: int | None = None,
    D: int | None = None,
    *,
    basis: ModelSpaceBasis | None = None,
) -> float:
    """||f||_B^2 / ||f||_alpha^2, the empirical equivalence ratio, with the
    expansion norm ||f||_B^2 = sum_k (k+1)^alpha ||h_k||_0^2 over shells
    0..M. Both are quadratic forms in the coefficients c of f: <c, Lambda c>
    and <c, G c>, G the memoized Gram form of (B, M, D, alpha)."""
    w = as_weight(w)
    c = f.coeffs
    nf2 = np.vdot(c, w.diagonal(f.degree) * c).real
    if nf2 == 0.0:
        raise ZeroFunctionError("norm ratio undefined for the zero function")
    M, D = _window(f, B, M, D, basis)
    L = len(c)
    r = min(-(-L // _FORM_ROWS) * _FORM_ROWS, D + 1)  # the row bucket of L, capped at D + 1
    return float(np.vdot(c, _gram_form(B, w, M, D, r)[:L, :L] @ c).real / nf2)
