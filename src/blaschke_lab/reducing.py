"""Reducing-subspace projections and shift-equivalence intertwiners.

A projection is its dense finite section, an OperatorMatrix in its weight
and window. It reduces T_B exactly when it commutes with both T_B and its
weighted adjoint; reducing_residual measures the worst of the two
commutators on the safe block.

Each class j of the Mobius-power projections of b_a^N combines the sections
C_r of (a, N, D); a class is built only when the window shows its first
generator. Its reducing residual forms no projection: a memo of the last two
keys (a, N, D, B) holds the residual of every class, read from the safe-block
commutators of those sections with T_B and T_B*, formed only to fill it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import RHO_MAX, BlaschkeProduct
from .errors import ConditioningError, DimensionMismatchError, MembershipError, ZeroFunctionError
from .spaces import (
    OperatorMatrix,
    TaylorPoly,
    WeightAlpha,
    _adjoint_commutator_block,
    _commutator_block,
    _readonly,
    as_coeffs,
    as_weight,
    operator_norm_safe,
    require_window,
    safe_degree,
    weighted_adjoint,
    weighted_norm,
)
from .wold import _continue_cells, _shell_coordinates

__all__ = [
    "IntertwinerJ",
    "monomial_reducing_projection",
    "mobius_power_reducing_projection",
    "mobius_power_reducing_residual",
    "projection_from_basis",
    "projection_defects",
    "reducing_residual",
    "shift_equiv_monomial",
    "shift_equiv_general",
    "unitarity_defect",
    "bnorm_defect",
    "intertwining_residual",
    "shell_shift_residual",
]


def projection_defects(P: OperatorMatrix) -> tuple[float, float]:
    """(idempotency, self-adjointness) defects on the safe block, as measured:
    the finite section of a projection onto a subspace that outgrows every
    window (the Mobius-power family) is self-adjoint but only nearly
    idempotent. Only the safe block is formed: (m m)[s, s] = m[s, :] m[:, s],
    and the weighted adjoint of m on [s, s] reads only m[s, s], since the
    weight is diagonal."""
    D_safe = safe_degree(P.degree)
    s = slice(0, D_safe + 1)
    m, w = P.entries, P.alpha
    block = OperatorMatrix(m[s, s], w)
    idem = operator_norm_safe(m[s, :] @ m[:, s] - block.entries, w, D_safe)
    sa = operator_norm_safe(block.entries - weighted_adjoint(block).entries, w, D_safe)
    return idem, sa


def monomial_reducing_projection(
    N: int, j: int, w: WeightAlpha | float, D: int
) -> OperatorMatrix:
    """Projection onto span{z^(j+kN) : k >= 0}: a 0/1 diagonal matrix, since
    monomials are orthogonal in every weight."""
    if not 0 <= j < N:
        raise ValueError("need 0 <= j < N")
    w = as_weight(w)
    mask = np.arange(D + 1) % N == j
    return OperatorMatrix(_readonly(np.diag(mask.astype(complex))), w)


#: side of the square tiles _mobius_columns fills with one product each
_TILE = 8


def _transfer_map(b: complex, al: complex, g: complex) -> np.ndarray:
    """The (2t+1) x t^2 map, t = _TILE, from the boundary of a t x t tile of c[k, l] = b c[k, l-1] +
    g c[k-1, l] + al c[k-1, l-1] to its interior, read row-major: row u is the interior grown from boundary
    unit u, the top row with its corner (u = 0..t), then the left column (u = t+1..2t). Each tile row is one
    product, c[k, :] = (c[k, 0], g c[k-1, 1:] + al c[k-1, :-1]) @ L with L[m, l-1] = b^(l-m) for m <= l.
    The map is built in long double (double on some platforms) and rounded once: built in double, it
    raised the sections' error about threefold at a = 0.8, D = 256."""
    t = _TILE
    E = np.zeros((2 * t + 1, t + 1, t + 1), dtype=np.clongdouble)
    E[: t + 1, 0] = np.eye(t + 1)
    E[t + 1 :, 1:, 0] = np.eye(t)
    e = np.arange(1, t + 1) - np.arange(t + 1)[:, None]  # l - m
    L = np.where(e >= 0, b ** np.maximum(e, 0), 0)
    for k in range(1, t + 1):
        E[:, k, 1:] = g * E[:, k - 1, 1:] + al * E[:, k - 1, :-1]
        E[:, k, 1:] = E[:, k] @ L
    return E[:, 1:, 1:].reshape(2 * t + 1, t * t).astype(complex)


def _mobius_columns(
    beta: complex, alpha: complex, delta: complex, gamma: complex, c0: np.ndarray, ncol: int
) -> np.ndarray:
    """Columns c_l = c0 psi^l, l = 0..ncol-1, of psi = (beta + alpha z)/(delta + gamma z) to degree
    D = len(c0) - 1, as a (D + 1) x ncol view. The exact recursion (delta + gamma z) c_l = (beta + alpha z)
    c_(l-1) reads c[k, l] = b c[k, l-1] + g c[k-1, l] + al c[k-1, l-1], so no numerator is expanded against
    its denominator (that cancels badly). The recursion is linear and shift-invariant: the interior of every
    _TILE x _TILE tile is one fixed map (_transfer_map) of its boundary. Column 0 and a zero row k = -1 start
    a padded work array; the tiles cover the rest, and the tiles of one tile anti-diagonal depend only on
    earlier ones, so each anti-diagonal is one gather, one product and one scatter through flat indices.
    Padding lies below or right of every entry, so it never feeds one."""
    D, t = len(c0) - 1, _TILE
    T = _transfer_map(*(np.clongdouble(x) / delta for x in (beta, alpha, -gamma)))
    nk, nl = -(-(D + 1) // t), -(-(ncol - 1) // t)  # tiles down and across
    width = nl * t + 1
    W = np.zeros((nk * t + 1, width), dtype=complex)
    W[1 : D + 2, 0] = c0
    # tile (i, s - i) of anti-diagonal s has its first interior entry at flat index
    # (1 + t i) width + 1 + t (s - i) = width + 1 + t s + i t (width - 1)
    down = t * (width - 1) * np.arange(nk)[:, None]
    r = np.arange(t)
    inside, boundary = (r[:, None] * width + r).ravel(), np.r_[np.arange(-1, t) - width, r * width - 1]
    flat = W.reshape(-1)
    for s in range(nk + nl - 1):
        tiles = down[max(0, s - nl + 1) : s + 1] + (width + 1 + t * s)
        flat[tiles + inside] = flat[tiles + boundary] @ T
    return W[1 : D + 2, :ncol]


#: Mobius-power guard: class j is built only when the padded-window tail of
#: its first generator u_j is at most this.
_MOBIUS_CLEAN_TOL = 1e-10


def _mobius_frame(a: complex, N: int, D: int) -> tuple[np.ndarray, ...]:
    """Read-only sections C[r - 1] of C_r, r = 1..N-1, of b_a^N at degree D, each a view of the padded
    array _mobius_columns fills (a contiguous copy would fault in another 1 MB at D = 256)."""
    k = np.arange(D + 1)
    C = []
    for r in range(1, N):
        om = np.exp(2j * np.pi * r / N)
        beta, alpha, delta, gamma = a * (1 - om), om - abs(a) ** 2, 1 - om * abs(a) ** 2, np.conj(a) * (om - 1)
        dpsi = (alpha * delta - beta * gamma) / delta**2 * (k + 1.0) * (-gamma / delta) ** k
        C.append(_mobius_columns(beta, alpha, delta, gamma, dpsi, D + 1))
        C[-1].setflags(write=False)
    return tuple(C)


def _generator_tail(a: complex, j: int, D: int) -> float:
    """Bergman-weight tail of u_j = (j+1)^(1/2) (1-|a|^2) b^j/(1 - conj(a) z)^2, b = (z-a)/(1-conj(a) z), the
    first generator of class j, on the degrees D+1..D_pad = D + max(D//2, 40). Each factor b is a product with
    z - a and a division by 1 - conj(a) z, the division a prefix scan of log2(D_pad) doublings, so no loop runs
    over degrees; the binomial sums for these coefficients cancel past j ~ 10."""
    D_pad, ca = D + max(D // 2, 40), np.conj(a)
    u = (np.arange(D_pad + 1) + 1.0) * ca ** np.arange(D_pad + 1)  # 1/(1 - conj(a) z)^2
    for _ in range(j):
        v = -a * u
        v[1:] += u[:-1]  # (z - a) u
        s = 1
        while s <= D_pad:  # after the step of shift s, v_k sums conj(a)^i v_(k-i) over i < 2s
            v[s:] += ca**s * v[:-s]
            s *= 2
        u = v
    lam = as_weight(-1.0).diagonal(D_pad)[D + 1 :]
    return float(np.sqrt(lam @ np.abs(u[D + 1 :]) ** 2) * np.sqrt(j + 1.0) * (1.0 - abs(a) ** 2))


def _clean_degree(a: complex, j: int, D: int) -> int:
    """Smallest window above D at which u_j is clean, by doubling and then
    bisection: near _MOBIUS_CLEAN_TOL the tail falls with the window."""
    lo, hi = D, 2 * D + 1
    while _generator_tail(a, j, hi) > _MOBIUS_CLEAN_TOL:
        lo, hi = hi, 2 * hi
    return lo + 1 + bisect_left(range(lo + 1, hi), True, key=lambda d: _generator_tail(a, j, d) <= _MOBIUS_CLEAN_TOL)


def _mobius_class(a: complex, N: int, j: int, D: int, rho_max: float) -> tuple[complex, list[complex]]:
    """(a, [omega^(-(j+1)r) for r = 1..N-1]) for class j of b_a^N at degree D, once a and j are valid
    (ValueError) and the window shows the class's first generator u_j (ConditioningError naming the
    smallest D that clears it)."""
    a = complex(a)
    if not 0 < abs(a) <= rho_max or abs(a) >= 1.0:
        raise ValueError(f"need 0 < |a| <= rho_max and |a| < 1, got |a| = {abs(a):.4f}")
    if not 0 <= j < N:
        raise ValueError("need 0 <= j < N")
    if (tail := _generator_tail(a, j, D)) > _MOBIUS_CLEAN_TOL:
        raise ConditioningError(
            f"no Mobius-power generator is window-clean at D = {D}: class {j}'s first generator has padded-window "
            f"tail {tail:.3e} > {_MOBIUS_CLEAN_TOL:.0e}; increase D to >= {_clean_degree(a, j, D)}"
        )
    return a, _mobius_phases(N, j)


def _mobius_phases(N: int, j: int) -> list[complex]:
    """omega^(-(j+1)r), r = 1..N-1: the weights of the sections C_r in class j."""
    return [np.exp(-2j * np.pi * (j + 1) * r / N) for r in range(1, N)]


def mobius_power_reducing_projection(
    a: complex, N: int, j: int, D: int, *, rho_max: float = RHO_MAX
) -> OperatorMatrix:
    """Reducing projection for B = ((z - a)/(1 - conj(a) z))^N on the
    Bergman weight onto U_a span{z^p : p = j mod N}, where U_a f =
    (f o phi_a) phi_a' for the involution phi_a = (a - z)/(1 - conj(a) z).
    The matrix is the exact finite section of P_j = U_a Q_j U_a = (1/N)
    sum_r omega^(-(j+1)r) C_r, omega = exp(2 pi i / N), where Q_j projects
    onto the monomials of residue j and C_r f = (f o psi_r) psi_r' for
    psi_r = phi_a(omega^r phi_a): column l of C_r is psi_r^l psi_r'.
    The subspace is spanned by the unit generators u_p = (p+1)^(1/2)
    (1-|a|^2) (z - a)^p / (1 - conj(a) z)^(p+2), p = j mod N (a multiple of
    U_a z^p). The window must show the first of them, u_j: a padded-window
    tail above _MOBIUS_CLEAN_TOL (1e-10) is a ConditioningError naming the
    smallest D that clears it. The elements outgrow every window, so the
    section is self-adjoint and commutes correctly, but it is not
    idempotent: its square misses it by the mass P_j sends past the window.
    """
    a, phase = _mobius_class(a, N, j, D, rho_max)
    C = _mobius_frame(a, N, D)
    # one array, no identity temporary: omega^(-(j+1)) C_1 (zero for N = 1), 1 on the diagonal, the other C_r
    P = phase[0] * C[0] if C else np.zeros((D + 1, D + 1), dtype=complex)
    P.flat[:: D + 2] += 1.0
    for ph, C_r in zip(phase[1:], C[1:]):
        P += ph * C_r
    P /= N
    return OperatorMatrix(_readonly(P), as_weight(-1.0))


@lru_cache(maxsize=2)
def _mobius_commutators(a: complex, N: int, D: int, B: BlaschkeProduct) -> tuple[float | None, ...]:
    """The reducing residual of every class j < N of b_a^N at degree D in the Bergman weight w, None for a class
    the window guard refuses: the norm of its sum of the safe blocks [C_r, T], T = T_B* and T_B, of the sections
    of _mobius_frame(a, N, D), with the phase of C_1 factored out. Each distinct sum (one for the two classes of
    N = 2) is normed once per T, while the blocks of that T live, the T_B* blocks first."""
    if N == 1:  # P_0 = I commutes exactly
        return (0.0,)
    rels = [tuple(ph / phase[0] for ph in phase[1:]) if N == 2 or _generator_tail(a, j, D) <= _MOBIUS_CLEAN_TOL
            else None for j, phase in enumerate(_mobius_phases(N, j) for j in range(N))]
    C, w, D_safe = _mobius_frame(a, N, D), as_weight(-1.0), safe_degree(D)

    def norms(K):  # {rel: the norm of its sum} over the blocks K = [C_r, T] of one T, freed on return
        return {rel: operator_norm_safe(sum((c * K_r for c, K_r in zip(rel, K[1:])), K[0]), w, D_safe)
                for rel in set(rels) - {None}}

    adj = norms([_adjoint_commutator_block(C_r, B, w, D) for C_r in C])
    comm = norms([_commutator_block(C_r, B, D) for C_r in C])
    return tuple(None if rel is None else max(adj[rel], comm[rel]) / N for rel in rels)


def mobius_power_reducing_residual(
    a: complex, N: int, j: int, D: int, B: BlaschkeProduct, *, rho_max: float = RHO_MAX
) -> float:
    """reducing_residual(mobius_power_reducing_projection(a, N, j, D), B) up to rounding, with no projection
    formed: [I, T] = 0, so [P_j, T] = (1/N) sum_r omega^(-(j+1)r) [C_r, T] for T = T_B and T_B*, and a unit
    factor leaves a norm unchanged. Read from _mobius_commutators after the window guard: the projection's errors."""
    a, _ = _mobius_class(a, N, j, D, rho_max)
    return _mobius_commutators(a, N, D, B)[j]


#: smallest normalized singular value of a caller-supplied basis before
#: projection_from_basis declares it rank deficient.
_BASIS_RANK_TOL = 1e-10


def projection_from_basis(functions: list[TaylorPoly], w: WeightAlpha | float, D: int) -> OperatorMatrix:
    """Orthogonal projection onto the span of the given truncated functions
    under the weight w (weighted QR). Every function must fit the window D."""
    w = as_weight(w)
    for f in functions:
        require_window(f, D)
    sq = np.sqrt(w.diagonal(D))
    cols = np.stack([as_coeffs(f, D) for f in functions], axis=1)
    norms = np.linalg.norm(cols, axis=0)
    if not norms.all():
        raise ZeroFunctionError(f"basis function {int(np.argmin(norms))} is the zero function")
    normed = cols / norms
    svals = np.linalg.svd(normed, compute_uv=False)
    if svals[-1] < _BASIS_RANK_TOL:
        raise ConditioningError(
            f"subspace basis numerically dependent (sigma_min {svals[-1]:.2e})"
        )
    Q, _ = np.linalg.qr(sq[:, None] * cols)
    P = (Q @ Q.conj().T) * sq[None, :] / sq[:, None]
    return OperatorMatrix(_readonly(P), w)


def reducing_residual(P: OperatorMatrix, B: BlaschkeProduct) -> float:
    """max of the safe-block commutator norms of P with T_B and with its weighted adjoint T_B*, in P's weight
    and window; zero characterizes a reducing subspace."""
    m, w, D = P.entries, P.alpha, P.degree
    blocks = _adjoint_commutator_block(m, B, w, D), _commutator_block(m, B, D)  # T_B* first, as in _mobius_commutators
    return max(operator_norm_safe(X, w, safe_degree(D)) for X in blocks)


# ---------------------------------------------------------------------------
# shift equivalence


@dataclass(frozen=True, eq=False)
class IntertwinerJ:
    """Map J with J S = T_B J given by its images: column k of the read-only
    (D+1) x K array F is J(z^k)."""

    F: np.ndarray
    alpha: WeightAlpha
    B: BlaschkeProduct


def shift_equiv_monomial(n: int, w: WeightAlpha | float, D: int) -> IntertwinerJ:
    """J(z^k) = z^((k+1)n - 1) / n^(alpha/2): unitary onto the span of z^(n-1),
    z^(2n-1), ... (two on the safe block at least), intertwining S with T_(z^n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if 2 * n - 1 > safe_degree(D):
        raise DimensionMismatchError(f"fewer than two images fit the safe block of D = {D}; increase D to >= {4 * n - 3}")
    w = as_weight(w)
    F = float(n) ** (-w.alpha / 2) * np.eye(D + 1)[:, n - 1 :: n]
    return IntertwinerJ(F=_readonly(F), alpha=w, B=BlaschkeProduct.monomial(n))


#: tolerance of the H^2 model-space membership test in shift_equiv_general.
_MEMBERSHIP_TOL = 1e-8


def shift_equiv_general(
    B: BlaschkeProduct,
    h: TaylorPoly,
    w: WeightAlpha | float,
    M: int,
    D: int,
) -> IntertwinerJ:
    """J(z^k) = h B^k for h in the model space, unitary in the expansion
    norm. h must fit the window D.

    h is renormalized to unit H^2 norm: the expansion-norm identity
    ||h B^k||_B^2 = (k+1)^alpha reads norms of shells in H^2.
    """
    if M < 0:
        raise DimensionMismatchError(f"image count M = {M} is negative; the images h B^k run over k = 0..M, so pass M >= 0")
    w = as_weight(w)
    require_window(h, D)
    nrm0 = weighted_norm(h, 0.0)
    if nrm0 == 0.0:
        raise MembershipError("h is zero")
    D_safe = safe_degree(D)
    worst = float(np.max(np.abs(as_coeffs(h, D).conj() @ B.toeplitz(D)[:, : D_safe + 1])))
    if worst / nrm0 > _MEMBERSHIP_TOL:
        raise MembershipError(
            f"h fails the model-space test at D = {D}, D_safe = {D_safe}: max over m <= D_safe of "
            f"|<h, B z^m>|/||h|| = {worst / nrm0:.3e} > {_MEMBERSHIP_TOL:.1e}; h is not in "
            f"the model space, or a true model-space function truncated at D can fail this way; increase D"
        )
    F = _continue_cells(as_coeffs((1.0 / nrm0) * h, D)[:, None], 1, B, M, D)  # h B^k, the frame's chain on one column
    return IntertwinerJ(F=_readonly(F), alpha=w, B=B)


def unitarity_defect(J: IntertwinerJ) -> float:
    """Entrywise deviation of the alpha-norm Gram matrix of {J(z^k)} from
    that of {z^k}."""
    X = J.F
    target = np.diag((np.arange(X.shape[1]) + 1.0) ** J.alpha.alpha)
    # G_ij = sum_k x_ik conj(x_jk) lam_k, each term in weighted_inner's order
    G = np.einsum("ki,kj,k->ij", X, X.conj(), J.alpha.diagonal(X.shape[0] - 1))
    return float(np.max(np.abs(G - target)))


def bnorm_defect(J: IntertwinerJ, M: int) -> float:
    """max_k | ||J(z^k)||_B - (k+1)^(alpha/2) |, each expansion norm read off
    the shell coordinates c[m, j, k] of all images on shells 0..M."""
    c = _shell_coordinates(J.F, J.B, M, J.F.shape[0] - 1).reshape(M + 1, J.B.degree, -1)
    norms = np.sqrt(np.einsum("mjk,m->k", (c * c.conj()).real, J.alpha.diagonal(M)))
    return float(np.max(np.abs(norms - (np.arange(J.F.shape[1]) + 1.0) ** (J.alpha.alpha / 2))))


def intertwining_residual(J: IntertwinerJ) -> float:
    """Safe-block norm of J S - T_B J in the alpha geometry of both sides:
    column k compares T_B J(z^k) with J(z^(k+1)), row m is scaled by
    (m+1)^(alpha/2) and column k by (k+1)^(-alpha/2), the norm of z^k in
    J's domain (see unitarity_defect)."""
    D = J.F.shape[0] - 1
    s = slice(0, safe_degree(D) + 1)
    diff = J.B.toeplitz(D)[s] @ J.F[:, :-1] - J.F[s, 1:]
    rows, cols = np.sqrt(J.alpha.diagonal(D)[s]), np.sqrt(J.alpha.diagonal(diff.shape[1] - 1))
    return float(np.linalg.norm(rows[:, None] * diff / cols[None, :], 2))


def shell_shift_residual(J: IntertwinerJ, M: int) -> float:
    """For the general construction: shell coordinates of B * J(z^k), all
    analysed at once on shells 0..M, must be those of J(z^k) shifted one
    shell up."""
    D = J.F.shape[0] - 1
    c, c_b = (_shell_coordinates(G, J.B, M, D).reshape(M + 1, J.B.degree, -1) for G in (J.F, J.B.toeplitz(D) @ J.F))
    return float(np.max(np.abs(c_b[1:] - c[:-1]), initial=np.max(np.abs(c_b[0]))))
