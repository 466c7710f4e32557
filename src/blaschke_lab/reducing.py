"""Reducing-subspace projections and shift-equivalence intertwiners.

A projection reduces T_B exactly when it commutes with both T_B and its
weighted adjoint; reducing_residual measures the worst of the two
commutators on the safe block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, model_basis
from .commutant import CommutantOperator
from .config import DEFAULT, Settings, safe_degree
from .errors import ConditioningError, MembershipError
from .spaces import (
    OperatorMatrix,
    TaylorPoly,
    WeightAlpha,
    as_coeffs,
    as_weight,
    operator_norm_safe,
    toeplitz_matrix,
    weighted_adjoint,
    weighted_norm,
)
from .wold import analyze, shell_frame

__all__ = [
    "SubspaceProjection",
    "IntertwinerJ",
    "monomial_reducing_projection",
    "mobius_power_reducing_projection",
    "projection_from_basis",
    "projection_defects",
    "reducing_residual",
    "shift_equiv_monomial",
    "shift_equiv_general",
    "hyperinvariance_check",
    "unitarity_defect",
    "intertwining_residual",
    "shell_shift_residual",
]


@dataclass(frozen=True)
class SubspaceProjection:
    """Orthogonal projection onto a subspace, as a dense finite section.

    basis holds alpha-orthonormal truncated functions spanning the visible
    part of the subspace. For families whose elements outgrow any finite
    window (the Mobius-power family), matrix is the finite section of the
    infinite-dimensional projection: it stays self-adjoint and commutes
    correctly, but matrix-squared only approximates matrix up to the mass
    the true projection sends past the window; projection_defects measures
    both laws honestly.
    """

    basis: tuple[TaylorPoly, ...]
    matrix: OperatorMatrix
    alpha: WeightAlpha
    kind: str = "custom"

    @property
    def degree(self) -> int:
        return self.matrix.degree

    def complement(self) -> "SubspaceProjection":
        return SubspaceProjection(
            basis=(),
            matrix=OperatorMatrix(
                np.eye(self.degree + 1) - self.matrix.entries, self.alpha
            ),
            alpha=self.alpha,
            kind=f"complement({self.kind})",
        )


def projection_defects(
    P: SubspaceProjection, *, guard: int | None = None
) -> tuple[float, float]:
    """(idempotency, self-adjointness) defects on the safe block."""
    D_safe = safe_degree(P.degree, guard)
    m = P.matrix.entries
    idem = operator_norm_safe(m @ m - m, P.alpha, D_safe)
    sa = operator_norm_safe(m - weighted_adjoint(P.matrix, P.alpha).entries, P.alpha, D_safe)
    return idem, sa


def monomial_reducing_projection(
    N: int, j: int, w: WeightAlpha | float, D: int
) -> SubspaceProjection:
    """Projection onto span{z^(j+kN) : k >= 0}: a 0/1 diagonal matrix, since
    monomials are orthogonal in every weight."""
    if not 0 <= j < N:
        raise ValueError("need 0 <= j < N")
    w = as_weight(w)
    idx = np.arange(D + 1)
    mask = (idx % N) == j
    basis = []
    for m in idx[mask]:
        v = np.zeros(D + 1, dtype=complex)
        v[m] = 1.0 / (m + 1.0) ** (w.alpha / 2)
        basis.append(TaylorPoly(v))
    return SubspaceProjection(
        basis=tuple(basis),
        matrix=OperatorMatrix(np.diag(mask.astype(complex)), w),
        alpha=w,
        kind="monomial",
    )


def _mobius_frame_generators(a: complex, N: int, j: int, D: int, p_max: int) -> np.ndarray:
    """Columns v_p = (z - a)^p / (1 - conj(a) z)^(p+2), p = j, j + N, ... <= p_max,
    truncated at degree D; v_p spans the image of z^p under the weighted
    composition unitary. The exact factor recursion v_p (1 - conj(a) z) =
    v_(p-1) (z - a), i.e. v_p[k] = conj(a) v_p[k-1] + v_(p-1)[k-1] - a v_(p-1)[k],
    is swept along the anti-diagonals s = p + k: row s needs only rows s-1 and
    s-2, so a generator costs O(D) and no numerator is expanded against its
    denominator (that cancels badly). The class-j entries of row s sit at the
    constant stride N*ncol - 1 of the flattened output: one slice writes them.
    """
    c = np.conj(a)
    v0 = (np.arange(D + 1) + 1.0) * c ** np.arange(D + 1)
    ncol = len(range(j, p_max + 1, N))
    flat = np.zeros((D + 1) * ncol, dtype=complex)  # row-major (D + 1) x ncol
    step = max(N * ncol - 1, 1)  # N = ncol = 1 writes one entry per row
    prev = row = np.zeros(D + 1, dtype=complex)  # rows are replaced, never written
    for s in range(j + (ncol - 1) * N + D + 1):
        nxt = -a * row
        nxt[1:] += c * row[:-1] + prev[:-1]
        nxt[s : s + 1] = v0[s : s + 1]  # v_0 = 1/(1 - conj(a) z)^2 (empty once s > D)
        prev, row = row, nxt
        # stored columns i (p = j + i N) with 0 <= k = s - p <= D
        i_lo, i_hi = max(0, -((D + j - s) // N)), min(ncol - 1, (s - j) // N)
        if i_hi >= i_lo:
            k_lo = s - j - i_hi * N
            flat[k_lo * ncol + i_hi :: step][: i_hi - i_lo + 1] = row[k_lo : s - j - i_lo * N + 1 : N]
    return flat.reshape(D + 1, ncol)


def mobius_power_reducing_projection(
    a: complex,
    N: int,
    j: int,
    D: int,
    *,
    cap: int | None = None,
    settings: Settings = DEFAULT,
) -> SubspaceProjection:
    """Reducing projection for B = ((z - a)/(1 - conj(a) z))^N on the
    Bergman weight, onto the conjugated monomial family with residues
    j mod N.

    The frame v_p = (z - a)^p / (1 - conj(a) z)^(p+2) is exactly orthogonal
    with known norms (1 - |a|^2)^-1 (p+1)^(-1/2), so the projection is one
    product P = U U^H Lambda over the unit generators u_p = (p+1)^(1/2)
    (1-|a|^2) v_p, taken while their in-window mass fraction stays above
    settings.mobius_include_tol (or up to an explicit shell cap). The basis
    lists the generators that are window-clean to settings.mobius_clean_tol.
    """
    a = complex(a)
    if not 0 < abs(a) <= settings.rho_max:
        raise ValueError(f"need 0 < |a| <= rho_max, got |a| = {abs(a):.4f}")
    if not 0 <= j < N:
        raise ValueError("need 0 <= j < N")
    w = as_weight(-1.0)
    # spread of |factor^p| covers indices ~ [p(1-|a|)/(1+|a|), p(1+|a|)/(1-|a|)];
    # generators are built on a padded window so out-of-window tails can be
    # measured directly (no cancellation against the unit total)
    p_hard = int(np.ceil(D * (1 + abs(a)) / (1 - abs(a)))) + 4 * N + 8
    if cap is not None:
        p_hard = min(p_hard, j + cap * N)
    D_pad = D + max(D // 2, 40)
    pad_lam = w.diagonal(D_pad)
    lam = pad_lam[: D + 1]
    p = np.arange(j, p_hard + 1, N)
    U = _mobius_frame_generators(a, N, j, D_pad, p_hard)
    U *= np.sqrt(p + 1.0) * (1.0 - abs(a) ** 2)
    mass = np.abs(U) ** 2
    in_window = lam @ mass[: D + 1]
    tail = np.sqrt(pad_lam[D + 1 :] @ mass[D + 1 :])
    # generators enter up to (not including) the first one below the include cut
    n = len(p) if cap is not None else int(np.argmax(np.append(in_window < settings.mobius_include_tol, True)))
    U = U[: D + 1, :n]
    P = U @ (U.conj().T * lam)
    Ub = U[:, tail[:n] <= settings.mobius_clean_tol]
    if Ub.shape[1] == 0:
        raise ConditioningError(
            f"no Mobius-power generator is window-clean at D = {D}; increase D"
        )
    defect = float(np.max(np.abs(Ub.conj().T @ (lam[:, None] * Ub) - np.eye(Ub.shape[1]))))
    if defect > settings.gram_tol:
        raise ConditioningError(
            f"clean generator Gram deviates from identity by {defect:.3e} "
            f"(> {settings.gram_tol:.1e}); shell cap too large for D"
        )
    return SubspaceProjection(
        basis=tuple(TaylorPoly(v) for v in Ub.T),
        matrix=OperatorMatrix(P, w),
        alpha=w,
        kind="mobius_power",
    )


def projection_from_basis(
    functions: list[TaylorPoly],
    w: WeightAlpha | float,
    D: int,
    *,
    settings: Settings = DEFAULT,
) -> SubspaceProjection:
    """Orthogonal projection onto the span of the given truncated functions
    under the weight w (weighted QR)."""
    w = as_weight(w)
    sq = np.sqrt(w.diagonal(D))
    cols = np.stack([as_coeffs(f, D) for f in functions], axis=1)
    normed = cols / np.linalg.norm(cols, axis=0)
    svals = np.linalg.svd(normed, compute_uv=False)
    if svals[-1] < settings.basis_rank_tol:
        raise ConditioningError(
            f"subspace basis numerically dependent (sigma_min {svals[-1]:.2e})"
        )
    Q, _ = np.linalg.qr(sq[:, None] * cols)
    P = (Q @ Q.conj().T) * sq[None, :] / sq[:, None]
    basis = tuple(TaylorPoly(Q[:, i] / sq) for i in range(Q.shape[1]))
    return SubspaceProjection(basis=basis, matrix=OperatorMatrix(P, w), alpha=w, kind="custom")


def reducing_residual(
    P: SubspaceProjection,
    B: BlaschkeProduct,
    w: WeightAlpha | float | None = None,
    D: int | None = None,
    *,
    guard: int | None = None,
) -> float:
    """max of the safe-block commutator norms of P with T_B and with the
    weighted adjoint of T_B. Zero characterizes a reducing subspace."""
    w = P.alpha if w is None else as_weight(w)
    if D is None:
        D = P.degree
    D_safe = safe_degree(D, guard)
    TB = toeplitz_matrix(B.taylor(D), D, w)
    TBs = weighted_adjoint(TB, w)
    m = P.matrix.entries
    r1 = operator_norm_safe(m @ TB.entries - TB.entries @ m, w, D_safe)
    r2 = operator_norm_safe(m @ TBs.entries - TBs.entries @ m, w, D_safe)
    return max(r1, r2)


def hyperinvariance_check(
    P: SubspaceProjection,
    W: CommutantOperator | OperatorMatrix,
    *,
    guard: int | None = None,
) -> float:
    """Invariance defect ||(I - P) W P|| on the safe block: small means W
    maps the subspace into itself (invariance, not full commutation)."""
    Wm = W.realization.entries if isinstance(W, CommutantOperator) else W.entries
    m = P.matrix.entries
    D_safe = safe_degree(P.degree, guard)
    return operator_norm_safe((np.eye(len(m)) - m) @ Wm @ m, P.alpha, D_safe)


# ---------------------------------------------------------------------------
# shift equivalence


@dataclass(frozen=True)
class IntertwinerJ:
    """Map J with J S = T_B J given by its images J(z^k).

    norm_mode declares the inner product under which J is unitary onto its
    range: "alpha_norm" for the monomial construction, "b_norm" for the
    general one (unitarity holds in shell coordinates there, not in the
    plain weighted norm).
    """

    images: tuple[TaylorPoly, ...]
    norm_mode: str
    alpha: WeightAlpha
    B: BlaschkeProduct
    h_alpha_norm: float | None = None

    @property
    def count(self) -> int:
        return len(self.images)


def shift_equiv_monomial(n: int, w: WeightAlpha | float, D: int) -> IntertwinerJ:
    """J(z^k) = z^((k+1)n - 1) / n^(alpha/2): unitary onto the span of
    z^(n-1), z^(2n-1), ..., intertwining the shift with T_(z^n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = as_weight(w)
    scale = float(n) ** (-w.alpha / 2)
    images = []
    k = 0
    while (k + 1) * n - 1 <= D:
        v = np.zeros(D + 1, dtype=complex)
        v[(k + 1) * n - 1] = scale
        images.append(TaylorPoly(v))
        k += 1
    return IntertwinerJ(
        images=tuple(images),
        norm_mode="alpha_norm",
        alpha=w,
        B=BlaschkeProduct.monomial(n),
    )


def shift_equiv_general(
    B: BlaschkeProduct,
    h: TaylorPoly,
    w: WeightAlpha | float,
    M: int,
    D: int,
    *,
    settings: Settings = DEFAULT,
) -> IntertwinerJ:
    """J(z^k) = h B^k for h in the model space, unitary in the expansion
    norm.

    h is renormalized to unit H^2 norm (the expansion-norm identity
    ||h B^k||_B^2 = (k+1)^alpha reads norms of shells in H^2); its weighted
    norm is recorded on the result instead of being used for scaling.
    """
    w = as_weight(w)
    nrm0 = weighted_norm(h, 0.0)
    if nrm0 == 0.0:
        raise MembershipError("h is zero")
    TB = toeplitz_matrix(B.taylor(D), D, 0.0).entries
    D_safe = safe_degree(D)
    worst = float(np.max(np.abs(as_coeffs(h, D).conj() @ TB[:, : D_safe + 1])))
    if worst / nrm0 > settings.membership_tol:
        raise MembershipError(
            f"h fails the model-space test at D = {D}, D_safe = {D_safe}: max over m <= D_safe of "
            f"|<h, B z^m>|/||h|| = {worst / nrm0:.3e} > {settings.membership_tol:.1e}; h is not in "
            f"the model space, or a true model-space function truncated at D can fail this way; increase D"
        )
    h_unit = (1.0 / nrm0) * h
    images = [as_coeffs(h_unit, D)]
    for _ in range(M):  # h B^k = T_B h B^(k-1), exact below degree D
        images.append(TB @ images[-1])
    return IntertwinerJ(
        images=tuple(TaylorPoly(v) for v in images),
        norm_mode="b_norm",
        alpha=w,
        B=B,
        h_alpha_norm=weighted_norm(h_unit, w),
    )


def unitarity_defect(J: IntertwinerJ, *, M: int | None = None, settings: Settings = DEFAULT) -> float:
    """Entrywise deviation of the Gram matrix of {J(z^k)} from that of
    {z^k}, computed in the declared inner product."""
    target = np.diag((np.arange(J.count) + 1.0) ** J.alpha.alpha)
    if J.norm_mode == "alpha_norm":
        X = np.stack([f.coeffs for f in J.images], axis=1)
        # G_ij = sum_k x_ik conj(x_jk) lam_k, each term in weighted_inner's order
        G = np.einsum("ki,kj,k->ij", X, X.conj(), J.alpha.diagonal(X.shape[0] - 1))
        return float(np.max(np.abs(G - target)))
    # b_norm: Gram in shell coordinates
    D = J.images[0].degree
    if M is None:
        M = J.count + 2
    coords = []
    basis = None
    for f in J.images:
        dec = analyze(f, J.B, M, D, basis=basis, settings=settings)
        basis = dec.basis
        coords.append(dec.coefficients)
    kw = (np.arange(M + 1) + 1.0) ** J.alpha.alpha
    G = np.einsum("inm,jnm,m->ij", np.array(coords), np.conj(coords), kw)
    return float(np.max(np.abs(G - target)))


def intertwining_residual(
    J: IntertwinerJ, *, guard: int | None = None
) -> float:
    """Safe-block norm of J S - T_B J (alpha geometry): column k compares
    T_B J(z^k) with J(z^(k+1))."""
    D = J.images[0].degree
    TB = toeplitz_matrix(J.B.taylor(D), D, J.alpha)
    cols = np.stack([f.coeffs for f in J.images], axis=1)
    diff = TB.entries @ cols[:, :-1] - cols[:, 1:]
    D_safe = safe_degree(D, guard)
    sq = np.sqrt(J.alpha.diagonal(D))
    return float(np.linalg.norm((sq[:, None] * diff)[: D_safe + 1, :], 2))


def shell_shift_residual(
    J: IntertwinerJ, M: int, D: int, *, settings: Settings = DEFAULT
) -> float:
    """For the general construction: shell coordinates of B * J(z^k) must be
    those of J(z^k) shifted one shell up."""
    worst = 0.0
    basis = model_basis(J.B, D)
    b = shell_frame(J.B, M, D, basis=basis).b
    for f in J.images:
        dec = analyze(f, J.B, M, D, basis=basis, settings=settings)
        bf = TaylorPoly(np.convolve(as_coeffs(f, D), b)[: D + 1])
        dec2 = analyze(bf, J.B, M, D, basis=basis, settings=settings)
        shifted = np.zeros_like(dec.coefficients)
        shifted[:, 1:] = dec.coefficients[:, :-1]
        worst = max(worst, float(np.max(np.abs(dec2.coefficients - shifted))))
    return worst
