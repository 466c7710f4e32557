"""Tolerance and truncation configuration.

The numerical guards a caller may tune live here as documented defaults;
pass a modified Settings to the operations that take one.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Settings:
    #: largest admissible modulus for a Blaschke zero. Keeps Taylor
    #: truncation error geometric with a uniform ratio.
    rho_max: float = 0.8

    #: commutation residual above which an operator is not accepted as a
    #: commutant element.
    tol_commute: float = 1e-8

    #: singular values below this threshold count as "inside the span" when
    #: detecting X-space block dimensions.
    gap_tol: float = 1e-6

    #: smallest normalized singular value of a caller-supplied basis before
    #: projection_from_basis declares it rank deficient.
    basis_rank_tol: float = 1e-10

    #: |1 - conj(a) z| below this is treated as a pole hit.
    pole_tol: float = 1e-14

    #: singular-value threshold for pointwise rank of a multiplier matrix.
    rank_point_tol: float = 1e-8

    #: max entry degree accepted in a MultiplierMatrix.
    max_symbol_degree: int = 64

    #: least-squares residual above which k_spaces refuses to divide by B^k.
    kspace_residual_tol: float = 1e-6

    #: tolerance for the H^2 model-space membership check.
    membership_tol: float = 1e-8

    #: self-adjointness input tolerance for block diagnostics.
    selfadjoint_tol: float = 1e-8

    #: Mobius-power frame: a generator is reported in the basis only when
    #: its out-of-window mass fraction is below this.
    mobius_clean_tol: float = 1e-10

    #: maximal Gram deviation from identity tolerated for a frame that is
    #: analytically orthonormal.
    gram_tol: float = 1e-8

    def with_overrides(self, **kw) -> "Settings":
        return replace(self, **kw)


DEFAULT = Settings()


def safe_degree(D: int, guard: int | None = None) -> int:
    """Largest degree on which finite sections are trusted.

    Residuals that compare operators are measured after projecting inputs
    and outputs to degree <= safe_degree(D). The default guard D//2 keeps
    comparisons away from the truncation edge.
    """
    if guard is None:
        guard = D // 2
    if guard < 0 or guard > D:
        raise ValueError(f"guard must lie in [0, {D}], got {guard}")
    return D - guard
