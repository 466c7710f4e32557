"""The values a config may set, and the safe degree of a window.

Settings holds the three library guards that the CLI `tolerances` keys
override (cli.SETTINGS_KEYS); pass a modified Settings to the operations
that take one (extract_symbols, x_spaces,
mobius_power_reducing_projection). Every other guard is a fixed private
constant of the module whose function reads it.
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
