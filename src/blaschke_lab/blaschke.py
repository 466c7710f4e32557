"""Finite Blaschke products, their Taylor expansions, and model-space bases."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationDomainError, PoleError, config_float, config_int, known_keys
from .spaces import TaylorPoly, _freeze, _readonly, _trunc_mul, multiply, toeplitz_matrix

__all__ = [
    "BlaschkeProduct",
    "ModelSpaceBasis",
    "model_basis",
    "reproducing_kernel",
    "blaschke_factor_taylor",
]


#: default largest admissible modulus of a zero. Keeps Taylor truncation
#: error geometric with a uniform ratio.
RHO_MAX = 0.8

#: |1 - conj(a) z| below this is a pole hit in BlaschkeProduct.eval.
_POLE_TOL = 1e-14


class BlaschkeProduct:
    """e^(i theta) * prod_i ((z - a_i)/(1 - conj(a_i) z))^(m_i) with all
    zeros a_i strictly inside the disc.

    Zeros are stored as (value, multiplicity) pairs; equal values are
    merged. The product must be nonconstant (degree >= 1).
    """

    __slots__ = ("theta", "zeros", "degree", "_hash")

    def __init__(self, theta: float, zeros, *, rho_max: float = RHO_MAX):
        merged: dict[complex, int] = {}
        for entry in zeros:
            a, mult = (complex(entry[0]), entry[1]) if isinstance(entry, tuple) else (complex(entry), 1)
            if not isinstance(mult, numbers.Integral) or isinstance(mult, bool) or mult < 1:
                raise ValueError(f"multiplicity must be an integer >= 1, got {mult!r}")
            if not abs(a) <= rho_max or abs(a) >= 1.0:  # a NaN rho_max admits nothing
                raise ValueError(
                    f"zero {a} has modulus {abs(a):.4f}; need |a| <= rho_max = {rho_max} and |a| < 1"
                )
            merged[a] = merged.get(a, 0) + int(mult)
        if sum(merged.values()) < 1:
            raise ValueError("a Blaschke product here must be nonconstant")
        if not math.isfinite(theta := float(theta)):
            raise ValueError(f"theta must be finite, got {theta!r}")
        self.__setstate__((theta, tuple(sorted(merged.items(), key=lambda t: (t[0].real, t[0].imag)))))

    def __getstate__(self):
        return self.theta, self.zeros

    def __setstate__(self, state):
        """Set the fields from an admitted (theta, zeros): a copy or an unpickled
        product is not judged again against the rho_max that admitted it."""
        theta, zeros = state
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "degree", sum(m for _, m in zeros))
        object.__setattr__(self, "_hash", hash((theta, zeros)))  # once: it keys every (B, D) memo

    def __setattr__(self, *a):
        raise AttributeError("BlaschkeProduct is immutable")

    def __repr__(self):
        return f"BlaschkeProduct(theta={self.theta!r}, zeros={self.zeros!r})"

    def __eq__(self, other):
        return (
            isinstance(other, BlaschkeProduct)
            and self.theta == other.theta
            and self.zeros == other.zeros
        )

    def __hash__(self):
        return self._hash

    @classmethod
    def monomial(cls, n: int) -> "BlaschkeProduct":
        """B(z) = z^n."""
        return cls(0.0, [(0.0, n)])

    def expanded_zeros(self) -> list[complex]:
        """Zeros repeated according to multiplicity."""
        return [a for a, m in self.zeros for _ in range(m)]

    # -- evaluation ---------------------------------------------------------

    def eval(self, z: complex) -> complex:
        """Product-formula value at a point of the closed disc."""
        z = complex(z)
        if abs(z) > 1.0 + 1e-12:
            raise EvaluationDomainError(f"|z| = {abs(z):.6f} lies outside the closed disc")
        out = np.exp(1j * self.theta)
        for a, mult in self.zeros:
            den = 1.0 - np.conj(a) * z
            if abs(den) < _POLE_TOL:
                raise PoleError(f"denominator vanished at zero {a}")
            out *= ((z - a) / den) ** mult
        return complex(out)

    # -- Taylor expansions ---------------------------------------------------

    def taylor(self, D: int) -> TaylorPoly:
        """Taylor coefficients through degree D, memoized by (B, D)."""
        return _taylor(self, D)

    def toeplitz(self, D: int) -> np.ndarray:
        """Read-only (D+1) x (D+1) lower-triangular Toeplitz section of T_B,
        entry (j, k) = b_(j-k), memoized by (B, D)."""
        return _toeplitz(self, D)

    def power_list(self, M: int, D: int) -> list[TaylorPoly]:
        """[B^0, B^1, ..., B^M] truncated at degree D."""
        out = [TaylorPoly.one(D)]
        b = self.taylor(D)
        for _ in range(M):
            out.append(multiply(out[-1], b, D))
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "zeros": [
                {"re": a.real, "im": a.imag, "mult": m} for a, m in self.zeros
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, *, rho_max: float = RHO_MAX) -> "BlaschkeProduct":
        """Inverse of to_json. An unknown key or a non-integral mult is a
        ConfigError."""
        zeros = []
        for z in known_keys(obj, "B", ("theta", "zeros"))["zeros"]:
            known_keys(z, "zero", ("re", "im", "mult"))
            re, im = config_float(z.get("re", 0.0), "zero re"), config_float(z.get("im", 0.0), "zero im")
            zeros.append((complex(re, im), config_int(z.get("mult", 1), "zero mult")))
        return cls(config_float(obj.get("theta", 0.0), "B theta"), zeros, rho_max=rho_max)


# Bounded memos of (B, D), always called positionally: how a caller of
# taylor, toeplitz or model_basis passes D does not change the key.
@lru_cache(maxsize=8)
def _taylor(B: BlaschkeProduct, D: int) -> TaylorPoly:
    """B's Taylor coefficients through degree D, built factor by factor."""
    acc = np.zeros(D + 1, dtype=complex)
    acc[0] = np.exp(1j * B.theta)
    for a in B.expanded_zeros():
        acc = _trunc_mul(acc, blaschke_factor_taylor(a, D).coeffs, D)
    return TaylorPoly(_readonly(acc))


@lru_cache(maxsize=8)
def _toeplitz(B: BlaschkeProduct, D: int) -> np.ndarray:
    return toeplitz_matrix(_taylor(B, D), D).entries


def blaschke_factor_taylor(a: complex, D: int) -> TaylorPoly:
    """(z - a)/(1 - conj(a) z) = -a + (1 - |a|^2) sum_{k>=1} conj(a)^(k-1) z^k."""
    c = np.zeros(D + 1, dtype=complex)
    c[0] = -a
    if D >= 1:
        c[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(D)
    return TaylorPoly(_readonly(c))


def reproducing_kernel(a: complex, D: int) -> TaylorPoly:
    """H^2 kernel k_a(z) = 1/(1 - conj(a) z) truncated at degree D."""
    if abs(a) >= 1.0:
        raise EvaluationDomainError("kernel point must lie in the open disc")
    return TaylorPoly(_readonly(np.conj(a) ** np.arange(D + 1)))


@dataclass(frozen=True, eq=False)
class ModelSpaceBasis:
    """H^2-orthonormal basis u_j of the model space H^2 minus B H^2: column j of the read-only (D+1) x n array U."""

    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", _freeze(self.U))

    @property
    def dim(self) -> int:
        return self.U.shape[1]


def model_basis(B: BlaschkeProduct, D: int) -> ModelSpaceBasis:
    """Takenaka-Malmquist-Walsh basis of the model space attached to B,
    truncated at degree D. Memoized by (B, D): every caller, the shell
    frame of wold included, receives the same read-only object.

    With a_1..a_n the zeros of B counted with multiplicity (in
    expanded_zeros order),
    e_k = sqrt(1 - |a_k|^2) k_(a_k) * prod_(i<k) (z - a_i)/(1 - conj(a_i) z)
    is analytically orthonormal in H^2 (always H^2, even when the ambient
    weight differs) for any zero list, repeated or near-coincident, so no
    Gram-Schmidt or rank test is needed. B = z^n gives 1, z, ..., z^(n-1).
    """
    return _model_basis(B, D)


@lru_cache(maxsize=64)
def _model_basis(B: BlaschkeProduct, D: int) -> ModelSpaceBasis:
    prefix = TaylorPoly.one(D).coeffs  # prod_(i<k) of the Blaschke factors
    U = np.empty((D + 1, B.degree), dtype=complex)
    for k, a in enumerate(B.expanded_zeros()):
        U[:, k] = _trunc_mul(prefix, np.sqrt(1.0 - abs(a) ** 2) * reproducing_kernel(a, D).coeffs, D)
        prefix = _trunc_mul(prefix, blaschke_factor_taylor(a, D).coeffs, D)
    return ModelSpaceBasis(_readonly(U))
