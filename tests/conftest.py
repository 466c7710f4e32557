import numpy as np
import pytest

import blaschke_lab as bl


@pytest.fixture
def B3():
    """Degree-3 product with mixed zeros, used across the suite."""
    return bl.BlaschkeProduct(0.0, [0.5, -0.3 + 0.2j, 0.1])


@pytest.fixture
def B2():
    return bl.BlaschkeProduct(0.0, [0.5, -0.3])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Test-only constructors and evaluation: the library has no caller for them.


def zero(D: int = 0) -> bl.TaylorPoly:
    """The zero function truncated at degree D."""
    return bl.TaylorPoly(np.zeros(D + 1))


def monomial(m: int, D: int | None = None) -> bl.TaylorPoly:
    """z^m truncated at degree D (default m)."""
    c = np.zeros((m if D is None else D) + 1, dtype=complex)
    c[m] = 1.0
    return bl.TaylorPoly(c)


def horner(f: bl.TaylorPoly, z: complex) -> complex:
    """The truncated series f evaluated at the point z by Horner's rule."""
    acc = 0.0 + 0.0j
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return acc


def identity(D: int, w: float = 0.0) -> bl.OperatorMatrix:
    """The identity section of degree D under the weight w."""
    return bl.OperatorMatrix(np.eye(D + 1), w)


def b_norm(dec: bl.ShellDecomposition, w) -> float:
    """Norm of the expansion: (sum_k (k+1)^alpha ||h_k||_0^2)^(1/2), with
    ||h_k||_0 read off the orthonormal shell coordinates. The oracle of
    norm_equivalence_ratio, which forms the same sum without a decomposition."""
    c = dec.coefficients
    lam = bl.spaces.as_weight(w).diagonal(dec.shell_count)  # weight of shell k, per column
    return float(np.sqrt(np.vdot(c * lam, c).real))
