"""Numerical toolkit for multiplication by a finite Blaschke product on
weighted coefficient spaces: shell decompositions, the commutant as matrices
of multipliers, and reducing-subspace projections, all at finite truncation
degree with every identity turned into a measurable residual."""

from .blaschke import (
    RHO_MAX,
    BlaschkeProduct,
    ModelSpaceBasis,
    blaschke_factor_taylor,
    model_basis,
    reproducing_kernel,
)
from .commutant import (
    CommutantOperator,
    MultiplierMatrix,
    build,
    commutation_residual,
    cowen_residual,
    extract_symbols,
    symbols_to_matrix,
)
from .ortho import XSpaceChain, block_matrix, x_spaces
from .reducing import (
    IntertwinerJ,
    bnorm_defect,
    intertwining_residual,
    mobius_power_reducing_projection,
    mobius_power_reducing_residual,
    monomial_reducing_projection,
    projection_from_basis,
    projection_defects,
    reducing_residual,
    shell_shift_residual,
    shift_equiv_general,
    shift_equiv_monomial,
    unitarity_defect,
)
from .report import CheckRecord, Report, parse_json, render
from .spaces import (
    OperatorMatrix,
    TaylorPoly,
    WeightAlpha,
    multiply,
    safe_degree,
    toeplitz_matrix,
    weighted_adjoint,
    weighted_inner,
    weighted_norm,
)
from .wold import (
    ShellDecomposition,
    analyze,
    norm_equivalence_ratio,
    synthesize,
)

__version__ = "0.1.0"
