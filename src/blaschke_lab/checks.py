"""Check batteries behind the CLI commands.

Each battery turns a validated experiment configuration into a list of
CheckRecords (plus optional payload data); it is called as (cfg, rng) and
reads the tolerances and the strict flag from cfg. A library guard is
passed only when the config sets it, so each default lives once, in the
function that reads it. All randomness flows from the config seed through
numpy's default_rng (PCG64); records are assembled in a fixed order so
reports are reproducible byte for byte.
"""

from __future__ import annotations

import dataclasses
import math
import time
from functools import cache, partial

import numpy as np

from . import commutant as cm
from . import ortho as ox
from . import reducing as rd
from . import wold
from .blaschke import BlaschkeProduct, model_basis
from .errors import BlaschkeLabError, ConfigError, DimensionMismatchError, config_float, config_int
from .report import CheckRecord
from .spaces import OperatorMatrix, TaylorPoly, _readonly, as_weight, safe_degree

#: default tolerances per check family (overridable through config).
CHECK_TOLERANCES = {
    "roundtrip": 1e-8,
    "commute": 1e-8,
    "symbol_roundtrip": 1e-7,
    "reducing_monomial": 1e-10,
    "reducing_mobius": 1e-6,
    "k0_orthogonality": 1e-8,
    "projection_law": 1e-10,
    "block_orthogonality": 1e-9,
    "shift_action": 1e-8,
    "triangularity": 1e-7,
    "unitarity": 1e-10,
    "intertwining": 1e-13,
    "bnorm_identity": 1e-9,
    "shell_shift": 1e-8,
    "cowen_member": 1e-12,
    "witness_margin": 1.0,
}


def _timed(cfg, records: list[CheckRecord], name: str, tolerance: float, fn):
    t0 = time.perf_counter()
    try:
        residual = float(fn())
        err = None
    except BlaschkeLabError as exc:
        if cfg.strict:
            raise
        residual = float("nan")
        err = f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1e3
    passed = np.isfinite(residual) and residual < tolerance
    records.append(
        CheckRecord(
            name=name,
            residual=residual,
            tolerance=tolerance,
            passed=bool(passed),
            wall_time_ms=ms,
            error=err,
        )
    )


def _setup(step: str, fn):
    """fn's value, computed on first use and kept. Call it inside the timed
    steps that need it, so a setup error fails those records (naming the
    step) instead of aborting the report."""

    @cache
    def value():
        try:
            return fn()
        except BlaschkeLabError as exc:
            raise type(exc)(f"setup {step}: {exc}") from exc

    return value


def _random_poly(rng: np.random.Generator, degree: int) -> TaylorPoly:
    return TaylorPoly(_readonly(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)))


def _random_phi(rng: np.random.Generator, n: int, deg: int) -> cm.MultiplierMatrix:
    return cm.MultiplierMatrix.from_polys([[_random_poly(rng, deg) for _ in range(n)] for _ in range(n)])


def _tol(cfg, key: str) -> float:
    return float(cfg.tolerances.get(key, CHECK_TOLERANCES[key]))


def _guard(cfg, key: str) -> dict:
    """{key: value} when the config sets the guard, else {}."""
    return {key: cfg.tolerances[key]} if key in cfg.tolerances else {}


def _input(cfg, key: str, default=None):
    """inputs.<key> as INPUT_READERS reads it, else default. parse_config
    has run every reader, so a battery never meets a bad value."""
    return INPUT_READERS[key](cfg.inputs[key], f"inputs.{key}") if key in cfg.inputs else default


def _shells(cfg) -> int:
    """The configured shell count, else the one derived from (B, D)."""
    return cfg.shells if cfg.shells is not None else wold.shell_count(cfg.blaschke, cfg.degree)


# ---------------------------------------------------------------------------


def decompose_checks(cfg, rng: np.random.Generator):
    """Round-trip residuals of the shell decomposition on the safe block."""
    records: list[CheckRecord] = []
    data: dict = {}
    B, D = cfg.blaschke, cfg.degree
    M = _shells(cfg)
    D_safe = safe_degree(D)
    tol = _tol(cfg, "roundtrip")

    if (f := _input(cfg, "f")) is not None:
        inputs = [("explicit", f)]
    else:
        num, max_deg = _input(cfg, "num_samples", 5), _input(cfg, "max_degree", min(16, max(D // 4, 1)))
        inputs = [(f"sample_{i}", _random_poly(rng, int(rng.integers(0, max_deg + 1)))) for i in range(num)]

    decs = {}  # the decomposition of each round trip that completed
    for label, f in inputs:
        def roundtrip(f=f, label=label):
            dec = wold.analyze(f, B, M, D)
            g = wold.synthesize(dec, D)
            diff = (g - f.pad(D)).coeffs[: D_safe + 1]
            decs[label] = dec
            return np.linalg.norm(diff)

        _timed(cfg, records, f"decompose/{label}/roundtrip_h2", tol, roundtrip)

    if (dec := decs.get("explicit")) is not None:
        data["decomposition"] = dec.to_json()
    return records, data


def commutant_checks(cfg, rng: np.random.Generator):
    """Forward commutation and symbol round trips for built operators."""
    records: list[CheckRecord] = []
    B, D, w = cfg.blaschke, cfg.degree, as_weight(cfg.alpha)
    n = B.degree
    M = _shells(cfg)

    if (phi := _input(cfg, "phi")) is not None:  # parse_config checked that it is n x n
        phis = [("explicit", phi)]
    else:
        num, deg = _input(cfg, "num_samples", 3), _input(cfg, "symbol_degree", 4)
        phis = [(f"phi_{i}", _random_phi(rng, n, deg)) for i in range(num)]

    for label, phi in phis:
        built = {}

        def commute(phi=phi, built=built):
            op = cm.build(phi, B, w, M, D)
            built["op"] = op
            return op.residual

        _timed(cfg, records, f"commutant/{label}/commutation", _tol(cfg, "commute"), commute)

        def roundtrip(phi=phi, built=built):
            # Phi's coefficients past shell M have no shell to come back on
            T = int(max(np.flatnonzero(phi.coeffs.any(axis=(1, 2))), default=0))
            if M < T:
                raise DimensionMismatchError(f"symbol degree T = {T} exceeds the shell count M = {M}; increase D or shells")
            if "op" not in built:
                built["op"] = cm.build(phi, B, w, M, D)
            syms = cm.extract_symbols(built["op"], B, **_guard(cfg, "tol_commute"))
            phi2 = cm.symbols_to_matrix(syms, B, M)
            return float(np.max(np.abs((phi - phi2).coeffs)))

        _timed(cfg, records, f"commutant/{label}/symbol_roundtrip", _tol(cfg, "symbol_roundtrip"), roundtrip)
    return records, {}


def reducing_checks(cfg, rng: np.random.Generator):
    records: list[CheckRecord] = []
    data: dict = {}
    B, D = cfg.blaschke, cfg.degree
    w = as_weight(cfg.alpha)
    family = _input(cfg, "family", "monomial")

    if family == "monomial":
        N = B.degree
        for j in range(N):
            P = _setup("monomial_reducing_projection", lambda j=j: rd.monomial_reducing_projection(N, j, w, D))
            _timed(
                cfg, records, f"reducing/monomial_{j}/projection_laws", _tol(cfg, "projection_law"),
                lambda P=P: max(rd.projection_defects(P())),
            )
            _timed(
                cfg, records, f"reducing/monomial_{j}/residual", _tol(cfg, "reducing_monomial"),
                lambda P=P: rd.reducing_residual(P(), B),
            )
    elif family == "mobius_power":  # parse_config admits it only for B = b_a^N and alpha = -1
        a, N = _input(cfg, "a", _MOBIUS_A), B.degree

        def k0():
            # derivative kernels z^j/(1-conj(a) z)^(j+2), j < N, against B A, the weight on the
            # N kernel rows: column j holds comb(k+1, j+1) conj(a)^(k-j) at degrees k >= j
            TB = B.toeplitz(D)
            k, jj = np.arange(D + 1)[:, None], np.arange(N)[None, :]
            binom = np.cumprod((k + 1 - jj) / (jj + 1.0), axis=1)  # comb(k+1, j+1), 0 for k < j
            G = binom * np.conj(a) ** np.maximum(k - jj, 0)
            return float(np.max(np.abs((G.conj().T * w.diagonal(D)) @ TB[:, : safe_degree(D) + 1])))

        _timed(cfg, records, "reducing/mobius/k0_orthogonality", _tol(cfg, "k0_orthogonality"), k0)
        for j in range(N):
            _timed(
                cfg, records, f"reducing/mobius_{j}/residual", _tol(cfg, "reducing_mobius"),
                lambda j=j: rd.mobius_power_reducing_residual(a, N, j, D, B, **_guard(cfg, "rho_max")),
            )
    else:  # custom, which parse_config admits only with a basis
        funcs = _input(cfg, "basis")
        P = _setup("projection_from_basis", lambda: rd.projection_from_basis(funcs, w, D))
        tol = _tol(cfg, "reducing_mobius") if _input(cfg, "expected") == "reducing" else float("inf")

        def custom():
            idem, sa = rd.projection_defects(P())
            data["custom_projection"] = {"idempotency_defect": idem, "selfadjoint_defect": sa}
            return rd.reducing_residual(P(), B)

        _timed(cfg, records, "reducing/custom/residual", tol, custom)
    return records, data


def ortho_checks(cfg, rng: np.random.Generator):
    records: list[CheckRecord] = []
    data: dict = {}
    B, D, w = cfg.blaschke, cfg.degree, as_weight(cfg.alpha)
    state = {}

    def build_chain():
        try:
            state["chain"] = ox.x_spaces(B, w, _input(cfg, "kmax", 3), D)
        except ValueError as exc:
            raise ConfigError(f"ortho needs a larger degree or a smaller inputs.kmax: {exc}") from exc
        return 0.0

    _timed(cfg, records, "ortho/chain_constructed", 0.5, build_chain)
    chain = state.get("chain")
    if chain is None:
        return records, data
    kmax = chain.kmax
    data["block_dims"] = [chain.block_dim] * (kmax + 1)

    def orthogonality():
        S = chain.X
        G = np.abs(S.conj().T @ (w.diagonal(D)[:, None] * S))
        K, N = kmax + 1, chain.block_dim
        # max over each (k, l) block, then over the blocks above the diagonal
        block_max = G.reshape(K, N, K, N).max(axis=(1, 3))
        return float(np.max(block_max[np.triu_indices(K, 1)], initial=0.0))

    _timed(cfg, records, "ortho/block_orthogonality", _tol(cfg, "block_orthogonality"), orthogonality)

    def shift_action():
        # T_B maps X_k into B^(k+1) A, which is orthogonal to X_0, ..., X_k:
        # the blocks [l, k], l <= k, of T_B against the chain vanish
        blocks = ox.block_matrix(OperatorMatrix(B.toeplitz(D), w), chain)
        N = chain.block_dim
        return max((np.linalg.norm(blocks[: k + 1, k].reshape(-1, N), 2) for k in range(kmax)), default=0.0)

    _timed(cfg, records, "ortho/shift_action", _tol(cfg, "shift_action"), shift_action)

    def triangularity():
        phi = _random_phi(rng, B.degree, 4)
        op = cm.build(phi, B, w, _shells(cfg), D)
        blocks = ox.block_matrix(op, chain)
        above = np.triu_indices(kmax + 1, 1)  # (l, k) with l < k
        return float(np.max(np.linalg.norm(blocks, 2, axis=(2, 3))[above], initial=0.0))

    _timed(cfg, records, "ortho/commutant_triangularity", _tol(cfg, "triangularity"), triangularity)
    return records, data


def shift_equiv_checks(cfg, rng: np.random.Generator):
    records: list[CheckRecord] = []
    B, D, w = cfg.blaschke, cfg.degree, as_weight(cfg.alpha)
    # parse_config admits mode 'monomial' only for B = z^n
    if _input(cfg, "mode", "monomial" if B == BlaschkeProduct.monomial(B.degree) else "general") == "monomial":
        J = _setup("shift_equiv_monomial", lambda: rd.shift_equiv_monomial(B.degree, w, D))
        _timed(cfg, records, "shift_equiv/unitarity", _tol(cfg, "unitarity"), lambda: rd.unitarity_defect(J()))
        _timed(cfg, records, "shift_equiv/intertwining", _tol(cfg, "intertwining"), lambda: rd.intertwining_residual(J()))
    else:
        # images h B^k while B^k fits the window, and never fewer than three,
        # analysed on shells that cover them
        M = max(2, wold.power_count(B, D))
        M_ana = max(_shells(cfg), M)

        def general():
            if (h := _input(cfg, "h")) is None:
                h = TaylorPoly(model_basis(B, D).U[:, 0])
            return rd.shift_equiv_general(B, h, w, M, D)

        intertwiner = _setup("shift_equiv_general", general)
        bnorm, shift = _tol(cfg, "bnorm_identity"), _tol(cfg, "shell_shift")
        _timed(cfg, records, "shift_equiv/bnorm_identity", bnorm, lambda: rd.bnorm_defect(intertwiner(), M_ana))
        _timed(cfg, records, "shift_equiv/shell_shift", shift, lambda: rd.shell_shift_residual(intertwiner(), M_ana))
    return records, {}


def cowen_checks(cfg, rng: np.random.Generator):
    records: list[CheckRecord] = []
    B, D = cfg.blaschke, cfg.degree
    num, radius = _input(cfg, "num_points", 20), _input(cfg, "radius", 0.5)
    pts = [
        radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(num)
    ]

    def member(W):
        return lambda: cm.cowen_residual(W, B, pts)

    _timed(cfg, records, "cowen/T_B", _tol(cfg, "cowen_member"), member(OperatorMatrix(B.toeplitz(D), 0.0)))
    _timed(cfg, records, "cowen/identity", _tol(cfg, "cowen_member"), member(OperatorMatrix(np.eye(D + 1), 0.0)))

    def witness():
        worst = cm.cowen_residual(OperatorMatrix(np.eye(D + 1, k=1), 0.0), B, pts)  # the H^2 adjoint shift
        return 1e-2 / max(worst, 1e-300)  # pass iff the witness exceeds 1e-2

    _timed(cfg, records, "cowen/adjoint_shift_witness_margin", _tol(cfg, "witness_margin"), witness)
    return records, {}


def suite_checks(cfg, rng: np.random.Generator):
    """Fixed-order composition of the per-command batteries on one shell count."""
    records: list[CheckRecord] = []
    data: dict = {}
    cfg = dataclasses.replace(cfg, shells=_shells(cfg))
    for name in SUITE_COMMANDS:
        fn = BATTERIES[name]
        recs, d = fn(cfg, rng)
        records.extend(recs)
        if d:
            data[name] = d
    # reducing battery: monomial family on z^N with the config degree
    mono_cfg = dataclasses.replace(
        cfg,
        blaschke=BlaschkeProduct.monomial(cfg.blaschke.degree),
        inputs={"family": "monomial"},
    )
    recs, d = reducing_checks(mono_cfg, rng)
    records.extend(recs)
    if d:
        data["reducing"] = d
    return records, data


#: the batteries suite runs on the config's inputs, in report order; it adds
#: the reducing battery's monomial family on z^N with inputs of its own.
SUITE_COMMANDS = ("decompose", "commutant", "ortho", "shift-equiv", "cowen")

BATTERIES = {
    "decompose": decompose_checks,
    "commutant": commutant_checks,
    "reducing": reducing_checks,
    "ortho": ortho_checks,
    "shift-equiv": shift_equiv_checks,
    "cowen": cowen_checks,
    "suite": suite_checks,
}

#: inputs keys each battery reads; suite forwards its inputs to the
#: batteries of SUITE_COMMANDS, so it reads the keys of all of them.
INPUT_KEYS = {
    "decompose": ("f", "num_samples", "max_degree"),
    "commutant": ("phi", "num_samples", "symbol_degree"),
    "reducing": ("family", "a", "basis", "expected"),
    "ortho": ("kmax",),
    "shift-equiv": ("mode", "h"),
    "cowen": ("num_points", "radius"),
}
INPUT_KEYS["suite"] = tuple(dict.fromkeys(key for name in SUITE_COMMANDS for key in INPUT_KEYS[name]))

#: the Mobius point of the reducing family mobius_power when inputs.a is absent.
_MOBIUS_A = 0.5 + 0j


# ---------------------------------------------------------------------------
# inputs readers: each is called as (value, name) and returns the value a
# battery uses, or raises a ConfigError that names inputs.<key> and the index.


def _radius(value, name: str) -> float:
    """A sampling radius inside the disc, off the origin."""
    x = config_float(value, name)
    if not 0.0 < x < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {x!r}")
    return x


def _choice(label: str, *valid: str):
    """Reader of one of valid; its error names the key as label and lists valid."""

    def read(value, name):
        if value not in valid:
            raise ConfigError(f"unknown {label} {value!r}; valid values: {', '.join(valid)}")
        return value

    return read


def _pair(value, name: str) -> complex:
    """[re, im] as re + i im, two finite numbers read by config_float."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{name} must be [re, im], two numbers, got {value!r}")
    re, im = (config_float(x, f"{name}[{i}]") for i, x in enumerate(value))
    for i, x in enumerate((re, im)):
        if not math.isfinite(x):
            raise ConfigError(f"{name}[{i}] must be finite, got {x!r}")
    return complex(re, im)


def _list(item):
    """Reader of a nonempty list, entry i read by item as name[i]."""

    def read(value, name):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
        return [item(x, f"{name}[{i}]") for i, x in enumerate(value)]

    return read


def _poly(value, name: str) -> TaylorPoly:
    """A function as the list of its [re, im] Taylor coefficients."""
    return TaylorPoly(_list(_pair)(value, name))


def _symbol(value, name: str) -> cm.MultiplierMatrix:
    """A square matrix of polynomial multipliers, as rows of functions."""
    try:
        return cm.MultiplierMatrix.from_polys(_list(_list(_poly))(value, name))
    except ValueError as exc:  # not square, or past the degree cap
        raise ConfigError(f"{name}: {exc}") from exc


#: the one reader of each inputs key.
INPUT_READERS = {
    "f": _poly,
    "num_samples": partial(config_int, minimum=1),
    "max_degree": partial(config_int, minimum=0),
    "phi": _symbol,
    "symbol_degree": partial(config_int, minimum=0),
    "family": _choice("reducing family", "monomial", "mobius_power", "custom"),
    "a": _pair,
    "basis": _list(_poly),
    "expected": _choice("custom expected", "reducing", "report-only"),
    "kmax": partial(config_int, minimum=0),
    "mode": _choice("shift-equiv mode", "monomial", "general"),
    "h": _poly,
    "num_points": partial(config_int, minimum=1),
    "radius": _radius,
}


def check_inputs(inputs: dict, B: BlaschkeProduct, alpha: float) -> None:
    """Run the reader of every key of inputs, then the checks across keys,
    each a ConfigError: shift-equiv mode 'monomial' on a B other than z^n,
    since its intertwiner is built for T_(z^n) and its records would not
    measure T_B; a phi that is not deg B square; the custom family without
    a basis; and the mobius_power family unless a != 0, every zero of B is a
    and alpha = -1, where its classes reduce T_B."""
    read = {key: INPUT_READERS[key](value, f"inputs.{key}") for key, value in inputs.items()}
    if read.get("mode") == "monomial" and B != BlaschkeProduct.monomial(B.degree):
        raise ConfigError(f"shift-equiv mode 'monomial' requires B = z^{B.degree}; set mode 'general' for this B")
    if "phi" in read and read["phi"].n != B.degree:
        raise ConfigError(f"inputs.phi is {read['phi'].n} x {read['phi'].n} but deg B = {B.degree}")
    family = read.get("family")
    if family == "custom" and "basis" not in read:
        raise ConfigError("custom family requires inputs.basis")
    if family == "mobius_power":
        a = read.get("a", _MOBIUS_A)
        if a == 0:
            raise ConfigError("inputs.a must be nonzero for family 'mobius_power'; for B = z^N use family 'monomial'")
        if any(z != a for z, _ in B.zeros):
            raise ConfigError("mobius_power family requires B to be a power of the factor through a")
        if alpha != -1.0:
            raise ConfigError("mobius_power family is defined on the Bergman weight; set alpha = -1")
