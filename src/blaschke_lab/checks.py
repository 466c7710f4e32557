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
import time
from functools import cache

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


#: the least value of each integer input: a count of at least one draw, a
#: degree of at least zero.
_INPUT_MINIMUM = {"num_samples": 1, "num_points": 1, "max_degree": 0, "symbol_degree": 0}

#: the open interval of each float input: a sampling radius inside the
#: disc, off the origin.
_INPUT_INTERVAL = {"radius": (0.0, 1.0)}


def _inputs(cfg, records: list[CheckRecord], family: str, **defaults) -> list | None:
    """The named inputs, each read as the type of its default, never
    truncated: an integer no less than its _INPUT_MINIMUM, a float inside
    its open _INPUT_INTERVAL. If one is invalid, a single errored
    `<family>/inputs` record stands for the battery and the result is None;
    strict mode raises."""

    def read(key, default):
        value, name = cfg.inputs.get(key, default), f"inputs.{key}"
        if isinstance(default, float):
            x, (lo, hi) = config_float(value, name), _INPUT_INTERVAL[key]
            if not lo < x < hi:
                raise ConfigError(f"{name} must lie in ({lo:g}, {hi:g}), got {x!r}")
            return x
        return config_int(value, name, minimum=_INPUT_MINIMUM[key])

    try:
        return [read(k, d) for k, d in defaults.items()]
    except ConfigError as exc:
        if cfg.strict:
            raise
        records.append(CheckRecord(f"{family}/inputs", float("nan"), float("inf"), False, 0.0, f"ConfigError: {exc}"))
        return None


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

    inputs = []
    explicit = cfg.inputs.get("f")
    if explicit is not None:
        inputs.append(("explicit", TaylorPoly([complex(re, im) for re, im in explicit])))
    else:
        if (sizes := _inputs(cfg, records, "decompose", num_samples=5, max_degree=min(16, max(D // 4, 1)))) is None:
            return records, data
        num, max_deg = sizes
        for i in range(num):
            inputs.append((f"sample_{i}", _random_poly(rng, int(rng.integers(0, max_deg + 1)))))

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

    phis = []
    if cfg.inputs.get("phi") is not None:
        explicit = cm.MultiplierMatrix.from_json(cfg.inputs["phi"])
        if explicit.n != n:
            raise ConfigError(f"phi is {explicit.n} x {explicit.n} but deg B = {n}")
        phis.append(("explicit", explicit))
    else:
        if (sizes := _inputs(cfg, records, "commutant", num_samples=3, symbol_degree=4)) is None:
            return records, {}
        num, deg = sizes
        for i in range(num):
            phis.append((f"phi_{i}", _random_phi(rng, n, deg)))

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
    family = cfg.inputs.get("family", "monomial")  # one of INPUT_CHOICES["family"]

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
    elif family == "mobius_power":
        a = complex(*cfg.inputs.get("a", [0.5, 0.0]))
        N = B.degree
        zeros = B.expanded_zeros()
        if any(z != a for z in zeros):
            raise ConfigError(
                "mobius_power family requires B to be a power of the factor through a"
            )
        if w.alpha != -1.0:
            raise ConfigError("mobius_power family is defined on the Bergman weight; set alpha = -1")

        def k0(a=a):
            # derivative kernels z^j/(1-conj(a) z)^(j+2), j < N, against B A:
            # column j holds comb(k+1, j+1) conj(a)^(k-j) at degrees k >= j
            TB = B.toeplitz(D)
            k, jj = np.arange(D + 1)[:, None], np.arange(N)[None, :]
            binom = np.cumprod((k + 1 - jj) / (jj + 1.0), axis=1)  # comb(k+1, j+1), 0 for k < j
            G = binom * np.conj(a) ** np.maximum(k - jj, 0)
            return float(np.max(np.abs(G.conj().T @ (w.diagonal(D)[:, None] * TB[:, : safe_degree(D) + 1]))))

        _timed(cfg, records, "reducing/mobius/k0_orthogonality", _tol(cfg, "k0_orthogonality"), k0)
        for j in range(N):
            def mobius(j=j):
                P = rd.mobius_power_reducing_projection(a, N, j, D, **_guard(cfg, "rho_max"))
                return rd.reducing_residual(P, B)

            _timed(cfg, records, f"reducing/mobius_{j}/residual", _tol(cfg, "reducing_mobius"), mobius)
    else:  # custom
        basis_payload = cfg.inputs.get("basis")
        if not basis_payload:
            raise ConfigError("custom family requires inputs.basis")
        funcs = [TaylorPoly([complex(re, im) for re, im in f]) for f in basis_payload]
        P = _setup("projection_from_basis", lambda: rd.projection_from_basis(funcs, w, D))
        tol = _tol(cfg, "reducing_mobius") if cfg.inputs.get("expected") == "reducing" else float("inf")

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
        kmax = config_int(cfg.inputs.get("kmax", 3), "inputs.kmax", minimum=0)
        try:
            state["chain"] = ox.x_spaces(B, w, kmax, D)
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
    if cfg.inputs.get("mode", "monomial" if B == BlaschkeProduct.monomial(B.degree) else "general") == "monomial":
        J = _setup("shift_equiv_monomial", lambda: rd.shift_equiv_monomial(B.degree, w, D))
        _timed(cfg, records, "shift_equiv/unitarity", _tol(cfg, "unitarity"), lambda: rd.unitarity_defect(J()))
        _timed(cfg, records, "shift_equiv/intertwining", _tol(cfg, "intertwining"), lambda: rd.intertwining_residual(J()))
    else:
        # images h B^k while B^k fits the window, and never fewer than three,
        # analysed on shells that cover them
        M = max(2, wold.power_count(B, D))
        M_ana = max(_shells(cfg), M)

        def general():
            if cfg.inputs.get("h") is not None:
                h = TaylorPoly([complex(re, im) for re, im in cfg.inputs["h"]])
            else:
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
    if (read := _inputs(cfg, records, "cowen", num_points=20, radius=0.5)) is None:
        return records, {}
    num, radius = read
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

#: the valid values of each enumerated inputs key, after the name its error
#: gives the key; parse_config checks them before any battery runs.
INPUT_CHOICES = {
    "family": ("reducing family", ("monomial", "mobius_power", "custom")),
    "expected": ("custom expected", ("reducing", "report-only")),
    "mode": ("shift-equiv mode", ("monomial", "general")),
}


def check_choices(inputs: dict, B: BlaschkeProduct) -> None:
    """ConfigError for an enumerated inputs value outside INPUT_CHOICES, and
    for the shift-equiv mode 'monomial' on a B other than z^n: its
    intertwiner is built for T_(z^n), so its records would not measure T_B."""
    for key, (name, valid) in INPUT_CHOICES.items():
        if key in inputs and inputs[key] not in valid:
            raise ConfigError(f"unknown {name} {inputs[key]!r}; valid values: {', '.join(valid)}")
    if inputs.get("mode") == "monomial" and B != BlaschkeProduct.monomial(B.degree):
        raise ConfigError(f"shift-equiv mode 'monomial' requires B = z^{B.degree}; set mode 'general' for this B")
