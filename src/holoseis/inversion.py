"""Iteratively regularized Gauss-Newton inversion on covariance data.

Each outer iteration linearizes the covariance map at the current iterate and
solves the Lavrentiev-weighted normal equation

    (C'* (Gamma_n x Gamma_n) C' + alpha_n I) dq
        = C'* (Gamma_n x Gamma_n)(Corr - C[q_n]) + alpha_n (q_0 - q_n)

by conjugate gradients, matrix-free through the holographic derivative and
adjoint (only Gamma_n is ever needed, never its square root).  The
regularization follows the power law alpha_n = alpha_0 * ALPHA_DECAY^n
(ALPHA_DECAY = 0.9) with alpha_0 the largest eigenvalue of the first normal
operator; the loop stops by a discrepancy rule whose noise level comes from
the separable trace tr(C_4) = tr(C)^2 of the realization-noise covariance.

Mass-conserving flow updates replace the normal equation by the saddle-point
system with the divergence constraint enforced through a Lagrange
multiplier; the constraint operator shares its stencil with the medium's
divergence check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .errors import (
    ConstraintDegenerateError,
    NumericalBreakdownError,
    UsageError,
)
from .greens import Grid, GreensOperator, assemble_green
from .holography import (
    LinearizedModel,
    NoiseWeight,
    apply_adjoint,
    apply_derivative,
    build_model,
    sensitivity_kernel,
    smooth_field,
    weight_trace_product,
    weighted_residual,
)
from .medium import FrequencyContext, MediumParams, flow_divergence_matrix
from .stochastic import CovarianceOperator, hs_inner

logger = logging.getLogger(__name__)

__all__ = [
    "FrequencyData",
    "InversionConfig",
    "InversionState",
    "ConstraintOperator",
    "CGResult",
    "lavrentiev_weight",
    "default_lavrentiev_beta",
    "cg_normal_solve",
    "power_iteration",
    "irgnm_step",
    "run_irgnm",
    "reduce_constraint_rows",
]

SCALAR_INVERTIBLE = ("S", "c", "gamma", "rho")
ALPHA_DECAY = 0.9  # ratio of successive regularization parameters
NONNEGATIVE_QUANTITIES = ("S", "c")
GREENS_BUDGET_BYTES = 2 * 1024**3  # reference operators kept across iterates


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------
@dataclass
class FrequencyData:
    """Measured correlation operator at one frequency plus its sample count."""

    freq: FrequencyContext
    corr: CovarianceOperator
    n_realizations: int


@dataclass
class InversionConfig:
    grid: Grid
    q0: MediumParams
    quantities: Tuple[str, ...]
    alpha0: Optional[float] = None  # None: largest eigenvalue by power iteration
    alpha0_scale: float = 1.0  # multiplier on the power-iteration eigenvalue
    tau: float = 1.05
    beta: Optional[float] = None  # None: 0.1 tr(C_n)/dim per frequency
    max_outer: int = 15
    max_cg: int = 50
    cg_tol: float = 1e-6
    weighted: bool = True
    smoothing_width: float = 0.0
    boundary_src: Optional[np.ndarray] = None
    constraint: Optional["ConstraintOperator"] = None

    def __post_init__(self):
        for q in self.quantities:
            if q not in SCALAR_INVERTIBLE + ("u",):
                raise UsageError(f"cannot invert for quantity {q!r}")
        if "u" in self.quantities and tuple(self.quantities) != ("u",):
            raise UsageError("flow inversion must be configured alone")
        if "u" in self.quantities and self.constraint is None:
            raise UsageError("flow inversion requires the mass-conservation constraint")


@dataclass
class InversionState:
    """Outer-iteration state: iterate and schedule position."""

    q_n: MediumParams
    q_0: MediumParams
    alpha_0: float
    iteration: int = 0

    @property
    def alpha_n(self) -> float:
        return self.alpha_0 * ALPHA_DECAY**self.iteration


@dataclass
class ConstraintOperator:
    """Density-weighted divergence operator for mass-conserving flow updates."""

    matrix: sparse.csr_matrix
    grid: Grid

    @classmethod
    def from_medium(cls, grid: Grid, rho: np.ndarray) -> "ConstraintOperator":
        return cls(matrix=flow_divergence_matrix(grid, rho), grid=grid)


# ---------------------------------------------------------------------------
# Parameter vector packing
# ---------------------------------------------------------------------------
class ParameterSpace:
    """Flat real coordinates for a set of inverted quantities."""

    def __init__(self, grid: Grid, quantities: Sequence[str]):
        self.grid = grid
        self.quantities = tuple(quantities)
        n = grid.n_interior
        self.block_size = {q: (n * grid.dim if q == "u" else n) for q in self.quantities}
        self.size = sum(self.block_size.values())
        w = grid.interior_weights
        parts = [np.tile(w, grid.dim) if q == "u" else w for q in self.quantities]
        self.weights = np.concatenate(parts) if parts else np.zeros(0)

    def pack(self, fields: Dict[str, np.ndarray]) -> np.ndarray:
        parts = []
        for q in self.quantities:
            f = np.asarray(fields[q], dtype=float)
            parts.append(f.ravel(order="F"))
        return np.concatenate(parts)

    def unpack(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        out = {}
        pos = 0
        n = self.grid.n_interior
        for q in self.quantities:
            size = self.block_size[q]
            blk = flat[pos : pos + size]
            out[q] = blk.reshape(n, self.grid.dim, order="F") if q == "u" else blk.copy()
            pos += size
        return out

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(a * b * self.weights))

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))


# ---------------------------------------------------------------------------
# Lavrentiev weight and CG
# ---------------------------------------------------------------------------
def default_lavrentiev_beta(cov: CovarianceOperator) -> float:
    """beta = 0.1 tr(C)/dim: a fixed fraction of the mean eigenvalue."""
    return 0.1 * cov.trace() / cov.n


def lavrentiev_weight(cov: CovarianceOperator, beta: float) -> NoiseWeight:
    """Weight Gamma_n = (beta Id + C)^{-1} via a Hermitian eigendecomposition.

    The returned kernel is Hermitian PSD; as an operator on the receiver
    quadrature its eigenvalues are 1/(beta + lambda_i) in (0, 1/beta].
    """
    if beta <= 0:
        raise UsageError("Lavrentiev beta must be positive")
    w = cov.weights
    m = beta * np.diag(w) + w[:, None] * cov.matrix * w[None, :]
    m = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(m)
    if np.min(vals) <= 0:
        raise NumericalBreakdownError("weight system lost positive definiteness")
    inv = (vecs / vals[None, :]) @ vecs.conj().T
    return NoiseWeight(
        gamma_n=0.5 * (inv + inv.conj().T), lavrentiev_beta=float(beta), weights=w.copy()
    )


@dataclass
class CGResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: List[float]


def cg_normal_solve(
    apply_normal: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    alpha: float,
    max_iter: int = 50,
    tol: float = 1e-6,
    weights: Optional[np.ndarray] = None,
) -> CGResult:
    """Conjugate gradients on the self-adjoint PSD system (N + alpha I) x = rhs.

    apply_normal evaluates N x (without the alpha shift).  The inner product
    is quadrature-weighted when weights are supplied, which is what makes the
    matrix-free normal operator exactly self-adjoint.
    """

    def inner(a, b):
        return float(np.sum(a * b * weights)) if weights is not None else float(a @ b)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rs = inner(r, r)
    rs0 = rs
    norms = [np.sqrt(max(rs, 0.0))]
    if rs0 == 0.0:
        return CGResult(x=x, converged=True, iterations=0, residual_norms=norms)
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        q = apply_normal(d) + alpha * d
        if not np.all(np.isfinite(q)):
            raise NumericalBreakdownError("non-finite values in normal-operator apply")
        dq = inner(d, q)
        if dq <= 0:
            logger.warning("CG curvature %.3e <= 0 at iteration %d; stopping", dq, it)
            break
        a = rs / dq
        x = x + a * d
        r = r - a * q
        rs_new = inner(r, r)
        norms.append(np.sqrt(max(rs_new, 0.0)))
        iterations = it
        if np.sqrt(rs_new / rs0) <= tol:
            converged = True
            break
        d = r + (rs_new / rs) * d
        rs = rs_new
    return CGResult(x=x, converged=converged, iterations=iterations, residual_norms=norms)


def power_iteration(
    apply_op: Callable[[np.ndarray], np.ndarray],
    size: int,
    weights: Optional[np.ndarray] = None,
    tol: float = 0.01,
    max_iter: int = 100,
    seed: int = 0,
) -> float:
    """Largest eigenvalue of a self-adjoint PSD operator to ~1% accuracy."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal(size)

    def inner(a, b):
        return float(np.sum(a * b * weights)) if weights is not None else float(a @ b)

    lam = 0.0
    v /= np.sqrt(inner(v, v))
    for _ in range(max_iter):
        av = apply_op(v)
        lam_new = inner(v, av)
        nrm = np.sqrt(inner(av, av))
        if nrm == 0.0:
            return 0.0
        v = av / nrm
        if lam_new > 0 and abs(lam_new - lam) <= tol * abs(lam_new):
            return float(lam_new)
        lam = lam_new
    return float(lam)


# ---------------------------------------------------------------------------
# The Newton step machinery
# ---------------------------------------------------------------------------
def _build_stack(
    params: MediumParams,
    data: Sequence[FrequencyData],
    config: InversionConfig,
    greens_cache: Dict[float, GreensOperator],
) -> List[Tuple[FrequencyData, LinearizedModel, CovarianceOperator, Optional[NoiseWeight]]]:
    """Per-frequency forward stack at the current iterate."""
    stack = []
    for item in data:
        omega = item.freq.omega
        g_ref = greens_cache.get(omega)
        if g_ref is None:
            k_ref = params.reference_wavenumber(item.freq)
            g_ref = assemble_green(config.grid, k_ref)
            if (len(greens_cache) + 1) * 16 * config.grid.n_nodes**2 <= GREENS_BUDGET_BYTES:
                greens_cache[omega] = g_ref
        model = build_model(
            params,
            item.freq,
            quantities=config.quantities,
            g_ref=g_ref,
            boundary_src=config.boundary_src,
        )
        cov = model.covariance()
        weight = None
        if config.weighted:
            if config.beta is not None:
                beta = config.beta
            else:
                # 0.1 tr(C_n)/dim, floored by the data trace so the weight
                # stays finite when the iterate produces no covariance yet
                beta = max(default_lavrentiev_beta(cov), default_lavrentiev_beta(item.corr))
            if beta > 0:
                weight = lavrentiev_weight(cov, beta)
        stack.append((item, model, cov, weight))
    return stack


def _misfit_and_noise(stack) -> Tuple[float, float]:
    misfit_sq = 0.0
    noise_sq = 0.0
    for item, _model, cov, weight in stack:
        resid = item.corr.matrix - cov.matrix
        w_rec = cov.weights
        if weight is None:
            misfit_sq += hs_inner(resid, resid, w_rec).real
            tr = cov.trace()
        else:
            rw = weighted_residual(weight, resid)
            misfit_sq += hs_inner(rw, resid, w_rec).real
            tr = weight_trace_product(weight, cov)
        noise_sq += tr**2 / item.n_realizations
    return float(np.sqrt(max(misfit_sq, 0.0))), float(np.sqrt(noise_sq))


def _make_normal_operator(
    stack, space: ParameterSpace, config: InversionConfig
) -> Callable[[np.ndarray], np.ndarray]:
    grid = config.grid
    width = config.smoothing_width

    def apply_smooth(flat: np.ndarray) -> np.ndarray:
        if width <= 0:
            return flat
        fields = space.unpack(flat)
        for q, f in fields.items():
            if q == "u":
                fields[q] = np.column_stack(
                    [smooth_field(grid, f[:, i], width) for i in range(f.shape[1])]
                )
            else:
                fields[q] = smooth_field(grid, f, width)
        return space.pack(fields)

    def normal(flat: np.ndarray) -> np.ndarray:
        flat_s = apply_smooth(flat)
        dq = space.unpack(flat_s)
        acc = np.zeros_like(flat)
        for _item, model, _cov, weight in stack:
            dc = apply_derivative(model, dq)
            dc_w = weighted_residual(weight, dc) if weight is not None else dc
            duals = apply_adjoint(model, dc_w, space.quantities)
            acc += space.pack(duals)
        return apply_smooth(acc)

    return normal, apply_smooth


def _stack_rhs(stack, space: ParameterSpace) -> np.ndarray:
    acc = np.zeros(space.size)
    for item, model, cov, weight in stack:
        resid = item.corr.matrix - cov.matrix
        rw = weighted_residual(weight, resid) if weight is not None else resid
        duals = apply_adjoint(model, rw, space.quantities)
        acc += space.pack(duals)
    return acc


def irgnm_step(
    state: InversionState,
    data: Sequence[FrequencyData],
    config: InversionConfig,
    greens_cache: Optional[Dict[float, GreensOperator]] = None,
    stack=None,
) -> Tuple[Dict[str, np.ndarray], InversionState, dict]:
    """One Gauss-Newton update at the current iterate.

    Returns the update fields, the advanced state (iterate replaced, schedule
    moved one step), and per-step diagnostics.
    """
    if greens_cache is None:
        greens_cache = {}
    if stack is None:
        stack = _build_stack(state.q_n, data, config, greens_cache)
    space = ParameterSpace(config.grid, config.quantities)
    misfit, noise = _misfit_and_noise(stack)

    if tuple(config.quantities) == ("u",):
        delta, info = _constrained_step_from_stack(
            stack, space, config, alpha=state.alpha_n
        )
        dq_fields = {"u": delta}
        cg_info = info
    else:
        normal, apply_smooth = _make_normal_operator(stack, space, config)
        rhs = _stack_rhs(stack, space)
        prox = space.pack(
            {q: getattr(state.q_0, q) - getattr(state.q_n, q) for q in config.quantities}
        )
        rhs_total = apply_smooth(rhs) + state.alpha_n * prox
        result = cg_normal_solve(
            normal,
            rhs_total,
            alpha=state.alpha_n,
            max_iter=config.max_cg,
            tol=config.cg_tol,
            weights=space.weights,
        )
        dq_fields = space.unpack(apply_smooth(result.x))
        cg_info = {
            "cg_iterations": result.iterations,
            "cg_converged": result.converged,
        }

    q_next = state.q_n.copy()
    for q, upd in dq_fields.items():
        if q == "u":
            u0 = q_next.u if q_next.u is not None else np.zeros_like(upd)
            q_next.u = u0 + upd
        else:
            new = getattr(q_next, q) + upd
            if q in NONNEGATIVE_QUANTITIES:
                clipped = int(np.sum(new < 0))
                if clipped:
                    cg_info = {**cg_info, f"clamped_{q}": clipped}
                new = np.maximum(new, 0.0)
            setattr(q_next, q, new)

    new_state = InversionState(
        q_n=q_next,
        q_0=state.q_0,
        alpha_0=state.alpha_0,
        iteration=state.iteration + 1,
    )
    info = {
        "alpha": state.alpha_n,
        "misfit": misfit,
        "noise_level": noise,
        **cg_info,
    }
    return dq_fields, new_state, info


def run_irgnm(
    config: InversionConfig,
    data: Sequence[FrequencyData],
    truth: Optional[MediumParams] = None,
) -> Tuple[MediumParams, dict]:
    """Outer IRGNM loop with the power-law schedule and discrepancy stopping.

    Stops when the weighted misfit drops below tau * noise_level, after
    max_outer iterations, or on a divergence guard (three consecutive misfit
    increases).  Diagnostics collect the per-iteration schedule, misfits, and
    parameter errors when the ground truth is supplied.  Every run starts from
    config.q0; only one forward stack is alive at a time.
    """
    greens_cache: Dict[float, GreensOperator] = {}
    space = ParameterSpace(config.grid, config.quantities)

    # alpha_0: largest eigenvalue of the first normal operator
    stack = _build_stack(config.q0, data, config, greens_cache)
    if config.alpha0 is not None:
        alpha0 = float(config.alpha0)
    elif tuple(config.quantities) == ("u",):
        normal_mat = _flow_normal_matrix(stack, space, config)
        alpha0 = config.alpha0_scale * power_iteration(
            lambda v: normal_mat @ (space.weights * v),
            space.size,
            weights=space.weights,
        )
        del normal_mat
    else:
        normal, _ = _make_normal_operator(stack, space, config)
        alpha0 = config.alpha0_scale * power_iteration(
            normal, space.size, weights=space.weights
        )
        del normal  # the closure holds the q0 stack
    if alpha0 <= 0:
        raise NumericalBreakdownError("first normal operator has no positive spectrum")
    state = InversionState(q_n=config.q0.copy(), q_0=config.q0, alpha_0=alpha0)

    diagnostics = {
        "alpha0": alpha0,
        "iterations": [],
        "stopped_by": "max_outer",
    }
    increases = 0
    prev_misfit = None
    while state.iteration < config.max_outer:
        misfit, noise = _misfit_and_noise(stack)
        if misfit <= config.tau * noise:
            diagnostics["stopped_by"] = "discrepancy"
            break
        if prev_misfit is not None and misfit > prev_misfit:
            increases += 1
            if increases >= 3:
                diagnostics["stopped_by"] = "divergence"
                logger.warning("misfit increased 3 consecutive iterations; aborting")
                break
        else:
            increases = 0
        prev_misfit = misfit

        n = state.iteration
        dq, state, info = irgnm_step(state, data, config, greens_cache, stack=stack)
        entry = {"iteration": n, **info}
        if truth is not None:
            err = {}
            for q in config.quantities:
                t = getattr(truth, q)
                cur = getattr(state.q_n, q)
                t0 = getattr(config.q0, q)
                denom = space.norm(space.pack({q: t - t0})) if q != "u" else np.linalg.norm(t)
                num = (
                    space.norm(space.pack({q: cur - t}))
                    if q != "u"
                    else np.linalg.norm((cur if cur is not None else 0) - t)
                )
                err[q] = num / denom if denom > 0 else np.nan
            entry["param_error"] = err
        diagnostics["iterations"].append(entry)
        stack = None  # release the current stack before building the next one
        stack = _build_stack(state.q_n, data, config, greens_cache)

    misfit, noise = _misfit_and_noise(stack)
    diagnostics["final_misfit"] = misfit
    diagnostics["final_noise_level"] = noise
    return state.q_n, diagnostics


# ---------------------------------------------------------------------------
# Mass-conserving flow step (saddle-point system)
# ---------------------------------------------------------------------------
def _flow_normal_matrix(stack, space: ParameterSpace, config: InversionConfig) -> np.ndarray:
    """Dense kernel matrix of the flow normal operator, summed over frequencies."""
    grid = config.grid
    n = grid.n_interior
    d = grid.dim
    total = np.zeros((d * n, d * n))
    for _item, model, _cov, weight in stack:
        kern = sensitivity_kernel(model, ("u", "u"), weight=weight)
        for p in range(d):
            for q in range(d):
                total[p * n : (p + 1) * n, q * n : (q + 1) * n] += kern.entries[p, q]
    return total


def reduce_constraint_rows(matrix: sparse.csr_matrix, rcond: float = 1e-10) -> np.ndarray:
    """Orthonormal row-space basis V_r^T of the constraint (dense SVD).

    The one-sided boundary closure leaves the raw divergence operator rank
    deficient (its transpose annihilates a few boundary modes), which would
    make the saddle-point matrix singular; the equivalent reduced constraint
    V_r^T du = 0 has orthonormal rows and a unique multiplier.
    """
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ConstraintDegenerateError("constraint operator vanishes identically")
    rank = int(np.sum(s > rcond * s[0]))
    if rank == 0:
        raise ConstraintDegenerateError("constraint operator has numerical rank zero")
    return vt[:rank]


def _constrained_step_from_stack(
    stack,
    space: ParameterSpace,
    config: InversionConfig,
    alpha: float,
) -> Tuple[np.ndarray, dict]:
    """One mass-conserving Gauss-Newton flow update via the KKT system.

        [ C'* (Gamma x Gamma) C' + alpha Id    R* ] [du]   [ C'* (Gamma x Gamma)(Corr - C) ]
        [ R                                    0  ] [mu] = [ 0 ]

    The returned update satisfies |R du| <= 1e-8 |du|.
    """
    constraint = config.constraint
    r_full = constraint.matrix
    r_rows = reduce_constraint_rows(r_full)

    k_mat = _flow_normal_matrix(stack, space, config)
    rhs_flat = _stack_rhs(stack, space)
    n_u = space.size
    n_c = r_rows.shape[0]
    w = space.weights

    # KKT in nodal coordinates: [[W(K W + alpha I), R^T], [R, 0]] with the
    # multiplier rescaled by alpha relative to the textbook scaling (du is
    # unchanged; conditioning is better)
    kkt = np.zeros((n_u + n_c, n_u + n_c))
    kkt[:n_u, :n_u] = w[:, None] * (k_mat * w[None, :])
    kkt[:n_u, :n_u] += alpha * np.diag(w)
    kkt[:n_u, n_u:] = r_rows.T
    kkt[n_u:, :n_u] = r_rows
    rhs = np.zeros(n_u + n_c)
    rhs[:n_u] = w * rhs_flat
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConstraintDegenerateError(f"saddle-point system singular: {exc}") from exc

    delta_flat = sol[:n_u]
    mu = sol[n_u:]
    div_resid = float(np.linalg.norm(r_full @ delta_flat))
    delta_norm = float(np.linalg.norm(delta_flat))
    kkt_resid = float(np.linalg.norm(kkt @ sol - rhs) / max(np.linalg.norm(rhs), 1e-300))
    info = {
        "divergence_residual": div_resid,
        "update_norm": delta_norm,
        "kkt_relative_residual": kkt_resid,
        "multiplier_norm": float(np.linalg.norm(mu)),
    }
    if delta_norm > 0 and div_resid > 1e-8 * delta_norm:
        raise NumericalBreakdownError(
            f"constrained update violates mass conservation: {div_resid:.3e}"
        )
    delta = space.unpack(delta_flat)["u"]
    return delta, info
