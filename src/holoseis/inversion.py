"""Iteratively regularized Gauss-Newton inversion on covariance data.

Each outer iteration linearizes the covariance map at the current iterate and
solves the Lavrentiev-weighted normal equation

    (C'* (Gamma_n x Gamma_n) C' + alpha_n I) dq
        = C'* (Gamma_n x Gamma_n)(Corr - C[q_n]) + alpha_n (q_0 - q_n)

by conjugate gradients, matrix-free through the holographic derivative and
adjoint (only Gamma_n is ever needed, never its square root).

CG stops at the relative residual CG_TOL = 1e-4.  That is the loosest of
1e-2, 1e-3 and 1e-4 at which the measured reconstructions (the benchmark
workloads and the sound-speed and flow acceptance inversions) keep their
stop rule and outer-iteration count and stay within 1e-4 relative of a 1e-6
solve.  At 1e-3 a one-step flow inversion moves 8.7e-4: with a single outer
iteration the step's solve error is the reconstruction's.  The source
acceptance inversion, whose CG often ends at max_cg, moves 3e-4 to 5e-4
between any two tolerances from 1e-8 to 1e-4 alike.  A tighter solve buys
nothing the outer loop resolves (inexact Newton; Eisenstat & Walker 1996).

The regularization follows the power law alpha_n = alpha_0 * ALPHA_DECAY^n
(ALPHA_DECAY = 0.9) with alpha_0 the largest eigenvalue of the first normal
operator; the loop stops by a discrepancy rule whose noise level comes from
the separable trace tr(C_4) = tr(C)^2 of the realization-noise covariance.

Mass-conserving flow updates solve the same equation in the kernel of the
density-weighted divergence: CG runs on P N P with the divergence-free
projector P of the medium module (projected CG), the right-hand side is
projected and the update is P x, so neither a normal matrix nor a
constraint multiplier is ever formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalBreakdownError, UsageError
from .greens import Grid, GreensOperator, assemble_green
from .holography import (
    LinearizedModel,
    NoiseWeight,
    apply_adjoint,
    apply_derivative,
    build_model,
    smooth_field,
    weight_trace_product,
    weighted_residual,
)
from .medium import (
    FrequencyContext,
    MediumParams,
    divergence_free_projector,
    flow_divergence_matrix,
)
from .stochastic import CovarianceOperator, hs_inner

logger = logging.getLogger(__name__)

__all__ = [
    "FrequencyData",
    "InversionConfig",
    "InversionState",
    "CGResult",
    "lavrentiev_weight",
    "default_lavrentiev_beta",
    "cg_normal_solve",
    "power_iteration",
    "irgnm_step",
    "run_irgnm",
]

SCALAR_INVERTIBLE = ("S", "c", "gamma", "rho")
ALPHA_DECAY = 0.9  # ratio of successive regularization parameters
NONNEGATIVE_QUANTITIES = ("S", "c")
GREENS_BUDGET_BYTES = 2 * 1024**3  # reference operators kept across iterates
CG_TOL = 1e-4  # relative residual at which the inner CG stops (see module docstring)


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
    weighted: bool = True
    smoothing_width: float = 0.0
    boundary_src: Optional[np.ndarray] = None

    def __post_init__(self):
        for q in self.quantities:
            if q not in SCALAR_INVERTIBLE + ("u",):
                raise UsageError(f"cannot invert for quantity {q!r}")
        if "u" in self.quantities and tuple(self.quantities) != ("u",):
            raise UsageError("flow inversion must be configured alone")
        if "u" in self.quantities and self.smoothing_width > 0:
            raise UsageError("flow updates are projected, not smoothed: set smoothing_width 0")


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

    @property
    def relative_residual(self) -> float:
        """|r_k| / |r_0| of the returned iterate, the quantity the stop rule reads."""
        r0 = self.residual_norms[0]
        return float(self.residual_norms[-1] / r0) if r0 > 0 else 0.0


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
        if norms[-1] / norms[0] <= tol:
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


def _sandwich_operator(space: ParameterSpace, config: InversionConfig) -> Callable:
    """The symmetric S of the step's normal equation.

    CG solves (S N S + alpha_n I) x = S b + alpha_n (q_0 - q_n) and the
    update is dq = S x.  Flows: the divergence-free projector at q_0's
    density, so CG runs in the kernel of div(rho .) (projected CG).
    Scalars: the Gaussian smoother, the identity at width 0.
    """
    if space.quantities == ("u",):
        return divergence_free_projector(config.grid, config.q0.rho)
    grid = config.grid
    width = config.smoothing_width

    def apply_smooth(flat: np.ndarray) -> np.ndarray:
        if width <= 0:
            return flat
        fields = space.unpack(flat)
        return space.pack({q: smooth_field(grid, f, width) for q, f in fields.items()})

    return apply_smooth


def _make_normal_operator(
    stack, space: ParameterSpace, sandwich: Callable
) -> Callable[[np.ndarray], np.ndarray]:
    def normal(flat: np.ndarray) -> np.ndarray:
        dq = space.unpack(sandwich(flat))
        acc = np.zeros_like(flat)
        for _item, model, _cov, weight in stack:
            dc = apply_derivative(model, dq)
            dc_w = weighted_residual(weight, dc) if weight is not None else dc
            duals = apply_adjoint(model, dc_w, space.quantities)
            acc += space.pack(duals)
        return sandwich(acc)

    return normal


def _stack_rhs(stack, space: ParameterSpace) -> np.ndarray:
    acc = np.zeros(space.size)
    for item, model, cov, weight in stack:
        resid = item.corr.matrix - cov.matrix
        rw = weighted_residual(weight, resid) if weight is not None else resid
        duals = apply_adjoint(model, rw, space.quantities)
        acc += space.pack(duals)
    return acc


def _field(params: MediumParams, q: str) -> np.ndarray:
    """Field q of params; a missing flow counts as zero."""
    f = getattr(params, q)
    return np.zeros((params.grid.n_interior, params.grid.dim)) if f is None else f


def irgnm_step(
    state: InversionState,
    data: Sequence[FrequencyData],
    config: InversionConfig,
    greens_cache: Optional[Dict[float, GreensOperator]] = None,
    stack=None,
    sandwich: Optional[Callable] = None,
) -> Tuple[Dict[str, np.ndarray], InversionState, dict]:
    """One Gauss-Newton update at the current iterate.

    Returns the update fields, the advanced state (iterate replaced, schedule
    moved one step), and per-step diagnostics.  A flow update also reports
    its divergence residual |R du| and norm |du|.  `sandwich` is the
    operator of _sandwich_operator; it is built here when not given, and
    run_irgnm passes one so the projector is factored once per run.
    """
    if greens_cache is None:
        greens_cache = {}
    if stack is None:
        stack = _build_stack(state.q_n, data, config, greens_cache)
    space = ParameterSpace(config.grid, config.quantities)
    if sandwich is None:
        sandwich = _sandwich_operator(space, config)
    misfit, noise = _misfit_and_noise(stack)

    normal = _make_normal_operator(stack, space, sandwich)
    prox = space.pack(
        {q: _field(state.q_0, q) - _field(state.q_n, q) for q in space.quantities}
    )
    rhs = sandwich(_stack_rhs(stack, space)) + state.alpha_n * prox
    result = cg_normal_solve(
        normal,
        rhs,
        alpha=state.alpha_n,
        max_iter=config.max_cg,
        tol=CG_TOL,
        weights=space.weights,
    )
    update = sandwich(result.x)
    dq_fields = space.unpack(update)
    info = {
        "alpha": state.alpha_n,
        "misfit": misfit,
        "noise_level": noise,
        "cg_iterations": result.iterations,
        "cg_converged": result.converged,
        "cg_residual": result.relative_residual,
    }
    if space.quantities == ("u",):
        div = flow_divergence_matrix(config.grid, config.q0.rho)
        div_resid = float(np.linalg.norm(div @ update))
        update_norm = float(np.linalg.norm(update))
        info.update(divergence_residual=div_resid, update_norm=update_norm)
        if div_resid > 1e-8 * update_norm:
            raise NumericalBreakdownError(
                f"flow update violates mass conservation: {div_resid:.3e}"
            )

    q_next = state.q_n.copy()
    for q, upd in dq_fields.items():
        new = _field(q_next, q) + upd
        if q in NONNEGATIVE_QUANTITIES:
            clipped = int(np.sum(new < 0))
            if clipped:
                info[f"clamped_{q}"] = clipped
            new = np.maximum(new, 0.0)
        setattr(q_next, q, new)

    new_state = InversionState(
        q_n=q_next,
        q_0=state.q_0,
        alpha_0=state.alpha_0,
        iteration=state.iteration + 1,
    )
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

    # alpha_0: largest eigenvalue of the first (smoothed or projected) normal operator
    sandwich = _sandwich_operator(space, config)
    stack = _build_stack(config.q0, data, config, greens_cache)
    if config.alpha0 is not None:
        alpha0 = float(config.alpha0)
    else:
        normal = _make_normal_operator(stack, space, sandwich)
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
        dq, state, info = irgnm_step(
            state, data, config, greens_cache, stack=stack, sandwich=sandwich
        )
        entry = {"iteration": n, **info}
        if truth is not None:
            err = {}
            for q in space.quantities:
                block = ParameterSpace(config.grid, (q,))
                t = _field(truth, q)
                denom = block.norm(block.pack({q: t - _field(config.q0, q)}))
                num = block.norm(block.pack({q: _field(state.q_n, q) - t}))
                err[q] = num / denom if denom > 0 else np.nan
            entry["param_error"] = err
        diagnostics["iterations"].append(entry)
        stack = None  # release the current stack before building the next one
        stack = _build_stack(state.q_n, data, config, greens_cache)

    misfit, noise = _misfit_and_noise(stack)
    diagnostics["final_misfit"] = misfit
    diagnostics["final_noise_level"] = noise
    return state.q_n, diagnostics

