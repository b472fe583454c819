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

The step operators change slowly from one outer iteration to the next, so
each solve starts from the last CG_RECYCLE = 3 step solutions (init-CG;
Fischer 1998, Erhel & Guyomarc'h 2000): their Galerkin projection onto the
new system costs one apply per solution and replaces x = 0 whenever its
residual is below |b|.  The stop rule still reads |r_k| <= CG_TOL |b|, so
the tolerance means what it did.  On the benchmark workloads this cut the
normal applies of invert-S from 164 to 119 and of invert-c from 266 to 196.

The regularization follows the power law alpha_n = alpha_0 * ALPHA_DECAY^n
(ALPHA_DECAY = 0.9) with alpha_0 the largest eigenvalue of the first normal
operator, by power iteration.  That iteration starts from the first step's
right-hand side b = S C'* Gamma (Corr - C[q_0]), the weighted hologram, so
its vectors span the Krylov space {b, N b, N^2 b, ...} in which CG looks
for the first step.  Its (v, N v) pairs are that step's history and carry
their products, so the first step's Galerkin start costs no apply: on the
imaging workload the estimate and the first step take 4 + 0 applies, not
10 + 4, and the run 9, not 19.  A zero right-hand side falls back to a
random start; a configured alpha_0 skips the estimate, and the first step
then runs as plain CG.  The loop stops by a discrepancy rule whose noise
level comes from the separable trace tr(C_4) = tr(C)^2 of the
realization-noise covariance.

Each frequency is modelled on its own lattice (FrequencyTerm): the same
block and receiver ring as the parameter lattice, at side ceil(n_x omega /
omega_max), so it keeps the parameter lattice's nodes per wavelength at its
own wavelength (greens.frequency_lattice).  The top frequency runs on the
parameter lattice itself, so a single-frequency run interpolates nothing.
The iterate reaches frequency f through the transfer map L_f of
medium.LatticeTransfer: scalars q_ref + P_f (q - q_ref), P_f bilinear, and
flows Pi_f P_f u with Pi_f the divergence-free projector at the mapped
density.  Frequency f's forward map is C_f o L_f, its derivative C'_f L_f and
its adjoint the weighted transpose W^{-1} L_f^T W_f C'_f*, W and W_f the two
interior quadratures; the receiver side, Corr, the weights, the misfit and
the noise level keep their form.  On the invert-c benchmark workload the
lattices are 15, 19 and 22 a side instead of 22 for all three: the LU cores
shrink from 3 x 484 to 225, 361 and 484, and the normal apply scales with
the sum of the n_int.

Every frequency carries a noise weight, so the misfit, the normal operator
and the right-hand side have one form.  An unweighted run uses the identity
weight on the receiver quadrature, Gamma = W^{-1}, whose W Gamma W is W; a
weighted run uses the Lavrentiev weight, whose beta must be positive.

Mass-conserving flow updates solve the same equation in the kernel of the
density-weighted divergence: CG runs on P N P with the divergence-free
projector P of the medium module (projected CG), the right-hand side is
projected and the update is P x, so neither a normal matrix nor a
constraint multiplier is ever formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NumericalBreakdownError, UsageError
from .greens import Grid, GreensOperator, assemble_green, frequency_lattice
from .holography import (
    ALL_QUANTITIES,
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
    LatticeTransfer,
    MediumParams,
    divergence_free_projector,
    flow_divergence_matrix,
)
from .stochastic import CovarianceOperator, forward_covariance, hs_inner

logger = logging.getLogger(__name__)

__all__ = [
    "FrequencyData",
    "InversionConfig",
    "InversionState",
    "CGResult",
    "lavrentiev_weight",
    "cg_normal_solve",
    "power_iteration",
    "irgnm_step",
    "run_irgnm",
]

ALPHA_DECAY = 0.9  # ratio of successive regularization parameters
NONNEGATIVE_QUANTITIES = ("S", "c")
CG_TOL = 1e-4  # relative residual at which the inner CG stops (see module docstring)
CG_RECYCLE = 3  # earlier step solutions each CG solve starts from (see module docstring)


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
    beta: Optional[float] = None  # > 0; None: 0.1 tr(C_n)/dim per frequency
    max_outer: int = 15
    max_cg: int = 50
    weighted: bool = True
    smoothing_width: float = 0.0
    boundary_src: Optional[np.ndarray] = None

    def __post_init__(self):
        for q in self.quantities:
            if q not in ALL_QUANTITIES:
                raise UsageError(f"cannot invert for quantity {q!r}")
        if "u" in self.quantities and tuple(self.quantities) != ("u",):
            raise UsageError("flow inversion must be configured alone")
        if "u" in self.quantities and self.smoothing_width > 0:
            raise UsageError("flow updates are projected, not smoothed: set smoothing_width 0")


@dataclass
class InversionState:
    """Outer-iteration state: iterate, schedule position and the vectors the
    next CG solve starts from, in CG's own variable: the last CG_RECYCLE step
    solutions, newest first, or before the first step the power iteration's
    (v, N v) pairs of the first normal operator."""

    q_n: MediumParams
    q_0: MediumParams
    alpha_0: float
    iteration: int = 0
    history: Tuple[Union[np.ndarray, Tuple[np.ndarray, np.ndarray]], ...] = ()

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
    return NoiseWeight(gamma_n=0.5 * (inv + inv.conj().T), weights=w.copy())


@dataclass
class CGResult:
    x: np.ndarray
    converged: bool
    iterations: int  # every apply of N + alpha I, the start's projection included
    residual_norms: List[float]  # |r_0| of the start, then one per CG iteration
    rhs_norm: float

    @property
    def relative_residual(self) -> float:
        """|r_k| / |b| of the returned iterate, the quantity the stop rule reads."""
        return float(self.residual_norms[-1] / self.rhs_norm) if self.rhs_norm > 0 else 0.0

    @property
    def start_residual(self) -> float:
        """|r_0| / |b| of the start: 1 from x = 0, below 1 from a recycled start."""
        return float(self.residual_norms[0] / self.rhs_norm) if self.rhs_norm > 0 else 0.0


def _w_orthonormal(
    entries: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    inner: Callable,
    apply: Callable[[np.ndarray], np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray], int]:
    """Gram-Schmidt, twice over, in the weighted inner product, of (v, A v)
    entries, A v None where unknown; a vector that keeps less than 1e-8 of
    its norm lies in the span of those before it.

    A known product is transformed with its vector, so it costs no apply; an
    unknown one is applied once its vector is orthonormal.  Returns the basis,
    its products and the number of applies.
    """
    basis: List[np.ndarray] = []
    products: List[np.ndarray] = []
    applies = 0
    for v, p in entries:
        length = np.sqrt(max(inner(v, v), 0.0))
        for _ in range(2):
            for u, pu in zip(basis, products):
                c = inner(u, v)
                v = v - c * u
                if p is not None:
                    p = p - c * pu
        rest = np.sqrt(max(inner(v, v), 0.0))
        if rest > 1e-8 * length:
            basis.append(v / rest)
            if p is None:
                products.append(apply(basis[-1]))
                applies += 1
            else:
                products.append(p / rest)
    return basis, products, applies


def cg_normal_solve(
    apply_normal: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    alpha: float,
    weights: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-6,
    history: Sequence[Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]] = (),
) -> CGResult:
    """Conjugate gradients on the self-adjoint PSD system (N + alpha I) x = rhs.

    apply_normal evaluates N x (without the alpha shift).  The inner product
    is quadrature-weighted, which is what makes the matrix-free normal
    operator exactly self-adjoint.

    history holds vectors near the solution: solutions of nearby systems, or
    (v, N v) pairs whose product comes from this apply_normal.  CG then
    starts from their Galerkin projection: V W-orthonormalizes them, y solves
    the k x k system V^T W A V y = V^T W rhs with A = N + alpha I, and
    x_0 = V y with r_0 = rhs - (A V) y.  A V costs one apply per plain
    vector and none per pair, whose product is transformed with its vector.
    A start whose residual is not below |rhs| is dropped for x_0 = 0.  CG
    then runs up to max_iter iterations and stops at |r_k| <= tol |rhs|
    either way.
    """

    def inner(a, b):
        return float(np.sum(a * b * weights))

    def finite(q):
        if not np.all(np.isfinite(q)):
            raise NumericalBreakdownError("non-finite values in normal-operator apply")
        return q

    def apply(v):
        return finite(apply_normal(v) + alpha * v)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    rs = inner(r, r)
    norms = [np.sqrt(max(rs, 0.0))]
    rhs_norm = norms[0]
    if rs == 0.0:
        return CGResult(x=x, converged=True, iterations=0, residual_norms=norms, rhs_norm=rhs_norm)
    entries = [
        (h[0], finite(h[1] + alpha * h[0])) if isinstance(h, tuple) else (h, None)
        for h in history
    ]
    basis, products, applies = _w_orthonormal(entries, inner, apply)
    if basis:
        gram = np.array([[inner(u, p) for p in products] for u in basis])
        y = np.linalg.solve(0.5 * (gram + gram.T), [inner(u, rhs) for u in basis])
        r0 = rhs - sum(c * p for c, p in zip(y, products))
        rs0 = inner(r0, r0)
        if rs0 < rs:
            x, r, rs = sum(c * u for c, u in zip(y, basis)), r0, rs0
            norms = [np.sqrt(max(rs, 0.0))]
            if norms[0] / rhs_norm <= tol:
                return CGResult(
                    x=x, converged=True, iterations=applies, residual_norms=norms,
                    rhs_norm=rhs_norm,
                )
    d = r.copy()
    converged = False
    for it in range(1, max_iter + 1):
        q = apply(d)
        dq = inner(d, q)
        if dq <= 0:
            logger.warning("CG curvature %.3e <= 0 at iteration %d; stopping", dq, it)
            break
        a = rs / dq
        x = x + a * d
        r = r - a * q
        rs_new = inner(r, r)
        norms.append(np.sqrt(max(rs_new, 0.0)))
        applies += 1
        if norms[-1] / rhs_norm <= tol:
            converged = True
            break
        d = r + (rs_new / rs) * d
        rs = rs_new
    return CGResult(
        x=x, converged=converged, iterations=applies, residual_norms=norms, rhs_norm=rhs_norm
    )


def power_iteration(
    apply_op: Callable[[np.ndarray], np.ndarray],
    size: int,
    weights: np.ndarray,
    tol: float = 0.01,
    max_iter: int = 100,
    seed: int = 0,
    start: Optional[np.ndarray] = None,
) -> Tuple[float, List[Tuple[np.ndarray, np.ndarray]]]:
    """Largest eigenvalue of a self-adjoint PSD operator by power iteration,
    and the (v, apply_op v) pair of every apply, v of unit weighted norm.

    The Rayleigh quotients approach the eigenvalue from below; the loop stops
    once two successive ones differ by at most tol of the newer one.  That
    bounds the change, not the distance to the eigenvalue: from a random
    start the estimate of the invert-c workload's first normal operator reads
    4.5% below it, from that step's right-hand side 1.4% below.

    start is the first vector; None or a zero vector falls back to a random
    one drawn from seed.
    """

    def inner(a, b):
        return float(np.sum(a * b * weights))

    if start is None or inner(start, start) == 0:
        start = np.random.Generator(np.random.Philox(key=seed)).standard_normal(size)
    v = start / np.sqrt(inner(start, start))
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    lam = 0.0
    for _ in range(max_iter):
        av = apply_op(v)
        pairs.append((v, av))
        lam_new = inner(v, av)
        nrm = np.sqrt(inner(av, av))
        if nrm == 0.0:
            lam = 0.0
            break
        v = av / nrm
        if lam_new > 0 and abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return float(lam), pairs


# ---------------------------------------------------------------------------
# The Newton step machinery
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FrequencyTerm:
    """One frequency of the inversion: its data, its lattice, the transfer map
    L_f onto that lattice (None on the parameter lattice itself) and the
    reference operator there; in a forward stack also the model, covariance
    and noise weight of the iterate L_f q.

    The term reads parameter-lattice fields and returns parameter-lattice
    duals: the derivative is C'_f L_f and the adjoint W^{-1} L_f^T W_f C'_f*.
    """

    data: FrequencyData
    lattice: Grid
    transfer: Optional[LatticeTransfer]
    g_ref: GreensOperator
    iterate: Optional[MediumParams] = None  # L_f q
    model: Optional[LinearizedModel] = None
    cov: Optional[CovarianceOperator] = None
    weight: Optional[NoiseWeight] = None

    def linearize(self, params: MediumParams, config: InversionConfig) -> "FrequencyTerm":
        """The term with the model, covariance and noise weight at the iterate params."""
        iterate = params if self.transfer is None else self.transfer.medium(params)
        model = build_model(
            iterate,
            self.data.freq,
            quantities=config.quantities,
            g_ref=self.g_ref,
            boundary_src=config.boundary_src,
        )
        cov = forward_covariance(model)
        if not config.weighted:
            weight = NoiseWeight.identity(cov.weights)
        elif config.beta is not None:
            weight = lavrentiev_weight(cov, config.beta)
        else:
            # 0.1 tr(C_n)/dim, floored by the data trace so the weight
            # stays finite when the iterate produces no covariance yet
            level = 0.1 * max(cov.trace(), self.data.corr.trace()) / cov.n
            weight = lavrentiev_weight(cov, level)
        return replace(self, iterate=iterate, model=model, cov=cov, weight=weight)

    def misfit_and_noise_sq(self) -> Tuple[float, float]:
        """Squared weighted misfit of the data and squared noise level tr(Gamma C)^2 / N."""
        resid = self.data.corr.matrix - self.cov.matrix
        misfit_sq = hs_inner(weighted_residual(self.weight, resid), resid, self.cov.weights).real
        noise_sq = weight_trace_product(self.weight, self.cov) ** 2 / self.data.n_realizations
        return misfit_sq, noise_sq

    def data_dual(self, quantities: Sequence[str]) -> Dict[str, np.ndarray]:
        """C'* Gamma (Corr - C) Gamma on the parameter lattice."""
        resid = self.data.corr.matrix - self.cov.matrix
        return self._adjoint(weighted_residual(self.weight, resid), quantities)

    def normal_dual(
        self, dq: Dict[str, np.ndarray], quantities: Sequence[str]
    ) -> Dict[str, np.ndarray]:
        """C'* Gamma C' dq on the parameter lattice, of parameter-lattice fields dq."""
        if self.transfer is not None:
            dq = self.transfer.fields(dq, self.iterate.rho)
        dc = apply_derivative(self.model, dq)
        return self._adjoint(weighted_residual(self.weight, dc), quantities)

    def _adjoint(self, d_matrix: np.ndarray, quantities: Sequence[str]) -> Dict[str, np.ndarray]:
        duals = apply_adjoint(self.model, d_matrix, quantities)
        return duals if self.transfer is None else self.transfer.duals(duals, self.iterate.rho)


def _frequency_terms(
    data: Sequence[FrequencyData], config: InversionConfig
) -> List[FrequencyTerm]:
    """One term per frequency, each on greens.frequency_lattice of the
    parameter lattice at omega / omega_max, omega_max the top frequency: the
    parameter lattice's nodes per wavelength at its own wavelength.  The top
    frequency runs on the parameter lattice itself, and frequencies of one
    lattice side share the lattice and its transfer map.
    """
    grid = config.grid
    omega_max = max(item.freq.omega for item in data)
    shared: Dict[Tuple[int, ...], Tuple[Grid, LatticeTransfer]] = {}
    terms = []
    for item in data:
        lattice = frequency_lattice(grid, item.freq.omega / omega_max)
        transfer = None
        if lattice is not grid:
            if lattice.interior_shape not in shared:
                shared[lattice.interior_shape] = lattice, LatticeTransfer(grid, lattice)
            lattice, transfer = shared[lattice.interior_shape]
        g_ref = assemble_green(lattice, config.q0.reference_wavenumber(item.freq))
        terms.append(FrequencyTerm(item, lattice, transfer, g_ref))
    return terms


def _build_stack(
    params: MediumParams, terms: Sequence[FrequencyTerm], config: InversionConfig
) -> List[FrequencyTerm]:
    """The forward stack at the iterate params: each term linearized there.

    A reference operator keeps its receiver rows, never its dense kernel,
    and a linearized term keeps the model's receiver rows and ingressions,
    not its Green's operator, so the K0 and the LU of each frequency's
    resolvent update are freed before the next frequency is built: at most
    one of each is alive at a time.
    """
    return [term.linearize(params, config) for term in terms]


def _misfit_and_noise(stack: Sequence[FrequencyTerm]) -> Tuple[float, float]:
    misfit_sq = 0.0
    noise_sq = 0.0
    for term in stack:
        m_sq, n_sq = term.misfit_and_noise_sq()
        misfit_sq += m_sq
        noise_sq += n_sq
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
    stack: Sequence[FrequencyTerm], space: ParameterSpace, sandwich: Callable
) -> Callable[[np.ndarray], np.ndarray]:
    def normal(flat: np.ndarray) -> np.ndarray:
        dq = space.unpack(sandwich(flat))
        acc = np.zeros_like(flat)
        for term in stack:
            acc += space.pack(term.normal_dual(dq, space.quantities))
        return sandwich(acc)

    return normal


def _stack_rhs(stack: Sequence[FrequencyTerm], space: ParameterSpace) -> np.ndarray:
    acc = np.zeros(space.size)
    for term in stack:
        acc += space.pack(term.data_dual(space.quantities))
    return acc


def irgnm_step(
    state: InversionState,
    stack,
    config: InversionConfig,
    sandwich: Callable,
    data_term: Optional[np.ndarray] = None,
) -> Tuple[Dict[str, np.ndarray], InversionState, dict]:
    """One Gauss-Newton update from the forward stack at the current iterate.

    stack is _build_stack's at state.q_n and sandwich the operator of
    _sandwich_operator; data_term is the right-hand side's S b of that stack
    if the caller has it already, else it is computed.  Returns the update
    fields, the advanced state (iterate replaced, schedule moved one step,
    this step's CG solution first in the history its successor starts from),
    and per-step diagnostics.
    A flow update also reports its divergence residual |R du| and norm |du|.
    """
    space = ParameterSpace(config.grid, config.quantities)
    normal = _make_normal_operator(stack, space, sandwich)
    prox = space.pack(
        {q: getattr(state.q_0, q) - getattr(state.q_n, q) for q in space.quantities}
    )
    if data_term is None:
        data_term = sandwich(_stack_rhs(stack, space))
    rhs = data_term + state.alpha_n * prox
    result = cg_normal_solve(
        normal,
        rhs,
        alpha=state.alpha_n,
        weights=space.weights,
        max_iter=config.max_cg,
        tol=CG_TOL,
        history=state.history,
    )
    update = sandwich(result.x)
    dq_fields = space.unpack(update)
    info = {
        "alpha": state.alpha_n,
        "cg_iterations": result.iterations,
        "cg_converged": result.converged,
        "cg_residual": result.relative_residual,
        "cg_start_residual": result.start_residual,
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
        new = getattr(q_next, q) + upd
        if q in NONNEGATIVE_QUANTITIES:
            clipped = int(np.sum(new < 0))
            if clipped:
                info[f"clamped_{q}"] = clipped
            new = np.maximum(new, 0.0)
        setattr(q_next, q, new)

    # pairs carry products of this step's operator only: the next step keeps solutions
    solutions = tuple(h for h in state.history if not isinstance(h, tuple))
    new_state = InversionState(
        q_n=q_next,
        q_0=state.q_0,
        alpha_0=state.alpha_0,
        iteration=state.iteration + 1,
        history=((result.x,) + solutions)[:CG_RECYCLE],
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
    config.q0; only one forward stack is alive at a time, and its misfit is
    evaluated once.
    """
    terms = _frequency_terms(data, config)
    space = ParameterSpace(config.grid, config.quantities)

    # alpha_0: largest eigenvalue of the first (smoothed or projected) normal operator
    sandwich = _sandwich_operator(space, config)
    stack = _build_stack(config.q0, terms, config)
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    data_term = None
    if config.alpha0 is not None:
        alpha0 = float(config.alpha0)
    else:
        # started from the first step's right-hand side (alpha_0 (q_0 - q_n)
        # vanishes at q_0), the pairs span that step's Krylov space
        data_term = sandwich(_stack_rhs(stack, space))
        normal = _make_normal_operator(stack, space, sandwich)
        lam, pairs = power_iteration(normal, space.size, weights=space.weights, start=data_term)
        alpha0 = config.alpha0_scale * lam
        del normal  # the closure holds the q0 stack
    if alpha0 <= 0:
        raise NumericalBreakdownError("first normal operator has no positive spectrum")
    state = InversionState(
        q_n=config.q0.copy(),
        q_0=config.q0,
        alpha_0=alpha0,
        history=tuple(pairs) if CG_RECYCLE else (),
    )

    diagnostics = {
        "alpha0": alpha0,
        "alpha0_applies": len(pairs),
        "lattice_shapes": [list(term.lattice.interior_shape) for term in terms],
        "iterations": [],
        "stopped_by": "max_outer",
    }
    increases = 0
    prev_misfit = None
    misfit, noise = _misfit_and_noise(stack)
    while state.iteration < config.max_outer:
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
        _, state, info = irgnm_step(state, stack, config, sandwich, data_term)
        data_term = None
        entry = {"iteration": n, "misfit": misfit, "noise_level": noise, **info}
        if truth is not None:
            err = {}
            for q in space.quantities:
                block = ParameterSpace(config.grid, (q,))
                t = getattr(truth, q)
                denom = block.norm(block.pack({q: t - getattr(config.q0, q)}))
                num = block.norm(block.pack({q: getattr(state.q_n, q) - t}))
                err[q] = num / denom if denom > 0 else np.nan
            entry["param_error"] = err
        diagnostics["iterations"].append(entry)
        stack = None  # release the current stack before building the next one
        stack = _build_stack(state.q_n, terms, config)
        misfit, noise = _misfit_and_noise(stack)

    diagnostics["final_misfit"] = misfit
    diagnostics["final_noise_level"] = noise
    return state.q_n, diagnostics

