"""Holographic propagators, the covariance derivative/adjoint, and kernels.

The covariance forward map C[q] is linearized with egression/ingression
propagators built from receiver-restricted Green's kernels:

    H_alpha = Tr G                      (all quantities)
    H_beta_S = H_alpha
    H_beta   = Tr G M_S G* Tr-like ingression for scalar quantities,
               kernel  B(x, y) = Int G(x, z) S(z) conj(G(y, z)) dz
    H_beta_i = gradient rows of B for flow components.

With Re_H(M) := (M + M*)/2, the derivative and its exact discrete transpose
are

    C'(dv, dA, dS) = -2 Re_H(H_a M_dv H_b^*) + 2 Re_H(sum_i H_a M_{2i dA_i} H_{b,i}^*)
                     + H_a M_dS H_a^*
    C'* D = (-2 Diag(H_a^* Re_H(D) H_b),  -4i Diag(H_a^* Re_H(D) H_{b,i}),
             Diag(H_a^* Re_H(D) H_a))

followed by the local-correlation chain rule onto the physical quantities and
the real-part projection.  Every Diag(H^H M B) is one back-propagation
P = M^H H read as column dot products with B.  A hologram is that Diag with
M = W Corr W between pupil masks: the S block of C'* at the empirical Corr.

Matrix/quadrature conventions follow :mod:`holoseis.greens`: kernels are
stored without weights and every contraction inserts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from .errors import MemoryBudgetError, UsageError
from .greens import Grid, GreensOperator, assemble_green, update_green
from .medium import (
    FrequencyContext,
    HelmholtzParams,
    MediumParams,
    PartialV,
    helmholtz_delta,
    partial_A,
    partial_v,
    recast,
    uniform_medium,
)
from .stochastic import (
    CovarianceOperator,
    RealizationSet,
    _boundary_block,
    empirical_corr,
    forward_covariance,
)

SCALAR_QUANTITIES = ("S", "c", "gamma", "rho")
ALL_QUANTITIES = SCALAR_QUANTITIES + ("u",)
KERNEL_BUDGET_BYTES = 2 * 1024**3

__all__ = [
    "PropagatorPair",
    "Hologram",
    "KernelMatrix",
    "NoiseWeight",
    "LinearizedModel",
    "build_model",
    "lindsey_braun_pair",
    "apply_derivative",
    "apply_adjoint",
    "backprop_realizations",
    "sensitivity_kernel",
    "apply_kernel",
    "weighted_residual",
    "weight_trace_product",
    "smooth_field",
]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------
@dataclass
class PropagatorPair:
    """Propagators H_alpha = diag(masks[0]) rows, H_beta = diag(masks[1]) rows.

    rows (n_rec, n_int) is Tr G on the interior; masks (2, n_rec) is None without pupils.
    """

    rows: np.ndarray
    masks: Optional[np.ndarray] = None


@dataclass
class Hologram:
    """Pointwise egression-ingression correlation on the interior nodes."""

    values: np.ndarray
    omega: float


@dataclass
class KernelMatrix:
    """Sensitivity kernel rows of the Gauss-Newton normal operator.

    entries: (n_rows, n_int) real for scalar quantity pairs, or
    (d, d, n_rows, n_int) for the flow block.  row_idx is None when the full
    interior-by-interior kernel was assembled.
    """

    entries: np.ndarray
    quantities: Tuple[str, str]
    row_idx: Optional[np.ndarray] = None


@dataclass
class NoiseWeight:
    """Lavrentiev approximation of the inverse data covariance.

    gamma_n is the kernel of (beta Id + C)^{-1} on the receiver quadrature;
    as an operator its eigenvalues lie in (0, 1/beta].
    """

    gamma_n: np.ndarray
    lavrentiev_beta: float
    weights: np.ndarray


# ---------------------------------------------------------------------------
# Model assembly at one parameter state
# ---------------------------------------------------------------------------
@dataclass
class LinearizedModel:
    """Forward stack at one iterate: Green's operator, propagators, g-factors."""

    grid: Grid
    params: MediumParams
    freq: FrequencyContext
    hp: HelmholtzParams
    g: GreensOperator
    h_alpha: np.ndarray  # (n_rec, n_int)
    beta_scalar: Optional[np.ndarray]  # (n_rec, n_int)
    beta_flow: Optional[Tuple[np.ndarray, ...]]  # plain-gradient ingressions
    gv: Dict[str, PartialV]
    ga: Dict[str, np.ndarray]
    boundary_src: Optional[np.ndarray] = None

    def covariance(self) -> CovarianceOperator:
        return forward_covariance(self.hp, self.g, self.boundary_src)


def build_model(
    params: MediumParams,
    freq: FrequencyContext,
    quantities: Sequence[str] = ("S",),
    g_ref: Optional[GreensOperator] = None,
    boundary_src: Optional[np.ndarray] = None,
) -> LinearizedModel:
    """Assemble the linearized covariance model at one parameter state.

    The reference Green's operator (uniform medium at the reference values)
    is assembled if not supplied, then moved to the iterate through the
    second-kind resolvent update.  The scalar ingression is the exact
    S-weighted Green product (plus the boundary-source term), and the flow
    ingressions are its gradients on the shared stencil.
    """
    for q in quantities:
        if q not in ALL_QUANTITIES:
            raise UsageError(f"unknown quantity {q!r}")
    grid = params.grid
    hp = recast(params, freq)

    ref = uniform_medium(
        grid, c=params.c_ref, rho=params.rho_ref, gamma=params.gamma_ref
    )
    hp_ref = recast(ref, freq)
    if g_ref is None:
        g_ref = assemble_green(grid, hp.k_ref)
    delta = helmholtz_delta(hp_ref, hp, grid)
    g = g_ref if delta.is_zero() else update_green(g_ref, delta)

    rows = g.receiver_rows
    h_alpha = rows[:, grid.interior_idx]
    beta_scalar = None
    beta_flow = None
    if any(q != "S" for q in quantities):
        m_block = h_alpha * (hp.S * grid.interior_weights)[None, :]
        beta_scalar = g.mul_kernel_hermitian(m_block, grid.interior_idx)
        if boundary_src is not None:
            mb = _boundary_block(rows[:, grid.receiver_idx], boundary_src, grid)
            beta_scalar = beta_scalar + g.mul_kernel_hermitian(mb, grid.receiver_idx)
        if "u" in quantities or (
            "c" in quantities and params.u is not None and np.any(params.u)
        ):
            dmats = grid.gradient_matrices()
            beta_flow = tuple((beta_scalar @ d_i.T.tocsc()) for d_i in dmats)

    gv = {q: partial_v(q, params, freq) for q in quantities if q != "S"}
    ga = {q: partial_A(q, params, freq) for q in quantities if q in ("c", "u")}
    return LinearizedModel(
        grid=grid,
        params=params,
        freq=freq,
        hp=hp,
        g=g,
        h_alpha=h_alpha,
        beta_scalar=beta_scalar,
        beta_flow=beta_flow,
        gv=gv,
        ga=ga,
        boundary_src=boundary_src,
    )


def _is_index(i, n: int) -> bool:
    """True for an integer (not a bool) in [0, n)."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n


def lindsey_braun_pair(
    g: GreensOperator, pupils: Optional[Tuple[Sequence[int], Sequence[int]]] = None
) -> PropagatorPair:
    """Classical choice H_alpha = H_beta = Tr G used for feature maps.

    Pupils are two receiver index lists; each propagator keeps only the rows
    of its pupil, held as a 0/1 mask over the one shared array of rows.
    """
    rows = g.receiver_rows[:, g.grid.interior_idx]
    if pupils is None:
        return PropagatorPair(rows=rows)
    n_rec = g.grid.n_receivers
    if not (
        isinstance(pupils, (list, tuple))
        and len(pupils) == 2
        and all(isinstance(p, (list, tuple, np.ndarray)) for p in pupils)
        and all(_is_index(i, n_rec) for p in pupils for i in p)
    ):
        raise UsageError(
            f"pupils must be two lists of integer receiver indices in [0, {n_rec})"
        )
    masks = np.zeros((2, n_rec))
    for mask, pupil in zip(masks, pupils):
        mask[np.asarray(pupil, dtype=int)] = 1.0
    return PropagatorPair(rows=rows, masks=masks)


# ---------------------------------------------------------------------------
# Derivative and adjoint
# ---------------------------------------------------------------------------
def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _scaled_conj(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """conj(a diag(d)) in one temporary: b @ _scaled_conj(a, d).T = (a D b^H)^H."""
    x = a * d[None, :]
    return np.conjugate(x, out=x)


def _diag_sandwiches(
    h: np.ndarray, m_adj: np.ndarray, bs: Sequence[Optional[np.ndarray]]
) -> list:
    """Diag(H^H M B) for each B in bs (None for a None entry), given m_adj = M^H.

    The receiver data are back-propagated once, P = M^H H (n_rec, n_int), and
    each Diag is the column dot product sum_r conj(P[r, x]) B[r, x].  Callers
    form M^H directly; a Hermitian M is its own adjoint, so nothing is copied.
    """
    p = m_adj @ h
    return [None if b is None else np.vecdot(p, b, axis=0) for b in bs]


def apply_derivative(model: LinearizedModel, dq: Dict[str, np.ndarray]) -> np.ndarray:
    """Directional derivative of the covariance map, C'[q](dq), on receivers.

    dq maps quantity tags to perturbation fields supported on the interior.
    The physical perturbations are chained through the recast derivatives
    onto the (dv, dA, dS) slots of the generic formula.
    """
    grid = model.grid
    w = grid.interior_weights
    a = model.h_alpha
    n_rec = a.shape[0]
    out = np.zeros((n_rec, n_rec), dtype=np.complex128)

    dv = np.zeros(grid.n_interior, dtype=np.complex128)
    have_dv = False
    for q, pert in dq.items():
        if q == "S":
            continue
        if q not in model.gv:
            raise UsageError(f"model was not linearized for quantity {q!r}")
        dv += model.gv[q].apply(np.asarray(pert), grid)
        have_dv = True
    # each term T = a D b^H enters as T + T^H and is formed as T^H = b conj(a D)^T,
    # so no propagator is conjugated or copied
    if have_dv and np.any(dv):
        if model.beta_scalar is None:
            raise UsageError("model lacks the scalar ingression propagator")
        th = model.beta_scalar @ _scaled_conj(a, dv * w).T
        out -= th + th.conj().T

    # dA contributions: flow perturbations and sound speed with background flow
    da = None
    if "u" in dq:
        da = model.ga["u"][:, None] * np.asarray(dq["u"])
    if "c" in dq and "c" in model.ga and np.any(model.ga["c"]):
        contrib = model.ga["c"] * np.asarray(dq["c"])[:, None]
        da = contrib if da is None else da + contrib
    if da is not None and np.any(da):
        if model.beta_flow is None:
            raise UsageError("model lacks flow ingression propagators")
        for i, b_i in enumerate(model.beta_flow):
            th = b_i @ _scaled_conj(a, 2j * da[:, i] * w).T
            out += th + th.conj().T

    if "S" in dq:
        ds = np.asarray(dq["S"])
        out += a @ _scaled_conj(a, ds * w).T  # Hermitian for real dS
    return _hermitian_part(out)


def apply_adjoint(
    model: LinearizedModel,
    d_matrix: np.ndarray,
    quantities: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Adjoint C'[q]* D as physical dual fields, one per requested quantity.

    Interior-by-interior operators are never formed: every term is a Diag of
    propagator sandwiches Diag(a^H M b) with M = W Re(D) W Hermitian, all from
    one back-propagation P = M a.  The real-part projection onto real parameter
    perturbations is applied after the local-correlation chaining.
    """
    grid = model.grid
    if quantities is None:
        quantities = ("S",) + tuple(model.gv.keys())
    w_rec = grid.receiver_weights
    w = grid.interior_weights
    a = model.h_alpha
    m = np.outer(w_rec, w_rec) * _hermitian_part(np.asarray(d_matrix, dtype=np.complex128))
    diag_s, diag_v, *diag_a = _diag_sandwiches(
        a, m, (a if "S" in quantities else None, model.beta_scalar, *(model.beta_flow or ()))
    )
    dv_dual = None if diag_v is None else -2.0 * diag_v
    da_dual = np.column_stack([-4j * d for d in diag_a]) if diag_a else None

    dmats = grid.gradient_matrices()
    out: Dict[str, np.ndarray] = {}
    for q in quantities:
        if q == "S":
            out["S"] = np.real(diag_s)
            continue
        gvq = model.gv.get(q)
        if gvq is None:
            raise UsageError(f"model was not linearized for quantity {q!r}")
        if dv_dual is None:
            raise UsageError("model lacks the scalar ingression propagator")
        if q == "u":
            dual = np.real(gvq.order0 * dv_dual.conj()[:, None])
            dual += model.ga["u"][:, None] * np.real(da_dual)
            out["u"] = dual
            continue
        dual = np.zeros(grid.n_interior)
        if gvq.order0 is not None:
            dual += np.real(gvq.order0 * dv_dual.conj())
        if gvq.order1 is not None:
            for i, d_i in enumerate(dmats):
                dual += np.real(d_i.T @ (w * gvq.order1[:, i] * dv_dual.conj())) / w
        if gvq.order2 is not None:
            lap = grid.laplacian_matrix()
            dual += np.real(lap.T @ (w * gvq.order2 * dv_dual.conj())) / w
        if q == "c" and "c" in model.ga and np.any(model.ga["c"]) and da_dual is not None:
            dual += np.sum(model.ga["c"] * np.real(da_dual), axis=1)
        out[q] = dual
    return out


# ---------------------------------------------------------------------------
# Back-propagation and holograms
# ---------------------------------------------------------------------------
def backprop_realizations(
    pair: PropagatorPair,
    realizations: RealizationSet,
    receiver_weights: np.ndarray,
) -> Hologram:
    """Hologram Diag(H_alpha* W Corr W H_beta) of N realizations, pointwise.

    This is the S block of C'* applied to the empirical correlation Corr: the
    receiver sandwich M = diag(masks[0]) W Corr W diag(masks[1]) is
    back-propagated once through the shared rows (n_rec^2 n work, whatever N
    is).  Without pupils M is Hermitian PSD, so the hologram is the real part
    of the Diag and its imaginary part is exactly zero.
    """
    w = receiver_weights
    corr = empirical_corr(realizations, w).matrix
    m_adj = w[:, None] * corr * w[None, :]  # Corr is exactly Hermitian
    if pair.masks is not None:
        m_adj *= np.outer(pair.masks[1], pair.masks[0])
    (values,) = _diag_sandwiches(pair.rows, m_adj, (pair.rows,))
    if pair.masks is None:
        values = values.real.astype(np.complex128)
    return Hologram(values=values, omega=realizations.omega)


# ---------------------------------------------------------------------------
# Noise weighting and sensitivity kernels
# ---------------------------------------------------------------------------
def _weight_sandwich(weight: Optional[NoiseWeight], w_rec: np.ndarray) -> np.ndarray:
    """W N W for a noise weight, or plain diag(w) for the identity weight."""
    if weight is None:
        return np.diag(w_rec)
    return w_rec[:, None] * weight.gamma_n * w_rec[None, :]


def weighted_residual(weight: NoiseWeight, residual: np.ndarray) -> np.ndarray:
    """Kernel of Gamma o R o Gamma (the whitened residual of the iteration)."""
    w = weight.weights
    core = w[:, None] * residual * w[None, :]
    return weight.gamma_n @ core @ weight.gamma_n


def weight_trace_product(weight: NoiseWeight, cov: CovarianceOperator) -> float:
    """Operator trace tr(Gamma C) with the receiver quadrature."""
    w = weight.weights
    comp = weight.gamma_n @ (w[:, None] * cov.matrix)  # kernel of Gamma o C
    return float(np.real(np.sum(np.diag(comp) * w)))


def _f_blocks(
    left: np.ndarray,
    right: np.ndarray,
    wnw: np.ndarray,
    targets: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows F[targets, :] and columns F[:, targets] of F = left^H WNW right."""
    if targets is None:
        f = left.conj().T @ wnw @ right
        return f, f
    f_rows = left[:, targets].conj().T @ wnw @ right
    f_cols = left.conj().T @ (wnw @ right[:, targets])
    return f_rows, f_cols


def sensitivity_kernel(
    model: LinearizedModel,
    quantities: Tuple[str, str] = ("S", "S"),
    weight: Optional[NoiseWeight] = None,
    targets: Optional[Sequence[int]] = None,
    budget_bytes: int = KERNEL_BUDGET_BYTES,
) -> KernelMatrix:
    """Sensitivity kernel K of the normal operator for a quantity pair.

    K(x, .) rows are assembled from forward-backward operators so that
    applying the kernel reproduces C'* Gamma (x) Gamma C' exactly in the
    discrete setting:

        source:  K = Re[F_aa(x,y) F_aa(y,x)]
        scalar:  K = 2 Re[conj(g_q(x)) g_q'(y) F_aa(x,y) F_bb(y,x)]
                   + 2 Re[conj(g_q(x)) conj(g_q'(y)) F_ab(x,y) F_ab(y,x)]
        flow:    K^{pq} = 8 m(x) m(y) Re[F_aa F^{qp}_bb(y,x) - F^q_ab F^p_ab(y,x)],
                 m = omega / c^2.

    Density kernels involve stencil-chained local correlations and are not
    assembled explicitly; use the matrix-free composition instead.
    """
    qx, qy = quantities
    grid = model.grid
    w_rec = grid.receiver_weights
    a = model.h_alpha
    tgt = None if targets is None else np.asarray(targets, dtype=int)
    n_rows = grid.n_interior if tgt is None else len(tgt)
    if tgt is None and 16 * grid.n_interior**2 > budget_bytes:
        raise MemoryBudgetError("full kernel exceeds memory budget; pass targets")
    wnw = _weight_sandwich(weight, w_rec)

    if (qx, qy) == ("S", "S"):
        f_rows, f_cols = _f_blocks(a, a, wnw, tgt)
        entries = np.real(f_rows * f_cols.T)
        return KernelMatrix(entries=entries, quantities=(qx, qy), row_idx=tgt)

    if qx in ("c", "gamma") and qy in ("c", "gamma"):
        if model.beta_scalar is None:
            raise UsageError("model lacks the scalar ingression propagator")
        b = model.beta_scalar
        gx = model.gv[qx].order0
        gy = model.gv[qy].order0
        faa_rows, _ = _f_blocks(a, a, wnw, tgt)
        _, fbb_cols = _f_blocks(b, b, wnw, tgt)
        fab_rows, fab_cols = _f_blocks(a, b, wnw, tgt)
        gx_rows = gx if tgt is None else gx[tgt]
        entries = 2.0 * np.real(
            gx_rows.conj()[:, None] * faa_rows * fbb_cols.T * gy[None, :]
        )
        entries += 2.0 * np.real(
            gx_rows.conj()[:, None] * fab_rows * fab_cols.T * gy.conj()[None, :]
        )
        return KernelMatrix(entries=entries, quantities=(qx, qy), row_idx=tgt)

    if (qx, qy) == ("u", "u"):
        if model.beta_flow is None:
            raise UsageError("model lacks flow ingression propagators")
        d = len(model.beta_flow)
        m_coeff = model.ga["u"]  # omega / c^2, shape (n_int,)
        m_rows = m_coeff if tgt is None else m_coeff[tgt]
        faa_rows, _ = _f_blocks(a, a, wnw, tgt)
        fab_rows = []
        fab_cols = []
        for b_i in model.beta_flow:
            r, c_ = _f_blocks(a, b_i, wnw, tgt)
            fab_rows.append(r)
            fab_cols.append(c_)
        entries = np.empty((d, d, n_rows, grid.n_interior))
        for p in range(d):
            for q in range(d):
                # F^{qp}_bb(y, x) column block: (B_q^H WNW B_p)[:, targets]
                if tgt is None:
                    fqp = model.beta_flow[q].conj().T @ wnw @ model.beta_flow[p]
                    fqp_cols = fqp
                else:
                    fqp_cols = model.beta_flow[q].conj().T @ (
                        wnw @ model.beta_flow[p][:, tgt]
                    )
                term = faa_rows * fqp_cols.T - fab_rows[q] * fab_cols[p].T
                entries[p, q] = (
                    8.0 * m_rows[:, None] * m_coeff[None, :] * np.real(term)
                )
        return KernelMatrix(entries=entries, quantities=(qx, qy), row_idx=tgt)

    raise UsageError(
        f"kernel assembly not supported for quantity pair {quantities!r}; "
        "use the matrix-free normal operator"
    )


def apply_kernel(kernel: KernelMatrix, dq: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply an assembled kernel with the interior quadrature."""
    w = grid.interior_weights
    if kernel.entries.ndim == 2:
        return kernel.entries @ (np.asarray(dq) * w)
    d = kernel.entries.shape[0]
    dq = np.asarray(dq)
    out = np.zeros((kernel.entries.shape[2], d))
    for p in range(d):
        for q in range(d):
            out[:, p] += kernel.entries[p, q] @ (dq[:, q] * w)
    return out


# ---------------------------------------------------------------------------
# Sobolev-style smoothing of adjoint fields
# ---------------------------------------------------------------------------
def smooth_field(grid: Grid, field: np.ndarray, width: float) -> np.ndarray:
    """Discrete Gaussian smoothing on the structured interior block.

    Zero-padded (constant) boundary handling keeps the smoothing matrix
    symmetric, so applying it on both sides of the normal operator preserves
    self-adjointness.  width is the Gaussian sigma in physical length.
    """
    if width <= 0:
        return field
    if grid.interior_shape is None or grid.spacing is None:
        raise UsageError("smoothing requires a structured interior block")
    sigma = width / grid.spacing
    shaped = np.asarray(field).reshape(grid.interior_shape)
    if np.iscomplexobj(shaped):
        out = ndimage.gaussian_filter(
            shaped.real, sigma, mode="constant"
        ) + 1j * ndimage.gaussian_filter(shaped.imag, sigma, mode="constant")
    else:
        out = ndimage.gaussian_filter(shaped, sigma, mode="constant")
    return out.reshape(field.shape)
