"""Holographic propagators, the covariance derivative/adjoint, and kernels.

The covariance forward map C[q] is linearized with egression/ingression
propagators built from receiver-restricted Green's kernels:

    a = H_alpha = Tr G                  (all quantities)
    H_beta   = Tr G M_S G* Tr-like ingression for scalar quantities,
               kernel  B(x, y) = Int G(x, z) S(z) conj(G(y, z)) dz
    H_beta_i = gradient rows of B for flow components.

The derivative is written once, as the slot table _SLOTS:

    C'(dq) = sum_s c_s X_s + (c_s X_s)^H,   X_s = a diag(w d_s) b_s^H,
    d_s = sum_q J_{s,q} dq_q

    slot   b_s        c_s   J_{s,q}
    S      H_alpha    1/2   I for q = S
    v      H_beta     -1    J_v
    A_x    H_beta_x   2i    the x rows of J_A
    A_y    H_beta_y   2i    the y rows of J_A

with (J_v, J_A) the sparse Jacobians of :func:`holoseis.medium.recast_jacobian`.
Its exact discrete transpose is

    C'* D = Re sum_s J_{s,q}^T 2 c_s conj(Diag(a^H M b_s)),   M = W Re_H(D) W,

with Re_H(D) := (D + D^H)/2 and J^T the transpose in the interior
quadrature, W^{-1} J^T W (formed once per model); the real part is the
projection onto real parameter perturbations.  Every Diag(a^H M b) is one
back-propagation P = M^H a read as column dot products with b.  A hologram
is that Diag with M = W Corr W between pupil masks: the S slot of C'* at
the empirical Corr.  The sensitivity kernels are the normal operator
C'* Gamma C' written out from the same table, for every pair of quantities.

build_model is the one way to reach Tr G: its LinearizedModel is one medium
at one frequency, and the sampler, the model covariance and the hologram
propagators all read a model.

Matrix/quadrature conventions follow :mod:`holoseis.greens`: kernels are
stored without weights and every contraction inserts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .errors import MemoryBudgetError, UsageError
from .greens import (
    Grid,
    GreensOperator,
    _view,
    _weighted_transpose,
    assemble_green,
    update_green,
)
from .medium import (
    FrequencyContext,
    HelmholtzParams,
    MediumParams,
    helmholtz_delta,
    recast,
    recast_jacobian,
    uniform_medium,
)
from .stochastic import CovarianceOperator, RealizationSet, _boundary_block, empirical_corr

ALL_QUANTITIES = ("S", "c", "gamma", "rho", "u")
KERNEL_BUDGET_BYTES = 2 * 1024**3

__all__ = [
    "PropagatorPair",
    "NoiseWeight",
    "LinearizedModel",
    "build_model",
    "lindsey_braun_pair",
    "apply_derivative",
    "apply_adjoint",
    "backprop_realizations",
    "sensitivity_kernel",
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
class NoiseWeight:
    """Approximation Gamma of the inverse data covariance on the receiver quadrature.

    gamma_n is its kernel: that of (beta Id + C)^{-1} for the Lavrentiev
    weight, whose operator eigenvalues lie in (0, 1/beta], and diag(1/w) for
    the identity weight of an unweighted run.
    """

    gamma_n: np.ndarray
    weights: np.ndarray

    @classmethod
    def identity(cls, weights: np.ndarray) -> "NoiseWeight":
        """Gamma = W^{-1} on the receiver quadrature: W Gamma W is W, to rounding."""
        return cls(gamma_n=np.diag(1.0 / weights), weights=weights)


# ---------------------------------------------------------------------------
# Model assembly at one parameter state
# ---------------------------------------------------------------------------
# The slot table of C' (see the module docstring): c_s and the propagator b_s
# of a model, for the slots S, v, A_x and A_y.  Slot S's b is a itself.
_SLOTS = (
    (0.5, lambda model: model.h_alpha),
    (-1.0, lambda model: model.beta_scalar),
    (2j, lambda model: model.beta_flow[0]),
    (2j, lambda model: model.beta_flow[1]),
)
SlotJacobians = Tuple[Optional[sparse.csr_matrix], ...]  # one entry per slot; S's is _Identity


@dataclass(frozen=True)
class _Identity:
    """J = I on n interior nodes: a product returns its operand uncopied."""

    n: int

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return x

    def tocsr(self) -> sparse.csr_matrix:
        return sparse.identity(self.n, format="csr")


@dataclass
class LinearizedModel:
    """One medium at one frequency: receiver rows, propagators, Jacobians.

    This is the one handle on Tr G: sampling, the model covariance and the
    Lindsey-Braun pair read a model's hp (its S), receiver_rows or h_alpha
    and boundary_src, never a Green's operator, which the model does not
    keep (nor the LU of a resolvent update).  jacobians[q] holds J_{s,q} for
    the slots of _SLOTS (None where q does not enter), for S and each
    linearized quantity; adjoint_jacobians[q] holds their weighted transposes
    W_q^{-1} J^T W, which carry slot duals back to q.
    """

    grid: Grid
    hp: HelmholtzParams
    receiver_rows: np.ndarray  # (n_rec, n)
    h_alpha: np.ndarray  # (n_rec, n_int)
    beta_scalar: Optional[np.ndarray]  # (n_rec, n_int)
    beta_flow: Optional[Tuple[np.ndarray, ...]]  # plain-gradient ingressions
    jacobians: Dict[str, SlotJacobians]
    adjoint_jacobians: Dict[str, SlotJacobians]
    boundary_src: Optional[np.ndarray] = None  # (n_rec,) diagonal strength M_B


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
    jacobians, adjoint_jacobians = {}, {}
    for q in dict.fromkeys(("S", *quantities)):
        jacobians[q], adjoint_jacobians[q] = _slot_jacobians(q, params, freq)

    at_reference = not np.any(params.u) and all(
        np.all(getattr(params, f) == getattr(params, f"{f}_ref")) for f in ("c", "rho", "gamma")
    )
    if at_reference:  # only S differs, and S has no Helmholtz slot: hp is the reference's
        hp_ref = hp
    else:
        ref = uniform_medium(grid, c=params.c_ref, rho=params.rho_ref, gamma=params.gamma_ref)
        hp_ref = recast(ref, freq)
    if g_ref is None:
        g_ref = assemble_green(grid, hp.k_ref)
    delta = helmholtz_delta(hp_ref, hp)
    # the reference medium itself never enters the resolvent update
    g = g_ref if delta.is_zero() else update_green(g_ref, delta)

    rows = g.receiver_rows
    h_alpha = rows[:, _view(grid.interior_idx)]
    beta_scalar = None
    beta_flow = None
    if any(jac[1] is not None for jac in jacobians.values()):  # the v slot
        m_block = h_alpha * (hp.S * grid.interior_weights)[None, :]
        in_idx = grid.interior_idx
        if boundary_src is not None:
            # one product over interior and receiver columns: one read of K0
            mb = _boundary_block(rows[:, grid.receiver_idx], boundary_src, grid)
            m_block = np.hstack([m_block, mb])
            in_idx = np.concatenate([in_idx, grid.receiver_idx])
        beta_scalar = g.mul_kernel_hermitian(m_block, in_idx)
        if any(jac[2] is not None for jac in jacobians.values()):  # the flow slots
            dmats = grid.gradient_matrices()
            beta_flow = tuple((beta_scalar @ d_i.T.tocsc()) for d_i in dmats)

    return LinearizedModel(
        grid=grid,
        hp=hp,
        receiver_rows=rows,
        h_alpha=h_alpha,
        beta_scalar=beta_scalar,
        beta_flow=beta_flow,
        jacobians=jacobians,
        adjoint_jacobians=adjoint_jacobians,
        boundary_src=boundary_src,
    )


def _slot_jacobians(
    q: str, params: MediumParams, freq: FrequencyContext
) -> Tuple[SlotJacobians, SlotJacobians]:
    """J_{s,q} for the slots of _SLOTS, and their weighted transposes."""
    grid = params.grid
    n = grid.n_interior
    if q == "S":  # J = I is its own weighted transpose
        eye = (_Identity(n), None, None, None)
        return eye, eye
    j_v, j_a = recast_jacobian(q, params, freq)
    jac = (None, j_v, *((None, None) if j_a is None else (j_a[:n], j_a[n:])))
    w = grid.interior_weights
    return jac, tuple(None if j is None else _weighted_transpose(j, w) for j in jac)


def _is_index(i, n: int) -> bool:
    """True for an integer (not a bool) in [0, n)."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n


def lindsey_braun_pair(
    model: LinearizedModel,
    pupils: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
) -> PropagatorPair:
    """Classical choice H_alpha = H_beta = Tr G of the model, used for feature maps.

    Pupils are two receiver index lists; each propagator keeps only the rows
    of its pupil, held as a 0/1 mask over the one shared array of rows.
    """
    rows = model.h_alpha
    if pupils is None:
        return PropagatorPair(rows=rows)
    n_rec = model.grid.n_receivers
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
    The Jacobians chain them onto the slots, d_s = sum_q J_{s,q} dq_q, and
    each nonzero slot adds c_s X_s + (c_s X_s)^H.
    """
    w = model.grid.interior_weights
    a = model.h_alpha
    d = [None] * len(_SLOTS)  # slot perturbations, one per slot
    for q, pert in dq.items():
        if q not in model.jacobians:
            raise UsageError(f"model was not linearized for quantity {q!r}")
        flat = np.asarray(pert).ravel(order="F")
        for s, j in enumerate(model.jacobians[q]):
            if j is not None:
                d[s] = j @ flat if d[s] is None else d[s] + j @ flat
    # c_s X_s is formed as T = (c_s X_s)^H = b_s conj(a c_s D_s)^T, so no
    # propagator is conjugated or copied, and T + T^H is exactly Hermitian
    out = np.zeros((a.shape[0],) * 2, dtype=np.complex128)
    for (c, b), d_s in zip(_SLOTS, d):
        if d_s is not None and np.any(d_s):
            th = b(model) @ _scaled_conj(a, c * d_s * w).T
            out += th + th.conj().T
    return out


def apply_adjoint(
    model: LinearizedModel,
    d_matrix: np.ndarray,
    quantities: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Adjoint C'[q]* D as physical dual fields, one per requested quantity.

    Interior-by-interior operators are never formed: each slot dual is
    2 c_s conj(Diag(a^H M b_s)) with M = W Re_H(D) W, all from one
    back-propagation P = M a, for the slots that the quantities enter.  The
    weighted Jacobian transposes carry the slot duals back to the quantities;
    the real part is the projection onto real parameter perturbations.
    """
    grid = model.grid
    if quantities is None:
        quantities = tuple(model.jacobians)
    for q in quantities:
        if q not in model.adjoint_jacobians:
            raise UsageError(f"model was not linearized for quantity {q!r}")
    jts = [model.adjoint_jacobians[q] for q in quantities]
    w_rec = grid.receiver_weights
    dm = np.asarray(d_matrix, dtype=np.complex128)
    m = np.outer(w_rec, w_rec) * (0.5 * (dm + dm.conj().T))  # W Re_H(D) W
    used = [any(jt[s] is not None for jt in jts) for s in range(len(_SLOTS))]
    diags = _diag_sandwiches(
        model.h_alpha, m, [b(model) if u else None for (_, b), u in zip(_SLOTS, used)]
    )
    duals = [None if dg is None else 2 * c * dg.conj() for (c, _), dg in zip(_SLOTS, diags)]

    out: Dict[str, np.ndarray] = {}
    for q, jt_q in zip(quantities, jts):
        dual = np.real(sum(jt @ z for jt, z in zip(jt_q, duals) if jt is not None))
        out[q] = dual.reshape((grid.n_interior, grid.dim), order="F") if q == "u" else dual
    return out


# ---------------------------------------------------------------------------
# Back-propagation and holograms
# ---------------------------------------------------------------------------
def backprop_realizations(
    pair: PropagatorPair,
    realizations: RealizationSet,
    receiver_weights: np.ndarray,
) -> np.ndarray:
    """Hologram Diag(H_alpha* W Corr W H_beta) of N realizations, pointwise.

    This is the S slot of C'* applied to the empirical correlation Corr: the
    receiver sandwich M = diag(masks[0]) W Corr W diag(masks[1]) is
    back-propagated once through the shared rows (n_rec^2 n work, whatever N
    is).  Without pupils M is Hermitian PSD, so the hologram is the real part
    of the Diag and its imaginary part is exactly zero.  Returns the
    (n_int,) complex values.
    """
    w = receiver_weights
    corr = empirical_corr(realizations, w).matrix
    m_adj = w[:, None] * corr * w[None, :]  # Corr is exactly Hermitian
    if pair.masks is not None:
        m_adj *= np.outer(pair.masks[1], pair.masks[0])
    (values,) = _diag_sandwiches(pair.rows, m_adj, (pair.rows,))
    if pair.masks is None:
        values = values.real.astype(np.complex128)
    return values


# ---------------------------------------------------------------------------
# Noise weighting and sensitivity kernels
# ---------------------------------------------------------------------------
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


def _slot_terms(model: LinearizedModel, q: str) -> list:
    """Terms (l, r, m) of C'_q dq = sum_t b_l diag(w Phi_t dq) b_r^H.

    l and r index the propagators of _SLOTS (slot 0's is a); m = W_q^{-1}
    Phi^H W is the weighted adjoint of the term's slot map Phi, so that
    w Phi dq = m^H (w_q dq).  Slot s gives c_s X_s the term
    (0, s, conj(c_s) conj(J^T)) and its adjoint the term (s, 0, c_s J^T).
    Terms with equal propagators add, so S's two halves make one term.
    """
    if q not in model.adjoint_jacobians:
        raise UsageError(f"model was not linearized for quantity {q!r}")
    terms: Dict[Tuple[int, int], sparse.csr_matrix] = {}
    for s, ((c, _), jt) in enumerate(zip(_SLOTS, model.adjoint_jacobians[q])):
        if jt is not None:
            jt = jt.tocsr()
            for key, m in (((0, s), c.conjugate() * jt.conj()), ((s, 0), c * jt)):
                terms[key] = terms[key] + m if key in terms else m
    return [(l, r, m) for (l, r), m in terms.items()]


def sensitivity_kernel(
    model: LinearizedModel,
    quantities: Tuple[str, str],
    weight: NoiseWeight,
    targets: Optional[Sequence[int]] = None,
    budget_bytes: int = KERNEL_BUDGET_BYTES,
) -> np.ndarray:
    """Sensitivity kernel K of the normal operator for a quantity pair.

    C' is a sum of terms l diag(w Phi dq) r^H over the propagator pairs
    (l, r) = (a, b_s) and (b_s, a) of the slot table, with the slot maps Phi
    read from the model's Jacobians.  With N the kernel of the noise weight
    (NoiseWeight.identity for unweighted kernels) and F[l, r] = l^H WNW r,

        K = Re sum_{s, t} Phi_s^* (F[l_s, l_t] o F[r_t, r_s]^T) Phi_t,

    where Phi^* is the adjoint in the interior quadrature.  Applying K with
    the interior weights reproduces C'* Gamma (x) Gamma C' exactly, for every
    pair of {S, c, gamma, rho, u}.  In targets mode only the F rows at the
    targets' stencil neighbourhood are formed.

    Returns the kernel rows: (n_rows, n_int) real for scalar quantity pairs,
    or (d_x, d_y, n_rows, n_int) when a flow enters, with d_x = d for a flow
    row quantity and 1 otherwise (d_y likewise).
    """
    qx, qy = quantities
    grid = model.grid
    n = grid.n_interior
    if targets is None and 16 * n**2 > budget_bytes:
        raise MemoryBudgetError("full kernel exceeds memory budget; pass targets")
    tgt = None if targets is None else np.asarray(targets, dtype=int)
    terms_x = _slot_terms(model, qx)
    terms_y = _slot_terms(model, qy)
    dx, dy = (terms[0][2].shape[0] // n for terms in (terms_x, terms_y))
    rows = np.arange(dx * n) if tgt is None else (n * np.arange(dx)[:, None] + tgt).ravel()
    lefts = [m[rows] for _, _, m in terms_x]
    nbhd = np.arange(n) if tgt is None else np.unique(np.concatenate([m.indices for m in lefts]))
    lefts = [left[:, nbhd] for left in lefts]

    w_rec = grid.receiver_weights
    wnw = w_rec[:, None] * weight.gamma_n * w_rec[None, :]
    back: Dict[int, np.ndarray] = {}
    f_rows: Dict[Tuple[int, int], np.ndarray] = {}

    def f(l: int, r: int) -> np.ndarray:
        """Rows F[l, r][nbhd, :], each formed once."""
        if (l, r) not in f_rows:
            if l not in back:
                back[l] = _SLOTS[l][1](model)[:, nbhd].conj().T @ wnw
            f_rows[l, r] = back[l] @ _SLOTS[r][1](model)
        return f_rows[l, r]

    # WNW is Hermitian, so the rows of F[r_t, r_s]^T are those of conj(F[r_s, r_t])
    entries = np.zeros((len(rows), dy * n))
    for lt, rt, mt in terms_y:
        acc = sum(
            left @ (f(ls, lt) * f(rs, rt).conj())
            for (ls, rs, _), left in zip(terms_x, lefts)
        )
        entries += np.real(mt.conj() @ acc.T).T
    entries = entries.reshape(dx, -1, dy, n).transpose(0, 2, 1, 3)
    return entries[0, 0] if dx == dy == 1 else entries


# ---------------------------------------------------------------------------
# Sobolev-style smoothing of adjoint fields
# ---------------------------------------------------------------------------
def _gaussian_matrix(n: int, sigma: float) -> np.ndarray:
    """The n x n banded Toeplitz matrix of a Gaussian truncated at 4 sigma.

    Radius floor(4 sigma + 1/2), weights normalized over the whole kernel and
    zero padding beyond the block: the matrix of a 1-D constant-mode Gaussian
    filter.  Entry (i, j) is the weight at offset |i - j|, so the matrix
    equals its transpose bit for bit.
    """
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:  # one weight, 1; sigma * sigma may underflow
        return np.eye(n)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    band = np.zeros(n)
    reach = min(radius + 1, n)
    band[:reach] = phi[radius : radius + reach] / phi.sum()
    offsets = np.arange(n)
    return band[np.abs(offsets[:, None] - offsets[None, :])]


def smooth_field(grid: Grid, field: np.ndarray, width: float) -> np.ndarray:
    """Discrete Gaussian smoothing on the structured interior block.

    With the block X (interior_shape) and one Gaussian matrix S_a per axis
    (see _gaussian_matrix), the smoothed block is S_0 X S_1^T.  Zero padding
    makes each S_a an exactly symmetric matrix, so the operator applied on
    both sides of the normal operator keeps it self-adjoint.  width is the
    Gaussian sigma in physical length; width 0 is the identity.
    """
    if width <= 0:
        return field
    if grid.interior_shape is None or grid.spacing is None:
        raise UsageError("smoothing requires a structured interior block")
    sigma = width / grid.spacing
    nx, ny = grid.interior_shape
    shaped = np.asarray(field).reshape(nx, ny)
    smoothed = _gaussian_matrix(nx, sigma) @ shaped @ _gaussian_matrix(ny, sigma).T
    return smoothed.reshape(field.shape)
