"""Physical medium model and its recast to Helmholtz form.

A medium is described by sound speed c, density rho, damping gamma >= 0, a
mass-conserving flow u and a source strength S >= 0 on the interior nodes of
a grid; the exterior stays frozen at scalar reference values.  The flow is
always an (n_int, d) array, and a zero flow is the flow-free medium: the
stencil terms of u (its mass check, its term in v and in the Jacobians) are
taken only where the flow is nonzero, so a flow-free medium on an
unstructured grid never needs finite-difference stencils.  The recast map
produces the (v, A, S) coefficients of the generic wave operator

    -(Laplace + 2i A . grad - v + k^2) psi = s,

    k^2 = (omega^2 + 2i omega gamma_ref) / c_ref^2
    A   = omega u / c^2
    v   = k^2 - (omega^2 + 2i gamma omega)/c^2 + rho^{1/2} Lap(rho^{-1/2})
          - 2i omega f rho (u . grad f),      f := 1/(rho^{1/2} c).

recast_jacobian gives, per quantity, the sparse Jacobians (J_v, J_A) of the
(v, A) slots; S passes into its own slot unchanged.  They are the one chain
rule from (c, rho, gamma, u) onto the slots: the covariance derivative, its
adjoint and the sensitivity kernels all read them.  All differential
operators are the shared finite-difference stencils of the grid, and every
product under a stencil is differentiated as the discrete product it is
(the discrete chain rule), so the Jacobians are the exact derivatives of the
discrete recast on every background.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from .errors import InvalidParameterError, UsageError
from .greens import DeltaOperator, Grid, _weighted_transpose, lattice_interpolation

__all__ = [
    "MediumParams",
    "HelmholtzParams",
    "FrequencyContext",
    "frequency_band",
    "recast",
    "recast_jacobian",
    "helmholtz_delta",
    "uniform_medium",
    "medium_from_descriptor",
    "flow_divergence_matrix",
    "divergence_free_projector",
    "project_divergence_free",
    "stream_function_flow",
    "LatticeTransfer",
]


@dataclass
class FrequencyContext:
    """One member of the frequency band: omega and source power."""

    omega: float
    power: float = 1.0

    def __post_init__(self):
        if self.omega <= 0:
            raise UsageError("omega must be positive")
        if self.power <= 0:
            raise UsageError("source power spectrum must be positive")


def frequency_band(
    n: int, omega_min: float, omega_max: float, power: float = 1.0
) -> List[FrequencyContext]:
    """n evenly spaced frequencies over [omega_min, omega_max], inclusive."""
    if n < 1:
        raise UsageError("need at least one frequency")
    omegas = np.linspace(omega_min, omega_max, n) if n > 1 else np.array([omega_min])
    return [FrequencyContext(omega=float(w), power=power) for w in omegas]


@dataclass
class MediumParams:
    """Physical fields on the interior nodes; exterior frozen at the reference.

    Attributes
    ----------
    grid : Grid
    c, rho, gamma, S : np.ndarray, shape (n_int,)
        Sound speed, density, damping (>= 0), source strength (>= 0).
    u : np.ndarray, shape (n_int, d)
        Flow field; zero means flow-free.
    c_ref, rho_ref, gamma_ref : float
        Exterior/reference values; also define the reference wavenumber.
    c_min, rho_min : float
        Admissibility floors.
    """

    grid: Grid
    c: np.ndarray
    rho: np.ndarray
    gamma: np.ndarray
    S: np.ndarray
    u: np.ndarray
    c_ref: float = 1.0
    rho_ref: float = 1.0
    gamma_ref: float = 0.0
    c_min: float = 1e-12
    rho_min: float = 1e-12

    def validate(self, div_tol: float = 1e-8) -> None:
        n = self.grid.n_interior
        for name in ("c", "rho", "gamma", "S"):
            f = getattr(self, name)
            if f.shape != (n,):
                raise InvalidParameterError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(f)):
                raise InvalidParameterError(f"{name} has non-finite entries")
        if np.min(self.c) < self.c_min or self.c_min <= 0:
            raise InvalidParameterError("sound speed below admissible floor")
        if np.min(self.rho) < self.rho_min or self.rho_min <= 0:
            raise InvalidParameterError("density below admissible floor")
        if np.min(self.gamma) < 0:
            raise InvalidParameterError("damping must be non-negative")
        if np.min(self.S) < 0:
            raise InvalidParameterError("source strength must be non-negative")
        if self.u.shape != (n, self.grid.dim):
            raise InvalidParameterError(f"u must have shape ({n}, {self.grid.dim})")
        if not np.all(np.isfinite(self.u)):
            raise InvalidParameterError("u has non-finite entries")
        if np.any(self.u):
            r = flow_divergence_matrix(self.grid, self.rho)
            resid = np.linalg.norm(r @ self.u.ravel(order="F"))
            scale = np.linalg.norm(self.rho[:, None] * self.u)
            if resid > div_tol * scale:
                raise InvalidParameterError(
                    f"div(rho u) residual {resid:.3e} exceeds {div_tol:.0e} * |rho u|"
                )

    def copy(self) -> "MediumParams":
        return replace(
            self,
            c=self.c.copy(),
            rho=self.rho.copy(),
            gamma=self.gamma.copy(),
            S=self.S.copy(),
            u=self.u.copy(),
        )

    def reference_wavenumber(self, freq: FrequencyContext) -> complex:
        """k^2 = (omega^2 + 2i omega gamma_ref)/c_ref^2; principal sqrt.

        The stratification correction 1/(4 H^2) of non-uniform backgrounds is
        not modeled for uniform references.
        """
        k2 = (freq.omega**2 + 2j * freq.omega * self.gamma_ref) / self.c_ref**2
        return complex(np.sqrt(k2))


@dataclass
class HelmholtzParams:
    """Recast coefficients (v, A, S) plus the reference wavenumber; A = 0 is flow-free."""

    v: np.ndarray  # (n_int,), complex
    A: np.ndarray  # (n_int, d), real
    S: np.ndarray  # (n_int,), real >= 0
    k_ref: complex
    omega: float


# ---------------------------------------------------------------------------
# Recast and its Jacobians
# ---------------------------------------------------------------------------
def recast(params: MediumParams, freq: FrequencyContext) -> HelmholtzParams:
    """Transform physical parameters to the (v, A, S) Helmholtz coefficients."""
    params.validate()
    grid = params.grid
    omega = freq.omega
    k_ref = params.reference_wavenumber(freq)
    v = np.full(grid.n_interior, k_ref**2, dtype=np.complex128)
    v -= (omega**2 + 2j * params.gamma * omega) / params.c**2

    rho = params.rho
    if np.ptp(rho) > 0:  # rho^{1/2} Lap(rho^{-1/2}) vanishes identically if flat
        lap = grid.laplacian_matrix()
        v += np.sqrt(rho) * (lap @ (rho**-0.5))

    if np.any(params.u):
        f = 1.0 / (np.sqrt(rho) * params.c)
        dmats = grid.gradient_matrices()
        grad_f = np.column_stack([d @ f for d in dmats])  # (n, dim)
        v -= 2j * omega * f * rho * np.sum(params.u * grad_f, axis=1)
    a_field = omega * params.u / params.c[:, None] ** 2
    return HelmholtzParams(v=v, A=a_field, S=params.S.copy(), k_ref=k_ref, omega=omega)


def recast_jacobian(
    q_name: str, params: MediumParams, freq: FrequencyContext
) -> Tuple[Optional[sparse.csr_matrix], Optional[sparse.csr_matrix]]:
    """Sparse Jacobians (J_v, J_A) of the recast slots for one physical quantity.

    J_v maps a perturbation of q to dv: diag(g0) plus, for rho,
    diag(rho^{1/2}) L diag(-rho^{-3/2}/2) and, under a flow,
    diag(-2i omega f rho) sum_i diag(u_i) D_i diag(df/dq).  J_A maps it to
    dA stacked by component, [dA_x; dA_y].  A flow
    perturbation is stacked the same way.  None marks a slot that q does not
    enter; S enters only its own slot, so both of its Jacobians are None.
    """
    if q_name == "S":
        return None, None
    if q_name not in ("c", "gamma", "rho", "u"):
        raise UsageError(f"unknown quantity {q_name!r}")
    grid = params.grid
    omega = freq.omega
    c, rho, u = params.c, params.rho, params.u
    flow = np.any(u)
    if q_name == "gamma":
        return _diag(-2j * omega / c**2), None

    dmats = grid.gradient_matrices() if flow or q_name == "u" else ()
    f = 1.0 / (np.sqrt(rho) * c)

    if q_name == "u":  # J_v vanishes for flat media, where grad f = 0
        j_v = sparse.hstack([_diag(-2j * omega * (f * rho) * (d_i @ f)) for d_i in dmats])
        j_a = sparse.block_diag([_diag(omega / c**2)] * grid.dim, format="csr")
        return j_v.tocsr(), j_a

    # dv = diag(g0) dq + j_off dq, every product differentiated as the discrete
    # operator it is: D(e dq) = D diag(e) dq, never e D dq + dq D e
    j_off = None
    j_a = None
    if q_name == "c":
        g0 = 2.0 * (omega**2 + 2j * omega * params.gamma) / c**3
        e = -1.0 / (np.sqrt(rho) * c**2)  # df/dc
        d_frho = e * rho  # d(f rho)/dc
        if flow:
            j_a = sparse.vstack(
                [_diag(-omega * u[:, i] / c**3) for i in range(grid.dim)], format="csr"
            )
    else:  # rho: rho^{1/2} Lap(rho^{-1/2})
        lap = grid.laplacian_matrix()
        g0 = 0.5 * rho**-0.5 * (lap @ rho**-0.5)
        j_off = _diag(np.sqrt(rho)) @ lap @ _diag(-0.5 * rho**-1.5)
        e = -0.5 / (rho**1.5 * c)  # df/drho
        d_frho = e * rho + f  # d(f rho)/drho
    if flow:  # -2i omega (f rho)(u . grad f)
        u_grad = sum(_diag(u[:, i]) @ d_i for i, d_i in enumerate(dmats))
        g0 = g0 - 2j * omega * d_frho * (u_grad @ f)
        j_flow = _diag(-2j * omega * f * rho) @ u_grad @ _diag(e)
        j_off = j_flow if j_off is None else j_off + j_flow
    j_v = _diag(g0.astype(np.complex128))
    if j_off is not None:
        j_v = j_v + j_off
    return j_v.tocsr(), j_a


def _diag(x: np.ndarray) -> sparse.csr_matrix:
    """diag(x) in CSR form, built directly (scipy's diags goes through DIA, 3x slower)."""
    n = len(x)
    return sparse.csr_matrix((x, np.arange(n), np.arange(n + 1)), shape=(n, n))


def helmholtz_delta(ref: HelmholtzParams, iterate: HelmholtzParams) -> DeltaOperator:
    """Perturbation operator (L_q - L_0) between two recast parameter sets."""
    return DeltaOperator(dv=iterate.v - ref.v, dA=iterate.A - ref.A)


# ---------------------------------------------------------------------------
# Flow utilities (shared with the projected flow step of the inversion)
# ---------------------------------------------------------------------------
def flow_divergence_matrix(grid: Grid, rho: np.ndarray) -> sparse.csr_matrix:
    """Sparse operator u -> div(rho u) on stacked components [u_x; u_y]."""
    dmats = grid.gradient_matrices()
    blocks = [d_i @ sparse.diags(rho) for d_i in dmats]
    return sparse.hstack(blocks, format="csr")


def divergence_free_projector(
    grid: Grid, rho: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Euclidean projector onto the kernel of div(rho .), on stacked [u_x; u_y].

    Iterated correction u <- u - R^T (R R^T + eps)^{-1} R u with R factored
    once and applied in three passes; the small shift regularizes
    near-rank-deficiency of the one-sided boundary closure and the extra
    passes push the residual to the admissibility tolerance.  The map is
    symmetric, and so self-adjoint in any uniform quadrature metric.
    """
    from scipy.sparse.linalg import splu  # flows only: not loaded with holoseis

    r = flow_divergence_matrix(grid, rho)
    gram = (r @ r.T).tocsc()
    scale = abs(gram).max()
    solver = splu(gram + 1e-12 * scale * sparse.identity(gram.shape[0], format="csc"))

    def project(flat: np.ndarray) -> np.ndarray:
        for _ in range(3):
            flat = flat - r.T @ solver.solve(r @ flat)
        return flat

    return project


def project_divergence_free(grid: Grid, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Euclidean projection of a flow field (n_int, d) onto the kernel of div(rho .)."""
    flat = divergence_free_projector(grid, rho)(u.ravel(order="F").astype(float))
    return flat.reshape(u.shape, order="F")


class LatticeTransfer:
    """The map L from media on a parameter lattice to media on a coarser
    lattice of the same block and receiver ring.

    With P the bilinear interpolation between the lattices, a scalar field
    maps to q_ref + P (q - q_ref), so a field at its reference value maps to
    exactly that value, and S (reference 0) to P S.  A flow maps to
    Pi P u, each component interpolated, with Pi the divergence-free
    projector at the mapped density, so the mapped medium passes validate.
    A perturbation maps by the linear part, P dq or Pi P du, and a dual
    field back by the weighted transpose W^{-1} L^T W_f in the two interior
    quadratures (Pi, symmetric, commutes with the uniform W_f).  The flow
    maps take the mapped density rho; the last Pi is kept for the next call
    at the same density.
    """

    def __init__(self, grid: Grid, lattice: Grid):
        self.lattice = lattice
        self.interp = lattice_interpolation(grid, lattice)
        self.interp_adjoint = _weighted_transpose(
            self.interp, grid.interior_weights, lattice.interior_weights
        )
        self._pi_at: Tuple[Optional[np.ndarray], Optional[Callable]] = (None, None)

    def medium(self, params: MediumParams) -> MediumParams:
        """The medium L(params) on the lattice."""
        refs = (("c", params.c_ref), ("rho", params.rho_ref), ("gamma", params.gamma_ref))
        mapped = {name: ref + self.interp @ (getattr(params, name) - ref) for name, ref in refs}
        u = np.zeros((self.lattice.n_interior, self.lattice.dim))
        if np.any(params.u):
            u = self._pi(self.interp @ params.u, mapped["rho"])
        return replace(params, grid=self.lattice, S=self.interp @ params.S, u=u, **mapped)

    def fields(self, dq: Dict[str, np.ndarray], rho: np.ndarray) -> Dict[str, np.ndarray]:
        """Perturbation fields L dq on the lattice, at the mapped density rho."""
        return {
            q: self._pi(self.interp @ f, rho) if q == "u" else self.interp @ f
            for q, f in dq.items()
        }

    def duals(self, duals: Dict[str, np.ndarray], rho: np.ndarray) -> Dict[str, np.ndarray]:
        """Dual fields W^{-1} L^T W_f z on the parameter lattice, at the mapped density rho."""
        return {
            q: self.interp_adjoint @ (self._pi(z, rho) if q == "u" else z)
            for q, z in duals.items()
        }

    def _pi(self, u: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Pi u for a flow (n_int of the lattice, d) at density rho."""
        at, project = self._pi_at
        if at is None or not np.array_equal(at, rho):
            project = divergence_free_projector(self.lattice, rho)
            self._pi_at = rho.copy(), project
        return project(u.ravel(order="F")).reshape(u.shape, order="F")


def stream_function_flow(
    grid: Grid, psi: np.ndarray, rho: np.ndarray, amplitude: float = 1.0
) -> np.ndarray:
    """Mass-conserving flow from a stream function: u = curl(psi)/rho, projected.

    u_raw = (d psi / dy, -d psi / dx) / rho guarantees div(rho u) = 0 in the
    continuum; the discrete projection removes the stencil commutation error.
    """
    dx, dy = grid.gradient_matrices()
    u_raw = np.column_stack([dy @ psi, -(dx @ psi)]) / rho[:, None]
    u_raw *= amplitude
    return project_divergence_free(grid, rho, u_raw)


# ---------------------------------------------------------------------------
# Presets / descriptors
# ---------------------------------------------------------------------------
def uniform_medium(
    grid: Grid,
    c: float = 1.0,
    rho: float = 1.0,
    gamma: float = 0.0,
    source: float = 0.0,
) -> MediumParams:
    n = grid.n_interior
    return MediumParams(
        grid=grid,
        c=np.full(n, float(c)),
        rho=np.full(n, float(rho)),
        gamma=np.full(n, float(gamma)),
        S=np.full(n, float(source)),
        u=np.zeros((n, grid.dim)),
        c_ref=float(c),
        rho_ref=float(rho),
        gamma_ref=float(gamma),
        c_min=1e-8 * float(c),
        rho_min=1e-8 * float(rho),
    )


def _shape_profile(grid: Grid, spec: Dict) -> np.ndarray:
    """Evaluate an analytic perturbation profile on the interior nodes."""
    pts = grid.interior_nodes
    center = np.asarray(spec.get("center", [0.0] * grid.dim), dtype=float)
    hw = float(spec["half_width"])
    amp = float(spec["amplitude"])
    kind = spec.get("shape", "block")
    if kind == "block":
        inside = np.all(np.abs(pts - center[None, :]) <= hw, axis=1)
        return amp * inside.astype(float)
    if kind == "gaussian-blob":
        r2 = np.sum((pts - center[None, :]) ** 2, axis=1)
        return amp * np.exp(-r2 / (2.0 * hw**2))
    raise UsageError(f"unknown perturbation shape {kind!r}")


def medium_from_descriptor(grid: Grid, desc: Dict, power: float = 1.0) -> MediumParams:
    """Build a medium from the JSON descriptor schema.

    The "damping" source model is S = power gamma/c^2 on the unperturbed
    background, power being the source power spectrum Pi of the band.

    Schema::

        {
          "reference": {"c": .., "rho": .., "gamma": ..},
          "source": {"model": "damping" | "uniform" | "zero", "value": ..},
          "perturbations": [{"field": "c"|"rho"|"gamma"|"S",
                             "shape": "block"|"gaussian-blob",
                             "center": [..], "half_width": .., "amplitude": ..}],
          "flow": {"model": "stream-gaussian",
                   "center": [..], "half_width": .., "amplitude": ..},
          "fields": {"c": "file.hsm", ...}          # raw binary overrides
        }
    """
    from . import io as _io

    ref = desc.get("reference", {})
    params = uniform_medium(
        grid,
        c=ref.get("c", 1.0),
        rho=ref.get("rho", 1.0),
        gamma=ref.get("gamma", 0.0),
    )
    source = desc.get("source", {"model": "zero"})
    model = source.get("model", "zero")
    if model == "damping":
        params.S = power * params.gamma / params.c**2
    elif model == "uniform":
        params.S = np.full(grid.n_interior, float(source.get("value", 1.0)))
    elif model != "zero":
        raise UsageError(f"unknown source model {model!r}")

    for pert in desc.get("perturbations", []):
        fname = pert["field"]
        if fname not in ("c", "rho", "gamma", "S"):
            raise UsageError(f"cannot perturb field {fname!r}")
        setattr(params, fname, getattr(params, fname) + _shape_profile(grid, pert))

    flow = desc.get("flow")
    if flow is not None:
        if flow.get("model", "stream-gaussian") != "stream-gaussian":
            raise UsageError(f"unknown flow model {flow.get('model')!r}")
        center = np.asarray(flow.get("center", [0.0] * grid.dim), dtype=float)
        hw = float(flow["half_width"])
        pts = grid.interior_nodes
        r2 = np.sum((pts - center[None, :]) ** 2, axis=1)
        psi = np.exp(-r2 / (2.0 * hw**2))
        params.u = stream_function_flow(
            grid, psi, params.rho, amplitude=float(flow.get("amplitude", 1.0))
        )

    for fname, path in desc.get("fields", {}).items():
        try:
            raw = _io.read_matrix(path)
        except OSError as exc:
            raise UsageError(f"{path}: cannot read medium field {fname!r}: {exc.strerror}")
        shape = (grid.n_interior, grid.dim) if fname == "u" else (grid.n_interior,)
        if raw.size != np.prod(shape):
            raise UsageError(
                f"{path}: medium field {fname!r} holds {raw.size} values, not {np.prod(shape)}"
            )
        setattr(params, fname, np.real(raw).reshape(shape))

    params.validate()
    return params
