"""Random source model, wavefield sampling, and covariance operators.

Sources are circular complex Gaussians, independent per node, with nodal
variance S(x_i)/w_i so that the quadrature-weighted covariance represents the
multiplication operator M_S exactly:

    Cov(s_i, s_j) = delta_ij S_i / w_i
    =>  Cov((G s w)_a, (G s w)_b) = sum_i G[a,i] S_i w_i conj(G[b,i]).

Circularity (independent real/imaginary parts of equal variance) is what
makes the pseudo-covariance E[psi psi] vanish and gives the correlation data
its separable Isserlis fourth-moment structure.

Sampling uses counter-based Philox streams split per realization index, so a
fixed seed reproduces archives bit-identically regardless of batching; the
stream of realization j is set by moving one bit generator's counter, without
a new generator per realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import UsageError
from .greens import Grid, GreensOperator
from .medium import FrequencyContext, HelmholtzParams, MediumParams

_SAMPLE_BATCH: int = 1024  # realizations per GEMM with the receiver rows

__all__ = [
    "RealizationSet",
    "CovarianceOperator",
    "forward_covariance",
    "sample_wavefields",
    "empirical_corr",
    "source_cov_from_damping",
    "isserlis_cov4_apply",
    "hs_inner",
    "hs_norm",
]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------
@dataclass
class RealizationSet:
    """N surface wavefield samples at one frequency.

    fields has shape (N, n_receivers); realization n lives in row n and is
    reproducible from (seed, n) alone.
    """

    fields: np.ndarray
    seed: int
    omega: float
    grid_hash: str = ""

    @property
    def n_realizations(self) -> int:
        return self.fields.shape[0]


@dataclass
class CovarianceOperator:
    """Hermitian PSD kernel on receiver nodes with its quadrature weights.

    The matrix stores kernel values C(x_a, x_b); the operator action on a
    nodal vector f is matrix @ (weights * f).
    """

    matrix: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.matrix @ (self.weights * f)

    def operator_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the weighted operator W^{1/2} C W^{1/2} (real)."""
        sw = np.sqrt(self.weights)
        sym = sw[:, None] * self.matrix * sw[None, :]
        return np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))

    def trace(self) -> float:
        """Operator trace tr(C) = sum_a C(a,a) w_a."""
        return float(np.real(np.sum(np.diag(self.matrix) * self.weights)))

    def validate(self, psd_floor: float = 1e-10) -> None:
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        scale = max(np.max(np.abs(self.matrix)), 1e-300)
        if herm > 1e-12 * scale:
            raise UsageError(f"covariance not Hermitian: deviation {herm:.3e}")
        eig = self.operator_eigenvalues()
        if eig.size and eig.min() < -psd_floor * max(eig.max(), 1e-300):
            raise UsageError(f"covariance not PSD: min eigenvalue {eig.min():.3e}")


def hs_inner(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> complex:
    """Quadrature Hilbert-Schmidt inner product <A, B> = tr(B* A) on Gamma."""
    return complex(np.sum(a * b.conj() * weights[:, None] * weights[None, :]))


def hs_norm(a: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(max(hs_inner(a, a, weights).real, 0.0)))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------
def _boundary_block(
    a_bnd: np.ndarray, boundary_src: Union[np.ndarray, float], grid: Grid
) -> np.ndarray:
    """Receiver-to-boundary rows times the weighted boundary source.

    boundary_src is a 1D array (diagonal strength M_B on the receiver nodes)
    or a dense PSD kernel on them; the result is a_bnd M_B W or a_bnd W B W.
    """
    w_rec = grid.receiver_weights
    b = np.asarray(boundary_src)
    if b.ndim == 1:
        if b.shape != (grid.n_receivers,):
            raise UsageError("diagonal boundary source must match receiver count")
        return a_bnd * (b * w_rec)[None, :]
    if b.ndim == 2:
        if b.shape != (grid.n_receivers, grid.n_receivers):
            raise UsageError("boundary source kernel must be receivers x receivers")
        return a_bnd @ (w_rec[:, None] * b * w_rec[None, :])
    raise UsageError("boundary source must be 1D (diagonal) or 2D (kernel)")


def forward_covariance(
    hp: HelmholtzParams,
    g: GreensOperator,
    boundary_src: Optional[Union[np.ndarray, float]] = None,
) -> CovarianceOperator:
    """Model covariance C = Tr G (M_S + Tr* Cov[s_bnd] Tr) G* Tr* on receivers.

    boundary_src may be a 1D array (diagonal boundary source strength M_B on
    the receiver/boundary nodes) or a dense PSD kernel matrix on them.
    """
    grid = g.grid
    s_field = hp.S
    if np.min(s_field) < 0:
        raise UsageError("source strength must be non-negative")
    rows = g.receiver_rows
    a_int = rows[:, grid.interior_idx]
    sw = s_field * grid.interior_weights
    cov = (a_int * sw[None, :]) @ a_int.conj().T

    if boundary_src is not None:
        a_bnd = rows[:, grid.receiver_idx]
        cov += _boundary_block(a_bnd, boundary_src, grid) @ a_bnd.conj().T

    cov = 0.5 * (cov + cov.conj().T)  # exact Hermitian symmetry
    return CovarianceOperator(matrix=cov, weights=grid.receiver_weights.copy())


def sample_wavefields(
    hp: HelmholtzParams,
    g: GreensOperator,
    n_realizations: int,
    seed: int,
) -> RealizationSet:
    """Draw N independent surface wavefields Tr(G s) for circular Gaussian s.

    Realization j draws from the Philox stream ``Philox(key=seed).jumped(j)``,
    whose counter is [0, 0, j, 0]: one bit generator is reset to that counter
    per realization and fills one reused buffer of draws.
    """
    if n_realizations < 1:
        raise UsageError("need at least one realization")
    grid = g.grid
    a_int = g.receiver_rows[:, grid.interior_idx]  # (n_rec, n_int)
    w = grid.interior_weights
    amp = np.sqrt(hp.S / (2.0 * w))  # per-node std of Re and Im parts
    n_int = grid.n_interior

    bitgen = np.random.Philox(key=int(seed))
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter zero, buffer empty
    counter = state["state"]["counter"]
    draws = np.empty((2, n_int))
    block = np.empty((min(_SAMPLE_BATCH, n_realizations), n_int), dtype=np.complex128)
    fields = np.empty((n_realizations, grid.n_receivers), dtype=np.complex128)
    for start in range(0, n_realizations, _SAMPLE_BATCH):
        stop = min(start + _SAMPLE_BATCH, n_realizations)
        blk = block[: stop - start]
        for j, row in enumerate(blk, start):
            counter[2] = j
            bitgen.state = state
            gen.standard_normal(out=draws)
            np.multiply(amp, draws[0], out=row.real)
            np.multiply(amp, draws[1], out=row.imag)
        blk *= w
        np.matmul(blk, a_int.T, out=fields[start:stop])
    return RealizationSet(
        fields=fields, seed=int(seed), omega=hp.omega, grid_hash=grid.content_hash()
    )


def empirical_corr(realizations: RealizationSet, weights: np.ndarray) -> CovarianceOperator:
    """Unbiased correlation estimate Corr = (1/N) sum psi_n (x) conj(psi_n)."""
    f = realizations.fields
    if f.shape[0] < 1:
        raise UsageError("need at least one realization")
    corr = (f.T @ f.conj()) / f.shape[0]
    corr = 0.5 * (corr + corr.conj().T)
    return CovarianceOperator(matrix=corr, weights=np.asarray(weights, dtype=float))


def source_cov_from_damping(params: MediumParams, freq: FrequencyContext) -> np.ndarray:
    """Damping-proportional source strength S(x) = Pi(omega) gamma(x)/c^2(x).

    This is the equipartition source model under which the surface covariance
    collapses onto the imaginary part of the outgoing Green's function.
    """
    if np.min(params.gamma) < 0:
        raise UsageError("damping must be non-negative")
    return freq.power * params.gamma / params.c**2


def isserlis_cov4_apply(cov: CovarianceOperator, e: np.ndarray) -> np.ndarray:
    """Apply the separable realization-noise operator C4 (f x g) = Cf x Cg.

    For a kernel E on Gamma x Gamma the action is C o E o C* composed with
    the receiver quadrature; the 4-index tensor is never materialized.
    """
    if e.shape != cov.matrix.shape:
        raise UsageError("kernel shape must match the covariance")
    w = cov.weights
    return cov.matrix @ (w[:, None] * e * w[None, :]) @ cov.matrix.conj().T
