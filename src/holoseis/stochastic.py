"""Random source model, wavefield sampling, and covariance operators.

Sources are circular complex Gaussians, independent per node, with nodal
variance S(x_i)/w_i so that the quadrature-weighted covariance represents the
multiplication operator M_S exactly:

    Cov(s_i, s_j) = delta_ij S_i / w_i
    =>  Cov((G s w)_a, (G s w)_b) = sum_i G[a,i] S_i w_i conj(G[b,i]).

Circularity (independent real/imaginary parts of equal variance) is what
makes the pseudo-covariance E[psi psi] vanish and gives the correlation data
its separable Isserlis fourth-moment structure.

Sampling and the model covariance read one medium at one frequency, a
LinearizedModel of :func:`holoseis.holography.build_model`: its S, its
receiver rows Tr G and its boundary source, so the sources and the Green's
operator cannot come from two media.

A surface wavefield is a circular Gaussian vector on the receivers, so its
law is fixed by the n_rec x n_rec model covariance C alone.  Sampling
therefore draws in receiver space, not source space: C = L L^H from one
eigendecomposition, and realization j is L z_j with z_j circular standard
normal.  The cost is one eigh of C plus N n_rec^2 multiply-adds and 2 N n_rec
normals, whatever the size of supp(S).  One counter-based Philox stream per
seed feeds the realizations in order, so a fixed seed reproduces archives
bit-identically whatever the batch size, and the first k realizations of an
N-draw are a k-draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.blas import zherk

from .errors import UsageError
from .greens import Grid
from .medium import FrequencyContext, MediumParams

if TYPE_CHECKING:
    from .holography import LinearizedModel

_SAMPLE_BATCH: int = 256  # realizations per GEMM with the covariance factor

__all__ = [
    "RealizationSet",
    "CovarianceOperator",
    "forward_covariance",
    "sample_wavefields",
    "empirical_corr",
    "source_cov_from_damping",
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
    reproducible from (seed, n) and the model covariance alone.
    """

    fields: np.ndarray
    seed: int
    omega: float

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
def _boundary_block(a_bnd: np.ndarray, boundary_src: np.ndarray, grid: Grid) -> np.ndarray:
    """Receiver-to-boundary rows times the weighted boundary source, a_bnd M_B W.

    boundary_src is the diagonal strength M_B on the receiver nodes.
    """
    b = np.asarray(boundary_src)
    if b.shape != (grid.n_receivers,):
        raise UsageError("boundary source must hold one strength per receiver")
    return a_bnd * (b * grid.receiver_weights)[None, :]


def forward_covariance(model: LinearizedModel) -> CovarianceOperator:
    """Model covariance C = Tr G (M_S + Tr* Cov[s_bnd] Tr) G* Tr* on receivers.

    Reads the model's S, its receiver rows and its boundary source strength
    M_B (diagonal on the receiver/boundary nodes), if it has one.
    """
    grid = model.grid
    s_field = model.hp.S
    if np.min(s_field) < 0:
        raise UsageError("source strength must be non-negative")
    a_int = model.h_alpha
    sw = s_field * grid.interior_weights
    cov = (a_int * sw[None, :]) @ a_int.conj().T

    if model.boundary_src is not None:
        a_bnd = model.receiver_rows[:, grid.receiver_idx]
        cov += _boundary_block(a_bnd, model.boundary_src, grid) @ a_bnd.conj().T

    cov = 0.5 * (cov + cov.conj().T)  # exact Hermitian symmetry
    return CovarianceOperator(matrix=cov, weights=grid.receiver_weights.copy())


def sample_wavefields(model: LinearizedModel, n_realizations: int, seed: int) -> RealizationSet:
    """Draw N independent surface wavefields with covariance forward_covariance(model).

    The covariance is factored once, C = L L^H with L = V sqrt(Lambda) from
    ``eigh`` (round-off negative eigenvalues clipped to 0), and realization j
    is z_j L^T with z_j = (x_j + i y_j)/sqrt(2): x_j then y_j are the next
    2 n_rec normals of the single stream ``Philox(key=seed)``.  So the sampled
    law is exactly the model covariance, boundary source included, and the
    draws run in realization order, _SAMPLE_BATCH rows at a time through one
    reused buffer: the bytes do not depend on the batch size, and the first k
    rows of an N-draw are a k-draw.  Cost: one eigh of C, 2 N n_rec normals
    and N n_rec^2 complex multiply-adds.
    """
    if n_realizations < 1:
        raise UsageError("need at least one realization")
    n_rec = model.grid.n_receivers
    lam, vec = np.linalg.eigh(forward_covariance(model).matrix)
    lt = (vec * np.sqrt(np.maximum(lam, 0.0) / 2.0)).T  # L^T / sqrt(2)
    # z L^T for real x, y is [x | y] [L^T ; i L^T]/sqrt(2): one real GEMM of
    # the draws whose float64 output is the fields' interleaved Re/Im
    factor = np.ascontiguousarray(np.concatenate([lt, 1j * lt])).view(np.float64)

    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    # at least two rows: numpy multiplies a single row by gemv, which rounds
    # differently from the rows of a GEMM
    draws = np.zeros((max(min(_SAMPLE_BATCH, n_realizations), 2), 2 * n_rec))
    fields = np.empty((n_realizations, n_rec), dtype=np.complex128)
    out = fields.view(np.float64)
    for start in range(0, n_realizations, _SAMPLE_BATCH):
        rows = min(_SAMPLE_BATCH, n_realizations - start)
        gen.standard_normal(out=draws[:rows])
        if rows > 1:
            np.matmul(draws[:rows], factor, out=out[start : start + rows])
        else:
            out[start] = (draws[:2] @ factor)[0]
    return RealizationSet(fields=fields, seed=int(seed), omega=model.hp.omega)


def empirical_corr(realizations: RealizationSet, weights: np.ndarray) -> CovarianceOperator:
    """Unbiased correlation estimate Corr = (1/N) sum psi_n (x) conj(psi_n)."""
    f = realizations.fields
    if f.shape[0] < 1:
        raise UsageError("need at least one realization")
    corr = zherk(1.0 / f.shape[0], f.T)  # upper triangle of F^T conj(F)/N, no copy of F
    lower = np.tril_indices(f.shape[1], -1)
    corr[lower] = corr.T[lower].conj()  # exactly Hermitian with a real diagonal
    return CovarianceOperator(matrix=corr, weights=np.asarray(weights, dtype=float))


def source_cov_from_damping(params: MediumParams, freq: FrequencyContext) -> np.ndarray:
    """Damping-proportional source strength S(x) = Pi(omega) gamma(x)/c^2(x).

    This is the equipartition source model under which the surface covariance
    collapses onto the imaginary part of the outgoing Green's function.
    """
    if np.min(params.gamma) < 0:
        raise UsageError("damping must be non-negative")
    return freq.power * params.gamma / params.c**2
