"""Dense 2D Green's operators for uniform reference media and their resolvent updates.

Every grid is planar: the uniform-medium kernel is the outgoing (i/4) H1_0(k r)
of -(Laplace + k^2), and a grid whose nodes are not 2D points is rejected.

The discrete convention throughout the package: a kernel matrix ``K`` of shape
(n, n) represents the integral operator

    (G s)(x_i) = sum_j K[i, j] s[j] w[j]

with quadrature weights ``w`` attached to the grid nodes, i.e. kernels are
stored *without* weights and every application inserts them explicitly.

The interior nodes lie on a lattice of step ``grid.spacing``, so the uniform
reference kernel is evaluated once per distinct lattice offset and gathered
into the interior block on first use; receiver rows, all that sampling and
the Lindsey-Braun propagators read, are evaluated pair by pair without it.
No kernel is kept between calls or on disk: every assembly evaluates it
afresh.

A perturbed medium enters through the second-kind identity

    G_q = [Id + G_0 (L_q - L_0)]^{-1} G_0,
    (L_q - L_0) psi = dv * psi - 2i dA . grad(psi),

solved by a pivoted LU factorization restricted to the support of the
perturbation.  The returned operator keeps only the base kernel, the sparse
supported rows of L_q - L_0 and the LU of the support-sized core, and reads
receiver rows and the propagators' Hermitian products off blocks of the base
kernel; the full perturbed kernel is evaluated only when requested.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from .errors import (
    MemoryBudgetError,
    NumericalBreakdownError,
    ResonanceError,
    SingularityError,
    UsageError,
)
from .specfun import hankel_h1, hankel_h1_array

EULER_GAMMA: float = 0.5772156649015328606
DEFAULT_BUDGET_BYTES: int = 4 * 1024**3
_GATHER_ROWS: int = 64  # rows per lattice-table gather; core columns per sparse product

__all__ = [
    "Grid",
    "GreensOperator",
    "DeltaOperator",
    "square_grid",
    "disk_grid",
    "green_uniform",
    "green_diagonal_2d",
    "assemble_green",
    "assemble_receiver_rows",
    "update_green",
]


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------
@dataclass
class Grid:
    """Quadrature grid: interior (volume) nodes plus receiver nodes.

    Attributes
    ----------
    nodes : np.ndarray, shape (n, 2)
        Node positions in the plane; interior nodes first, then receivers (by
        convention of the factories, not a requirement).
    weights : np.ndarray, shape (n,)
        Quadrature weight per node: cell measure for interior nodes, arc
        measure for receiver nodes.
    receiver_idx : np.ndarray
        Indices of the receiver nodes (observation hypersurface).
    interior_idx : np.ndarray
        Indices of the volume nodes carrying sources/perturbations.
    wavelength_resolution : float
        Nodes per local wavelength the grid was built for (>= 7).
    interior_shape : tuple or None
        (nx, ny) row-major structure of the interior block; None for
        unstructured interiors (no finite-difference stencils available).
    spacing : float or None
        Lattice step of the interior nodes; assemble_green requires every
        interior node to lie on this lattice.
    domain_measure : float or None
        Expected measure of the interior region, checked by validate().
    """

    nodes: np.ndarray
    weights: np.ndarray
    receiver_idx: np.ndarray
    interior_idx: np.ndarray
    wavelength_resolution: float
    interior_shape: Optional[Tuple[int, ...]] = None
    spacing: Optional[float] = None
    domain_measure: Optional[float] = None
    _stencils: Optional[Tuple[sparse.csr_matrix, ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_interior(self) -> int:
        return len(self.interior_idx)

    @property
    def n_receivers(self) -> int:
        return len(self.receiver_idx)

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[self.interior_idx]

    @property
    def receiver_nodes(self) -> np.ndarray:
        return self.nodes[self.receiver_idx]

    @property
    def interior_weights(self) -> np.ndarray:
        return self.weights[self.interior_idx]

    @property
    def receiver_weights(self) -> np.ndarray:
        return self.weights[self.receiver_idx]

    def validate(self) -> None:
        """Check grid invariants; raises UsageError on violation."""
        _require_2d(self)
        n = self.n_nodes
        if self.weights.shape != (n,):
            raise UsageError(f"weights shape {self.weights.shape} != ({n},)")
        if np.any(self.weights <= 0):
            raise UsageError("all quadrature weights must be positive")
        if np.intersect1d(self.receiver_idx, self.interior_idx).size:
            raise UsageError("receiver_idx and interior_idx must be disjoint")
        if self.wavelength_resolution < 7.0:
            raise UsageError(
                f"resolution {self.wavelength_resolution:.2f} below 7 nodes "
                "per wavelength"
            )
        if self.domain_measure is not None:
            total = float(np.sum(self.interior_weights))
            rel = abs(total - self.domain_measure) / self.domain_measure
            if rel > 0.01:
                raise UsageError(
                    f"interior weights sum {total:.6g} deviates {rel:.2%} "
                    f"from domain measure {self.domain_measure:.6g}"
                )

    def content_hash(self) -> str:
        """SHA-256 over node positions, weights and index sets."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.nodes).tobytes())
        h.update(np.ascontiguousarray(self.weights).tobytes())
        h.update(np.ascontiguousarray(self.receiver_idx).tobytes())
        h.update(np.ascontiguousarray(self.interior_idx).tobytes())
        return h.hexdigest()

    # -- finite-difference stencils on the structured interior --------------
    def gradient_matrices(self) -> Tuple[sparse.csr_matrix, ...]:
        """Sparse d/dx_i matrices on the interior block (centered, one-sided
        at the block boundary).  Perturbation fields vanish at the boundary of
        the interior region, so the one-sided closure is second-order benign.
        """
        if self._stencils is None:
            if self.interior_shape is None or self.spacing is None:
                raise UsageError("grid has no structured interior block")
            object.__setattr__(
                self, "_stencils", _build_gradients(self.interior_shape, self.spacing)
            )
        return self._stencils

    def laplacian_matrix(self) -> sparse.csr_matrix:
        """Discrete Laplacian composed from the shared gradient stencils
        (sum_i D_i @ D_i), so its transpose is exactly available."""
        mats = self.gradient_matrices()
        lap = mats[0] @ mats[0]
        for d in mats[1:]:
            lap = lap + d @ d
        return lap.tocsr()


def _d1_matrix(m: int, h: float) -> sparse.csr_matrix:
    """1D first derivative: centered interior, 2nd-order one-sided at ends."""
    rows, cols, vals = [], [], []
    for i in range(m):
        if 0 < i < m - 1:
            rows += [i, i]
            cols += [i - 1, i + 1]
            vals += [-0.5 / h, 0.5 / h]
        elif i == 0:
            rows += [0, 0, 0]
            cols += [0, 1, 2]
            vals += [-1.5 / h, 2.0 / h, -0.5 / h]
        else:
            rows += [i, i, i]
            cols += [i, i - 1, i - 2]
            vals += [1.5 / h, -2.0 / h, 0.5 / h]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))


def _build_gradients(shape: Tuple[int, ...], h: float) -> Tuple[sparse.csr_matrix, ...]:
    if len(shape) != 2:
        raise UsageError("structured stencils implemented for 2D blocks only")
    nx, ny = shape
    dx1 = _d1_matrix(nx, h)
    dy1 = _d1_matrix(ny, h)
    eye_x = sparse.identity(nx, format="csr")
    eye_y = sparse.identity(ny, format="csr")
    # row-major interior ordering: node index = ix * ny + iy
    dx = sparse.kron(dx1, eye_y, format="csr")
    dy = sparse.kron(eye_x, dy1, format="csr")
    return dx, dy


# ---------------------------------------------------------------------------
# Grid factories
# ---------------------------------------------------------------------------
def _circle_receivers(radius: float, n: int, phase: float) -> Tuple[np.ndarray, np.ndarray]:
    theta = phase + 2.0 * np.pi * np.arange(n) / n  # (n,)
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])  # (n, 2)
    w = np.full(n, 2.0 * np.pi * radius / n)  # arc measure
    return pts, w


def square_grid(
    half_width: float,
    wavelength: float,
    points_per_wavelength: float = 7.5,
    receiver_radius: float = 1.0,
    n_receivers: int = 40,
    receiver_phase: float = 0.0,
) -> Grid:
    """Square interior block [-a, a]^2 with receivers on a surrounding circle.

    The lattice spacing is snapped so the block tiles exactly; cell weights
    are exact, so the interior quadrature reproduces the block measure to
    machine precision.
    """
    if receiver_radius <= half_width * np.sqrt(2.0):
        raise UsageError(
            "receiver circle must enclose the interior block: "
            f"radius {receiver_radius} <= corner distance "
            f"{half_width * np.sqrt(2.0):.4f}"
        )
    if n_receivers < 2:
        raise UsageError("need at least 2 receivers")
    h_target = wavelength / points_per_wavelength
    nx = max(int(np.ceil(2.0 * half_width / h_target)), 3)
    h = 2.0 * half_width / nx
    centers = -half_width + (np.arange(nx) + 0.5) * h  # (nx,)
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    interior = np.column_stack([xx.ravel(), yy.ravel()])  # (nx*nx, 2), row-major
    w_int = np.full(len(interior), h * h)

    rec, w_rec = _circle_receivers(receiver_radius, n_receivers, receiver_phase)
    nodes = np.vstack([interior, rec])
    weights = np.concatenate([w_int, w_rec])
    grid = Grid(
        nodes=nodes,
        weights=weights,
        receiver_idx=np.arange(len(interior), len(nodes)),
        interior_idx=np.arange(len(interior)),
        wavelength_resolution=wavelength / h,
        interior_shape=(nx, nx),
        spacing=h,
        domain_measure=(2.0 * half_width) ** 2,
    )
    grid.validate()
    return grid


def disk_grid(
    radius: float,
    wavelength: float,
    points_per_wavelength: float = 7.5,
    receiver_radius: float = 0.5,
    n_receivers: int = 24,
    receiver_phase: float = 0.0,
    n_subsample: int = 16,
) -> Grid:
    """Disk-shaped source volume with receivers on an *interior* circle.

    Boundary cells are clipped by subsampling so the weights reproduce the
    disk area well within the 1% tolerance.  Used for full-space identities
    where sources must surround the receivers; the receiver circle is offset
    from the lattice so no receiver coincides with a source node.
    """
    h_target = wavelength / points_per_wavelength
    m = int(np.ceil(radius / h_target))
    h = radius / m
    centers = (np.arange(-m, m) + 0.5) * h
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    rr = np.hypot(pts[:, 0], pts[:, 1])
    keep = rr < radius + h  # candidates incl. boundary cells

    pts = pts[keep]
    # coverage fraction of each cell by n_subsample^2 midpoint samples
    offs = (np.arange(n_subsample) + 0.5) / n_subsample - 0.5  # (s,)
    ox, oy = np.meshgrid(offs * h, offs * h, indexing="ij")
    sub = np.column_stack([ox.ravel(), oy.ravel()])  # (s*s, 2)
    dist2 = (
        (pts[:, None, 0] + sub[None, :, 0]) ** 2
        + (pts[:, None, 1] + sub[None, :, 1]) ** 2
    )  # (n, s*s)
    frac = np.mean(dist2 < radius**2, axis=1)  # (n,)
    inside = frac > 0
    interior = pts[inside]
    w_int = h * h * frac[inside]

    rec, w_rec = _circle_receivers(receiver_radius, n_receivers, receiver_phase)
    nodes = np.vstack([interior, rec])
    weights = np.concatenate([w_int, w_rec])
    grid = Grid(
        nodes=nodes,
        weights=weights,
        receiver_idx=np.arange(len(interior), len(nodes)),
        interior_idx=np.arange(len(interior)),
        wavelength_resolution=wavelength / h,
        interior_shape=None,
        spacing=h,
        domain_measure=np.pi * radius**2,
    )
    grid.validate()
    return grid


# ---------------------------------------------------------------------------
# Point evaluations of the uniform-medium Green's function
# ---------------------------------------------------------------------------
def green_uniform(k: complex, x: np.ndarray, y: np.ndarray) -> complex:
    """Outgoing 2D free-space Green's function (i/4) H1_0(k |x-y|) of -(Laplace + k^2).

    Im k >= 0 gives exponential decay.  Raises SingularityError at x = y;
    callers use the regularized cell-averaged diagonal instead.
    """
    r = float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    if r == 0.0:
        raise SingularityError("Green's function evaluated at coincident points")
    return 0.25j * hankel_h1(0, complex(k) * r)


def green_diagonal_2d(k: complex, cell_radius: float) -> complex:
    """Cell-averaged 2D self-interaction over a disk of given radius.

    Average of the leading log term of (i/4) H1_0(k r),

        (1/(pi a^2)) Int_disk (1/2pi) ln(1/r) dA = (1/2pi)(ln(1/a) + 1/2),

    plus the constant terms i/4 - (1/2pi)(ln(k/2) + EULER_GAMMA) of the
    small-argument expansion (principal branch for complex k).
    """
    if cell_radius <= 0:
        raise UsageError("cell_radius must be positive")
    k = complex(k)
    log_avg = np.log(1.0 / cell_radius) + 0.5
    return complex(
        (log_avg - np.log(k / 2.0) - EULER_GAMMA) / (2.0 * np.pi) + 0.25j
    )


def _green_diagonal_line_2d(k: complex, length: float) -> complex:
    """2D self-interaction averaged along a boundary segment of given length."""
    k = complex(k)
    # (1/L) Int_{-L/2}^{L/2} ln(1/|s|) ds = ln(2/L) + 1
    log_avg = np.log(2.0 / length) + 1.0
    return complex((log_avg - np.log(k / 2.0) - EULER_GAMMA) / (2.0 * np.pi) + 0.25j)


# ---------------------------------------------------------------------------
# Dense assembly
# ---------------------------------------------------------------------------
def _diagonal_values(grid: Grid, k: complex) -> np.ndarray:
    """Regularized self-interaction of each interior node, from its cell measure.

    Receiver self-entries are line averages set by assemble_receiver_rows.
    """
    w = grid.interior_weights
    return np.array([green_diagonal_2d(k, a) for a in np.sqrt(w / np.pi)])


def _radial_kernel(k: complex, r: np.ndarray) -> np.ndarray:
    """Uniform-medium kernel at distances r > 0, the array form of green_uniform."""
    return 0.25j * hankel_h1_array(0, complex(k) * r)


def _require_2d(grid: Grid) -> None:
    if grid.nodes.ndim != 2 or grid.nodes.shape[1] != 2:
        raise UsageError(f"grid nodes must be 2D points, got shape {grid.nodes.shape}")


def _lattice_indices(grid: Grid) -> np.ndarray:
    """Integer lattice index (n_int, d) of each interior node, from grid.spacing."""
    if grid.spacing is None:
        raise UsageError("grid has no lattice spacing")
    pts = grid.interior_nodes
    scaled = (pts - pts.min(axis=0)) / grid.spacing
    lattice = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - lattice)) > 1e-9:
        raise UsageError("interior nodes do not lie on a lattice of step grid.spacing")
    if len(np.unique(lattice, axis=0)) != len(lattice):
        raise UsageError("two interior nodes share a lattice point")
    return lattice


def assemble_green(
    grid: Grid,
    k: complex,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> "GreensOperator":
    """Assemble the dense uniform-medium Green's kernel on all grid nodes.

    The grid, the budget and the lattice are checked at once; the kernel is
    gathered on first use (``kernel``, ``mul_kernel_hermitian``,
    ``update_green``), and receiver rows read before that need no gather.
    Off-diagonal entries are closed-form point evaluations.  Between interior
    nodes the kernel depends only on the lattice offsets |a_i|, so it is
    evaluated once on the table of distances h sqrt(sum a_i^2) and gathered
    into the interior block in row blocks; receiver rows come from
    assemble_receiver_rows, their transpose (reciprocity) gives the receiver
    columns.  The interior diagonal is the exact cell average of the leading
    singularity plus the constant terms of the small-argument expansion.
    """
    _require_2d(grid)
    k = complex(k)
    n = grid.n_nodes
    need = 16 * n * n
    if need > budget_bytes:
        raise MemoryBudgetError(
            f"dense kernel needs {need / 1e9:.2f} GB > budget {budget_bytes / 1e9:.2f} GB"
        )

    if grid.n_interior + grid.n_receivers != n:
        raise UsageError("every node must be an interior node or a receiver")
    lattice = _lattice_indices(grid)

    def gather(rows: Optional[np.ndarray]) -> np.ndarray:
        offsets = np.indices(lattice.max(axis=0) + 1, dtype=float)
        r_table = grid.spacing * np.sqrt(np.sum(offsets**2, axis=0))
        r_table.flat[0] = grid.spacing  # placeholder; the diagonal is overwritten below
        table = _radial_kernel(k, r_table)

        kernel = np.empty((n, n), dtype=np.complex128)
        int_idx = grid.interior_idx
        for start in range(0, len(int_idx), _GATHER_ROWS):
            block = lattice[start : start + _GATHER_ROWS]
            steps = tuple(np.abs(np.subtract.outer(b, a)) for b, a in zip(block.T, lattice.T))
            kernel[np.ix_(int_idx[start : start + _GATHER_ROWS], int_idx)] = table[steps]
        if rows is None:
            rows = assemble_receiver_rows(grid, k)
        kernel[grid.receiver_idx, :] = rows
        kernel[:, grid.receiver_idx] = rows.T
        kernel[int_idx, int_idx] = _diagonal_values(grid, k)
        return kernel

    return GreensOperator(grid=grid, k_ref=k, _gather=gather)


def assemble_receiver_rows(grid: Grid, k: complex) -> np.ndarray:
    """Receiver-row block G(x_r, y_j) for all grid nodes, without the full matrix.

    Receiver self-entries get the line-averaged diagonal.
    """
    _require_2d(grid)
    rec = grid.receiver_nodes
    diff = rec[:, None, :] - grid.nodes[None, :, :]
    r = np.sqrt(np.sum(diff**2, axis=-1))
    self_pos = (np.arange(grid.n_receivers), grid.receiver_idx)
    r[self_pos] = 1.0
    rows = _radial_kernel(k, r)
    rows[self_pos] = [_green_diagonal_line_2d(k, ell) for ell in grid.receiver_weights]
    return rows


# ---------------------------------------------------------------------------
# Perturbations and the resolvent update
# ---------------------------------------------------------------------------
@dataclass
class DeltaOperator:
    """Zeroth/first-order perturbation (L_q - L_0) on the interior block.

        (L_q - L_0) psi = dv * psi - 2i dA . grad(psi)

    Attributes
    ----------
    dv : np.ndarray, complex, shape (n_int,)
    dA : np.ndarray or None, real, shape (n_int, d)
    gradient_stencil : tuple of sparse matrices
        The shared finite-difference gradients of the grid.
    """

    dv: np.ndarray
    dA: Optional[np.ndarray]
    gradient_stencil: Tuple[sparse.csr_matrix, ...]

    def is_zero(self) -> bool:
        """True when dv and dA vanish; a NaN entry counts as nonzero."""
        return not np.any(self.dv) and (self.dA is None or not np.any(self.dA))

    def operator_matrix(self, grid: Grid) -> sparse.csr_matrix:
        """Sparse (n, n) matrix of (L_q - L_0) acting on full-grid fields."""
        n = grid.n_nodes
        n_int = grid.n_interior
        if self.dv.shape != (n_int,):
            raise UsageError("dv must live on the interior block")
        emb = sparse.csr_matrix(
            (np.ones(n_int), (grid.interior_idx, np.arange(n_int))), shape=(n, n_int)
        )
        block = sparse.diags(self.dv.astype(np.complex128), format="csr")
        if self.dA is not None:
            for i, d_i in enumerate(self.gradient_stencil):
                block = block - 2j * sparse.diags(self.dA[:, i]) @ d_i
        return (emb @ block @ emb.T).tocsr()


class GreensOperator:
    """Green's operator on a grid: dense kernel or a factored resolvent update.

    The reference operator of assemble_green gathers its dense kernel on
    first use; its receiver rows need no gather.  The factored form keeps the
    base kernel K0, the support of the perturbation, its sparse supported
    rows V of (L_q - L_0) and the pivoted LU of the m x m core
    I + V K0[:, supp] W.  Rows and Hermitian products read blocks of K0 and
    never form V K0 or the perturbed kernel.
    """

    def __init__(
        self,
        grid: Grid,
        k_ref: complex,
        _kernel: Optional[np.ndarray] = None,
        _gather: Optional[Callable[[Optional[np.ndarray]], np.ndarray]] = None,
        _base: Optional[np.ndarray] = None,
        _supp: Optional[np.ndarray] = None,
        _v: Optional[sparse.csr_matrix] = None,
        _lu=None,
    ):
        self.grid = grid
        self.k_ref = complex(k_ref)
        self._kernel = _kernel
        self._gather = _gather  # builds the dense kernel from the receiver rows, if known
        self._receiver_rows: Optional[np.ndarray] = None
        self._base = _base  # K0, shape (n, n)
        self._supp = _supp
        self._v = _v  # V, shape (m, n_int): its columns lie in the interior
        self._lu = _lu  # pivoted LU of core^T

    # -- representation ------------------------------------------------------
    def _dense(self) -> Optional[np.ndarray]:
        """The dense kernel, gathered on first use; None for the factored form."""
        if self._gather is not None:
            self._kernel = self._gather(self._receiver_rows)
            self._gather = None
        return self._kernel

    @property
    def kernel(self) -> np.ndarray:
        """Dense kernel matrix; the factored form evaluates every row."""
        dense = self._dense()
        return self.rows(np.arange(self.grid.n_nodes)) if dense is None else dense

    @property
    def receiver_rows(self) -> np.ndarray:
        """Receiver rows Tr G = K[receiver_idx, :], evaluated once per operator."""
        if self._receiver_rows is None:
            self._receiver_rows = self.rows(self.grid.receiver_idx)
        return self._receiver_rows

    # -- products ------------------------------------------------------------
    def rows(self, idx) -> np.ndarray:
        """Dense kernel rows K[idx, :] = K0[idx, :] - (c V) K0, c = U[idx] core^-1.

        Ungathered receiver rows are evaluated directly, as the gather does.
        """
        idx = np.asarray(idx)
        if self._gather is not None and np.array_equal(idx, self.grid.receiver_idx):
            return assemble_receiver_rows(self.grid, self.k_ref)
        dense = self._dense()
        if dense is not None:
            return dense[idx, :]
        base = self._base[idx, :]
        u = base[:, self._supp] * self.grid.weights[self._supp]  # (k, m)
        c = lu_solve(self._lu, u.T, check_finite=False).T  # c^T = core^-T u^T
        base -= (c @ self._v) @ self._base[_view(self.grid.interior_idx)]
        return base

    def mul_kernel_hermitian(self, m_block: np.ndarray, in_idx) -> np.ndarray:
        """Product M @ (K[interior, in_idx])^H without forming the kernel block.

        M has shape (p, len(in_idx)); the result has shape (p, n_int).  This
        is the workhorse of the ingression-propagator assembly.  The columns
        of V lie in the interior, so M (V K0[:, in])^H is read off
        term0 = M K0[interior, in]^H; only p-row factors are conjugated.
        """
        dense = self._dense()
        k0 = self._base if dense is None else dense
        k0_int = k0[_view(self.grid.interior_idx)]  # (n_int, n)
        term0 = (m_block.conj() @ k0_int[:, _view(in_idx)].T).conj()
        if dense is not None:
            return term0
        xh = self._v @ term0.conj().T  # (m, p) = V K0[:, in] M^H
        y = lu_solve(self._lu, xh, trans=1, check_finite=False)  # core^-1 xh
        y *= self.grid.weights[self._supp][:, None]
        term0 -= (k0_int[:, _view(self._supp)] @ y).conj().T
        return term0


def _view(idx):
    """A contiguous ascending index range as a slice, so indexing by it gives a
    view; the interior of the factory grids is such a range."""
    idx = np.asarray(idx)
    return slice(idx[0], idx[-1] + 1) if idx.size and np.all(np.diff(idx) == 1) else idx


def update_green(
    g0: GreensOperator,
    delta: DeltaOperator,
    cond_limit: float = 1e12,
) -> GreensOperator:
    """Perturbed Green's operator G_q = [Id + G_0 (L_q - L_0)]^{-1} G_0.

    The second-kind system is restricted to the support of the perturbation:
    with U = (K0 W)[:, supp] and V the supported rows of (L_q - L_0),

        K_q = K0 - U (I_m + V U)^{-1} V K0,

    factorized by pivoted LU of the m x m core.  A reciprocal-condition
    estimate guards against interior resonances and non-finite perturbations.

    For a vanishing perturbation the base kernel is returned unchanged
    (bit-identical copy).
    """
    grid = g0.grid
    k0 = g0.kernel
    if delta.is_zero():
        return GreensOperator(grid=grid, k_ref=g0.k_ref, _kernel=k0.copy())
    m_full = delta.operator_matrix(grid)  # sparse (n, n)
    supp = np.flatnonzero(np.diff(m_full.indptr))
    v = m_full[supp][:, grid.interior_idx]
    m = len(supp)
    core = np.empty((m, m), dtype=np.complex128)
    col_sums = np.empty(m)  # of |core|; their maximum is ||core||_1
    k0_int = k0[_view(grid.interior_idx)]
    diag = np.arange(m)
    for start in range(0, m, _GATHER_ROWS):  # scipy copies a strided dense operand
        sl = slice(start, start + _GATHER_ROWS)
        block = core[:, sl]
        block[...] = (v @ k0_int[:, _view(supp[sl])]) * grid.weights[supp[sl]]
        block[diag[sl], diag[: block.shape[1]]] += 1.0  # the I_m of the core
        col_sums[sl] = np.abs(block).sum(axis=0)
    # LAPACK factors the Fortran-ordered view core^T in place; ||core^T||_inf = ||core||_1
    anorm = col_sums.max()  # NaN if any entry is
    lu = lu_factor(core.T, overwrite_a=True, check_finite=False)
    rcond, info = zgecon(lu[0], anorm, norm="I")
    if not np.isfinite(rcond):
        raise NumericalBreakdownError("non-finite entries in the second-kind system")
    if info != 0 or rcond == 0.0 or 1.0 / rcond > cond_limit:
        raise ResonanceError(
            f"second-kind system nearly singular: condition estimate "
            f"{(1.0 / rcond if rcond else np.inf):.3e} exceeds {cond_limit:.1e}"
        )
    return GreensOperator(grid=grid, k_ref=g0.k_ref, _base=k0, _supp=supp, _v=v, _lu=lu)
