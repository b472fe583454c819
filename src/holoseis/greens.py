"""Dense 2D Green's operators for uniform reference media and their resolvent updates.

Every grid is planar: the uniform-medium kernel is the outgoing (i/4) H1_0(k r)
of -(Laplace + k^2), H1_0 from :func:`holoseis.specfun.hankel_h1_array` and its
guards, and a grid whose nodes are not 2D points is rejected.

The discrete convention throughout the package: a kernel matrix ``K`` of shape
(n, n) represents the integral operator

    (G s)(x_i) = sum_j K[i, j] s[j] w[j]

with quadrature weights ``w`` attached to the grid nodes, i.e. kernels are
stored *without* weights and every application inserts them explicitly.

The interior nodes lie on a lattice of step ``grid.spacing``, so the uniform
reference kernel is evaluated once per distinct lattice offset and gathered
into the interior block whenever a block of it is needed.  Receiver rows, all
that sampling and the Lindsey-Braun propagators read, need no gather: their
interior columns are evaluated for one receiver per orbit of the grid's
symmetry group (the square's quarter turns and mirrors that the grid
admits), the rest by permutation, and the receiver block once per distinct
receiver pair, on a ring once per chord.  A reference operator keeps its
receiver rows, never the dense kernel, and nothing is kept on disk.

A perturbed medium enters through the second-kind identity

    G_q = [Id + G_0 (L_q - L_0)]^{-1} G_0,
    (L_q - L_0) psi = dv * psi - 2i dA . grad(psi),

solved by a pivoted LU factorization restricted to the support of the
perturbation.  Every operator has the one form K = K0 - U core^{-1} V K0:
the reference kernel K0 plus, for a perturbed medium, the resolvent update
(the support, the supported rows V of L_q - L_0 and the LU of the
support-sized core = I + V U[interior], U = (K0 W)[:, supp]).  The update
gathers K0 once and holds it with the LU, so both are freed together.  Two
identities let the LU stand in for dense products of K0:

- push-through: c = U[idx] core^{-1} satisfies c core = U[idx], so any
  rows have supported columns K[idx, supp] = c W_s^{-1}, and only the
  columns off the support need the product (c V) K0;
- Woodbury with reciprocity: without flow, V = diag(dv) on the support and
  K0's interior block is symmetric, so the supported rows of
  K[interior, :] = (I + K0[interior, supp] W_s V)^{-1} K0[interior, :] are
  W_s^{-1} core^{-T} W_s K0[supp, :], a plain solve with the same LU, and
  the core itself is one elementwise pass over K0.

A flow (dA != 0) is neither diagonal nor reciprocal, so it keeps the general
products for the core and the ingression.  The full perturbed kernel is
evaluated only when requested.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

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
from .specfun import hankel_h1_array

EULER_GAMMA: float = 0.5772156649015328606
DEFAULT_BUDGET_BYTES: int = 4 * 1024**3
_GATHER_ROWS: int = 64  # rows per lattice-table gather; core columns per sparse product

__all__ = [
    "Grid",
    "GreensOperator",
    "DeltaOperator",
    "square_grid",
    "square_grid_side",
    "frequency_lattice",
    "lattice_interpolation",
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
    _lattice: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _symmetry: Optional["_Symmetry"] = field(default=None, repr=False, compare=False)

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
    nx = int(square_grid_side(half_width, wavelength, points_per_wavelength))
    rec, w_rec = _circle_receivers(receiver_radius, n_receivers, receiver_phase)
    return _square_block(half_width, nx, rec, w_rec, wavelength / (2.0 * half_width / nx))


def _square_block(
    half_width: float, nx: int, rec: np.ndarray, w_rec: np.ndarray, resolution: float
) -> Grid:
    """The validated grid of the block [-a, a]^2 at nx cells a side and a receiver set."""
    h = 2.0 * half_width / nx
    centers = -half_width + (np.arange(nx) + 0.5) * h  # (nx,)
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    interior = np.column_stack([xx.ravel(), yy.ravel()])  # (nx*nx, 2), row-major
    w_int = np.full(len(interior), h * h)
    nodes = np.vstack([interior, rec])
    weights = np.concatenate([w_int, w_rec])
    grid = Grid(
        nodes=nodes,
        weights=weights,
        receiver_idx=np.arange(len(interior), len(nodes)),
        interior_idx=np.arange(len(interior)),
        wavelength_resolution=resolution,
        interior_shape=(nx, nx),
        spacing=h,
        domain_measure=(2.0 * half_width) ** 2,
    )
    grid.validate()
    return grid


def frequency_lattice(grid: Grid, ratio: float) -> Grid:
    """The lattice of the frequency ratio * omega_max, for grid a square_grid
    built for omega_max: the same block and receiver ring at side
    ceil(n_x ratio), at least 3, so the lattice keeps grid's nodes per
    wavelength at its own wavelength.

    The receiver nodes and weights are copied, so the receiver quadrature is
    the same to the bit.  A side of n_x, and ratio 1 on any grid, gives grid
    itself.
    """
    if ratio == 1:
        return grid
    nx = _square_side(grid)
    side = max(3, math.ceil(nx * ratio))
    if side == nx:
        return grid
    rec_idx = grid.receiver_idx
    return _square_block(
        0.5 * nx * grid.spacing,
        side,
        grid.nodes[rec_idx],
        grid.weights[rec_idx],
        grid.wavelength_resolution * side / (nx * ratio),
    )


def lattice_interpolation(src: Grid, dst: Grid) -> sparse.csr_matrix:
    """Bilinear interpolation (n_int of dst, n_int of src) between two
    square_grid lattices of one block, dst no finer than src.

    Every dst node lies within the hull of src's nodes, so each row holds at
    most four weights, all in [0, 1], and sums to 1.  Each axis is the same
    1-D map, mirror-symmetric about the block's centre.
    """
    nx, nf = _square_side(src), _square_side(dst)
    if nf > nx:
        raise UsageError(f"cannot interpolate a {nx}-lattice onto a finer {nf}-lattice")
    s = (np.arange(nf) + 0.5) * (nx / nf) - 0.5  # dst centres in src cell units
    lo = np.clip(np.floor(s).astype(int), 0, nx - 2)
    frac = s - lo
    rows = np.repeat(np.arange(nf), 2)
    cols = np.column_stack([lo, lo + 1]).ravel()
    vals = np.column_stack([1.0 - frac, frac]).ravel()
    axis = sparse.csr_matrix((vals, (rows, cols)), shape=(nf, nx))
    return sparse.kron(axis, axis, format="csr")  # row-major: node = ix * n + iy


def _weighted_transpose(
    j: sparse.csr_matrix, w_in: np.ndarray, w_out: Optional[np.ndarray] = None
) -> sparse.csr_matrix:
    """W_in^{-1} J^T W_out, the transpose of J (in to out) in the quadratures
    of its two sides; w_out defaults to w_in.

    Each side weighs a node by its weight, repeated per component of a
    stacked flow.  Every entry is scaled by w_out/w_in, so a diagonal entry of
    a map within one quadrature keeps its exact value.
    """
    w_out = w_in if w_out is None else w_out
    jt = j.T.tocsr()
    w_out = np.tile(w_out, j.shape[0] // len(w_out))
    w_in = np.tile(w_in, j.shape[1] // len(w_in))
    rows = np.repeat(np.arange(jt.shape[0]), np.diff(jt.indptr))
    jt.data = jt.data * (w_out[jt.indices] / w_in[rows])
    return jt


def _square_side(grid: Grid) -> int:
    """Interior nodes per side of a square_grid's lattice."""
    shape = grid.interior_shape
    if shape is None or len(shape) != 2 or shape[0] != shape[1] or grid.spacing is None:
        raise UsageError("grid has no square interior lattice")
    return int(shape[0])


def square_grid_side(
    half_width: float, wavelength: float, points_per_wavelength: float = 7.5
) -> float:
    """Interior nodes per side of square_grid's lattice, as a float: a tiny
    wavelength gives inf rather than an overflow, so a size can be checked
    before anything is built."""
    with np.errstate(divide="ignore", over="ignore"):
        h_target = np.float64(wavelength) / points_per_wavelength
        return max(float(np.ceil(2.0 * half_width / h_target)), 3.0)


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
    return complex(0.25j * hankel_h1_array(complex(k) * r))


def green_diagonal_2d(k: complex, cell_radius: float) -> complex:
    """Cell-averaged 2D self-interaction over a disk of given radius.

    The average of ln(1/r) over the disk is ln(1/a) + 1/2; see _self_term.
    """
    if cell_radius <= 0:
        raise UsageError("cell_radius must be positive")
    return complex(_self_term(k, np.log(1.0 / cell_radius) + 0.5))


def _self_term(k: complex, log_avg):
    """Regularized self-interaction of a node, given the average log_avg of
    ln(1/r) over the cell or segment the node stands for.

    The leading log term of (i/4) H1_0(k r) averages to (1/2pi) log_avg; the
    rest are the constant terms i/4 - (1/2pi)(ln(k/2) + EULER_GAMMA) of the
    small-argument expansion (principal branch for complex k).
    """
    return (log_avg - np.log(complex(k) / 2.0) - EULER_GAMMA) / (2.0 * np.pi) + 0.25j


# ---------------------------------------------------------------------------
# Dense assembly
# ---------------------------------------------------------------------------
def _radial_kernel(k: complex, r: np.ndarray) -> np.ndarray:
    """Uniform-medium kernel (i/4) H1_0(k r) at distances r > 0."""
    return 0.25j * hankel_h1_array(complex(k) * r)


def _require_2d(grid: Grid) -> None:
    if grid.nodes.ndim != 2 or grid.nodes.shape[1] != 2:
        raise UsageError(f"grid nodes must be 2D points, got shape {grid.nodes.shape}")


def _lattice_indices(grid: Grid) -> np.ndarray:
    """Integer lattice index (n_int, d) of each interior node, from
    grid.spacing; checked once and cached on the grid, read-only."""
    if grid._lattice is None:
        object.__setattr__(grid, "_lattice", _find_lattice(grid))
    return grid._lattice


def _find_lattice(grid: Grid) -> np.ndarray:
    if grid.spacing is None:
        raise UsageError("grid has no lattice spacing")
    pts = grid.interior_nodes
    scaled = (pts - pts.min(axis=0)) / grid.spacing
    lattice = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - lattice)) > 1e-9:
        raise UsageError("interior nodes do not lie on a lattice of step grid.spacing")
    flat = np.ravel_multi_index(tuple(lattice.T), lattice.max(axis=0) + 1)
    if len(np.unique(flat)) < len(lattice):
        raise UsageError("two interior nodes share a lattice point")
    lattice.flags.writeable = False
    return lattice


class _Map(NamedTuple):
    """One of the square's eight maps x -> A x, as the grid admits it."""

    matrix: np.ndarray  # (2, 2) A: a quarter turn, with or without the mirror
    interior: np.ndarray  # interior position j goes to interior position interior[j]
    receivers: np.ndarray  # receiver i goes to receiver receivers[i]


@dataclass(frozen=True)
class _Symmetry:
    """The grid's symmetry group and the shape of its receiver set."""

    maps: Tuple[_Map, ...]  # the subgroup of the square's eight maps, identity first
    ring: bool  # receiver i + 1 is receiver i turned by 2 pi / n_rec about their centroid


_TURN = np.array([[0, -1], [1, 0]])  # (x, y) -> (-y, x)
_MIRROR = np.array([[1, 0], [0, -1]])  # (x, y) -> (x, -y)
_SQUARE_MAPS = tuple(
    np.linalg.matrix_power(_TURN, s) @ np.linalg.matrix_power(_MIRROR, m)
    for m in (0, 1)
    for s in range(4)
)


def _symmetry(grid: Grid) -> _Symmetry:
    """The grid's symmetry group: the square's eight maps (the four quarter
    turns, each with and without the mirror) that carry every interior node
    to an interior node and every receiver to a receiver, identity first.

    A map is accepted only when the mapped node coordinates equal the
    permuted ones to a few ulps; a grid without the symmetry (no lattice, an
    off-centre ring, a ring whose count or phase the map does not fit) has
    the identity alone.  Cached on the grid with its ring test.
    """
    if grid._symmetry is None:
        object.__setattr__(grid, "_symmetry", _find_symmetry(grid))
    return grid._symmetry


def _find_symmetry(grid: Grid) -> _Symmetry:
    rec = grid.receiver_nodes
    # the ring's angles 2 pi i / n_rec round to about 4 ulps of the radius
    tol = 16 * np.finfo(float).eps * np.max(np.abs(grid.nodes))
    maps = [_Map(_SQUARE_MAPS[0], np.arange(grid.n_interior), np.arange(grid.n_receivers))]
    try:
        lattice = _lattice_indices(grid)
    except UsageError:
        lattice = None
    if lattice is not None and grid.n_receivers:
        position = np.full((lattice.max() + 1,) * 2, -1)
        position[tuple(lattice.T)] = np.arange(len(lattice))
        src = np.concatenate([grid.interior_idx, grid.receiver_idx])
        points = grid.nodes[src]
        for a in _SQUARE_MAPS[1:]:
            image = lattice @ a.T
            perm = position[tuple((image - image.min(axis=0)).T)]
            # the nearest receiver to each mapped one: |y|^2 - 2 x.y is
            # |x - y|^2 up to a constant per row
            sigma = np.argmin(np.sum(rec**2, axis=1) - 2.0 * (rec @ a.T) @ rec.T, axis=1)
            if np.any(perm < 0) or len(np.unique(sigma)) < len(sigma):
                continue
            dst = np.concatenate([grid.interior_idx[perm], grid.receiver_idx[sigma]])
            if np.max(np.abs(points @ a.T - grid.nodes[dst])) <= tol:  # exact: swaps and signs
                maps.append(_Map(a, perm, sigma))
    ring = False
    if len(rec):
        centre = rec.mean(axis=0)
        angle = 2.0 * np.pi / len(rec)
        turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        turned = (rec - centre) @ turn.T + centre
        ring = bool(np.max(np.abs(turned - np.roll(rec, -1, axis=0))) <= tol)
    return _Symmetry(tuple(maps), ring)


def assemble_green(
    grid: Grid,
    k: complex,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> "GreensOperator":
    """Assemble the dense uniform-medium Green's kernel on all grid nodes.

    The grid, the budget and the lattice are checked at once; the operator
    keeps the gather, not the kernel, and each read of a kernel block
    (``kernel``, ``mul_kernel_hermitian``, ``update_green``) gathers it
    afresh.  Receiver rows need no gather.  Off-diagonal entries are
    closed-form point evaluations.  Between interior nodes the kernel depends
    only on the lattice offsets |a_i|, so it is evaluated once, on the first
    gather, on the table of distances h sqrt(sum a_i^2), reflected to the
    signed offsets.  Node j seen from node i sits at c + lattice[j] -
    lattice[i] of that table, and the interior block is gathered row block
    by row block with a 1-D take on the flat table positions, so no
    n_int x n_int index array is formed.  Receiver rows come from
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
    shape = lattice.max(axis=0) + 1

    @functools.cache
    def offset_table() -> np.ndarray:
        """The kernel at every lattice offset d, |d_i| < shape_i, stored at
        c + d with c = shape - 1; evaluated on the first gather and kept, as
        prod(2 shape - 1) entries, a few times n_int."""
        offsets = np.indices(shape, dtype=float)
        r_table = grid.spacing * np.sqrt(np.sum(offsets**2, axis=0))
        r_table.flat[0] = grid.spacing  # placeholder; the diagonal is overwritten below
        table = _radial_kernel(k, r_table)
        return table[np.ix_(*(np.abs(np.arange(1 - size, size)) for size in shape))]

    def gather(rows: np.ndarray) -> np.ndarray:
        table = offset_table()
        kernel = np.empty((n, n), dtype=np.complex128)
        int_idx = grid.interior_idx
        # node j seen from node i sits at c + lattice[j] - lattice[i] of the
        # table: flat table positions, a 1-D take per row block
        strides = np.array(table.strides) // table.itemsize
        to_node = lattice @ strides
        from_node = (shape - 1) @ strides - to_node
        flat_table = table.ravel()
        for start in range(0, len(int_idx), _GATHER_ROWS):
            part = slice(start, start + _GATHER_ROWS)
            kernel[_block(int_idx[part], int_idx)] = flat_table.take(
                np.add.outer(from_node[part], to_node)
            )
        rec = _view(grid.receiver_idx)
        kernel[rec, :] = rows
        kernel[:, rec] = rows.T
        cell_radius = np.sqrt(grid.interior_weights / np.pi)
        kernel[int_idx, int_idx] = _self_term(k, np.log(1.0 / cell_radius) + 0.5)
        return kernel

    return GreensOperator(grid=grid, k_ref=k, _base=gather)


def assemble_receiver_rows(grid: Grid, k: complex) -> np.ndarray:
    """Receiver-row block G(x_r, y_j) for all grid nodes, without the full matrix.

    The interior columns are evaluated for one receiver per orbit of the
    grid's symmetry group, its least, and mapped into the rest of the orbit,
    rows[sigma_g(i), P_g(j)] = rows[i, j]; a grid without symmetry has the
    identity group, so every receiver is its own representative.  The
    receiver block is evaluated once per distinct receiver pair, on a ring
    at the floor(n_rec/2) chords |x_0 - x_m|, and gathered, so it is exactly
    symmetric, as the gather's rows and rows.T require; its diagonal is the
    line average.
    """
    _require_2d(grid)
    sym = _symmetry(grid)
    n_rec = grid.n_receivers
    rec = grid.receiver_nodes
    rows = np.empty((n_rec, grid.n_nodes), dtype=np.complex128)
    sigma = np.array([m.receivers for m in sym.maps])  # (n_maps, n_rec)
    least = sigma.min(axis=0)  # each receiver's representative
    reps, owner = np.unique(least, return_inverse=True)
    via = np.argmax(sigma[:, least] == np.arange(n_rec), axis=0)  # a map from it
    rep = _radial_kernel(k, _distances(rec[reps], grid.interior_nodes))
    for g, m in enumerate(sym.maps):
        targets = np.flatnonzero(via == g)
        rows[np.ix_(targets, grid.interior_idx[m.interior])] = rep[owner[targets]]
    first, second, pair = _receiver_pairs(n_rec, sym.ring)
    table = np.empty(len(first) + 1, dtype=np.complex128)
    table[0] = 0.0  # the diagonal, overwritten below
    table[1:] = _radial_kernel(k, np.linalg.norm(rec[first] - rec[second], axis=1))
    block = table[pair]
    # the average of ln(1/|s|) over a segment of length L is ln(2/L) + 1
    np.fill_diagonal(block, _self_term(k, np.log(2.0 / grid.receiver_weights) + 1.0))
    rows[:, grid.receiver_idx] = block
    return rows


def _receiver_pairs(n: int, ring: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct receiver pairs (first[p], second[p]) of an n-receiver
    block, and (n, n) indices into [diagonal, pair 0, pair 1, ...] that
    gather the block from them.  A ring's pairs are the chords (0, m),
    m <= n/2, and entry (i, j) is chord min(|i - j|, n - |i - j|); any other
    receiver set has every pair i < j."""
    if ring:
        second = np.arange(1, n // 2 + 1)
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        return np.zeros_like(second), second, np.minimum(gap, n - gap)
    first, second = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.int64)
    pair[first, second] = pair[second, first] = np.arange(1, len(first) + 1)
    return first, second, pair


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise distances |x_i - y_j|, exactly symmetric under swapping x and y."""
    return np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1))


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
    dA : np.ndarray, real, shape (n_int, d)
        Zero for a zeroth-order perturbation; only a nonzero dA reads the
        grid's finite-difference gradients, which unstructured grids lack.
    """

    dv: np.ndarray
    dA: np.ndarray

    def is_zero(self) -> bool:
        """True when dv and dA vanish; a NaN entry counts as nonzero."""
        return not np.any(self.dv) and not np.any(self.dA)

    def operator_matrix(self, grid: Grid) -> sparse.csr_matrix:
        """Sparse (n, n) matrix of (L_q - L_0) acting on full-grid fields."""
        n, n_int = grid.n_nodes, grid.n_interior
        emb = sparse.csr_matrix(
            (np.ones(n_int), (grid.interior_idx, np.arange(n_int))), shape=(n, n_int)
        )
        return (emb @ self._interior_matrix(grid) @ emb.T).tocsr()

    def _interior_matrix(self, grid: Grid) -> sparse.csr_matrix:
        """Sparse (n_int, n_int) block of (L_q - L_0) on the interior nodes."""
        if self.dv.shape != (grid.n_interior,):
            raise UsageError("dv must live on the interior block")
        block = sparse.diags(self.dv.astype(np.complex128), format="csr")
        if np.any(self.dA):
            for i, d_i in enumerate(grid.gradient_matrices()):
                block = block - 2j * sparse.diags(self.dA[:, i]) @ d_i
        return block.tocsr()


class GreensOperator:
    """Green's operator on a grid: K = K0 - U core^-1 V K0, U = (K0 W)[:, supp].

    A reference operator (_update None) holds its receiver rows and, as
    _base, the gather that builds the reference kernel K0 from them; it never
    holds K0, so every read of a kernel block gathers afresh.  An updated
    operator holds the K0 that update_green gathered and update_green's
    (supp, v, LU of core^T): supp the interior positions of the support, v
    the supported rows V of (L_q - L_0), whose columns lie in the interior
    (without flow only their diagonal dv[supp]), and
    core = I + V K0[interior, supp] W_s; the kernel and the LU are freed
    together with the operator.

    Rows take their supported columns from the LU (push-through); without
    flow, so does the Hermitian product its supported rows (Woodbury, K0's
    interior block being symmetric).  A flow keeps the general products.
    None of them forms V K0 or the perturbed kernel.
    """

    def __init__(self, grid: Grid, k_ref: complex, _base, _update=None):
        self.grid = grid
        self.k_ref = complex(k_ref)
        self._base = _base
        self._update = _update

    @property
    def base(self) -> np.ndarray:
        """The reference kernel K0: a fresh gather from the receiver rows on a
        reference operator, which keeps none, else the updated operator's own."""
        if self._update is None:
            return self._base(self.receiver_rows)
        return self._base

    @property
    def kernel(self) -> np.ndarray:
        """Dense kernel matrix: a fresh gather of K0 on a reference operator;
        an updated operator evaluates every row."""
        if self._update is None:
            return self.base
        return self.rows(np.arange(self.grid.n_nodes))

    @functools.cached_property
    def receiver_rows(self) -> np.ndarray:
        """Receiver rows Tr G = K[receiver_idx, :], evaluated once per operator."""
        return self.rows(self.grid.receiver_idx)

    # -- products ------------------------------------------------------------
    def rows(self, idx) -> np.ndarray:
        """Dense kernel rows K[idx, :] = K0[idx, :] - (c V) K0, c = U[idx] core^-1.

        Since c core = U[idx], the supported columns are K[idx, supp] =
        c W_s^-1 for any V, so (c V) K0 is formed only on the columns off the
        support: the receivers alone when the whole interior is perturbed.
        A reference operator's receiver rows are evaluated directly, as the
        gather does.
        """
        idx = np.asarray(idx)
        grid = self.grid
        if self._update is None:
            if np.array_equal(idx, grid.receiver_idx):
                return assemble_receiver_rows(grid, self.k_ref)
            return self.base[idx, :]
        supp, v, lu = self._update
        nodes = grid.interior_idx[supp]
        w = grid.weights[nodes]
        rows = self._base[idx, :]
        k0_int = self._base[_view(grid.interior_idx)]  # (n_int, n)
        u = rows[:, _view(nodes)] * w  # U[idx], (k, m)
        c = lu_solve(lu, u.T, check_finite=False).T  # c^T = core^-T U[idx]^T
        off = np.setdiff1d(np.arange(grid.n_nodes), nodes)
        if v.ndim == 1:  # V = diag(v) on the support
            rows[:, _view(off)] -= (c * v) @ k0_int[_block(supp, off)]
        else:
            rows[:, _view(off)] -= (c @ v) @ k0_int[:, _view(off)]
        rows[:, _view(nodes)] = c / w
        return rows

    def mul_kernel_hermitian(self, m_block: np.ndarray, in_idx) -> np.ndarray:
        """Product M @ (K[interior, in_idx])^H without forming the kernel block.

        M has shape (p, len(in_idx)); the result has shape (p, n_int).  This
        is the workhorse of the ingression-propagator assembly.  With
        term0 = M K0[interior, in]^H = T^H: without flow the supported rows
        of K[interior, in] M^H are W_s^-1 core^-T W_s T_s, a plain solve with
        the LU, and the others T_o - K0[o, supp] W_s diag(v) times those; a
        flow subtracts (U[interior] core^-1 V T)^H.  Only p-row factors are
        conjugated.
        """
        grid = self.grid
        k0_int = self.base[_view(grid.interior_idx)]  # (n_int, n)
        term0 = (m_block.conj() @ k0_int[:, _view(in_idx)].T).conj()
        if self._update is None:
            return term0
        supp, v, lu = self._update
        nodes = grid.interior_idx[supp]
        w = grid.weights[nodes][:, None]
        if v.ndim == 1:
            x = lu_solve(lu, term0[:, _view(supp)].T.conj() * w, check_finite=False)
            x /= w  # (m, p), the supported rows of K[interior, in] M^H
            off = np.setdiff1d(np.arange(grid.n_interior), supp)
            if off.size:
                term0[:, off] -= (k0_int[_block(off, nodes)] @ (x * (w * v[:, None]))).conj().T
            term0[:, _view(supp)] = x.conj().T
            return term0
        xh = v @ term0.conj().T  # (m, p) = V K0[:, in] M^H
        y = lu_solve(lu, xh, trans=1, check_finite=False)  # core^-1 xh
        y *= w
        term0 -= (k0_int[:, _view(nodes)] @ y).conj().T
        return term0


def _view(idx):
    """A contiguous ascending index range as a slice, so indexing by it gives a
    view; the interior of the factory grids is such a range."""
    idx = np.asarray(idx)
    return slice(idx[0], idx[-1] + 1) if idx.size and np.all(np.diff(idx) == 1) else idx


def _block(rows, cols):
    """Index key of the block a[rows][:, cols]: a view where both are
    contiguous ranges, an open mesh where neither is."""
    keys = _view(rows), _view(cols)
    return keys if any(isinstance(key, slice) for key in keys) else np.ix_(*keys)


def update_green(
    g0: GreensOperator,
    delta: DeltaOperator,
    cond_limit: float = 1e12,
) -> GreensOperator:
    """Perturbed Green's operator G_q = [Id + G_0 (L_q - L_0)]^{-1} G_0.

    The second-kind system is restricted to the support of the perturbation:
    with U = (K0 W)[:, supp] and V the supported rows of (L_q - L_0),

        K_q = K0 - U (I_m + V U)^{-1} V K0,

    factorized by pivoted LU of the m x m core.  Without flow (dA = 0),
    V = diag(dv) on the support, so the core I + dv K0[supp, supp] W_s is
    one elementwise pass over row blocks of K0 and no sparse operator is
    built; a flow forms V K0 by sparse products, column block by column
    block.  Either way the column sums for the norm are taken block by
    block, so no m x m temporary appears.  A reciprocal-condition estimate
    guards against interior resonances and non-finite perturbations.

    K0 is gathered here once and held only by the returned operator, so it
    is freed together with the LU.  A vanishing perturbation returns g0
    itself, which gathers nothing.
    """
    if delta.is_zero():
        return g0
    grid = g0.grid
    if delta.dv.shape != (grid.n_interior,):
        raise UsageError("dv must live on the interior block")
    k0 = g0.kernel
    if np.any(delta.dA):
        v_int = delta._interior_matrix(grid)  # sparse (n_int, n_int)
        supp = np.flatnonzero(np.diff(v_int.indptr))
        v = v_int[supp]
    else:
        supp = np.flatnonzero(delta.dv)  # a NaN counts as support
        v = delta.dv[supp].astype(np.complex128)
    nodes = grid.interior_idx[supp]
    w = grid.weights[nodes]
    m = len(supp)
    core = np.empty((m, m), dtype=np.complex128)
    col_sums = np.zeros(m)  # of |core|; their maximum is ||core||_1
    diag = np.arange(m)
    for start in range(0, m, _GATHER_ROWS):
        sl = slice(start, start + _GATHER_ROWS)
        if v.ndim == 1:  # a row block of diag(v) K0[supp, supp] W_s
            block = core[sl]
            np.multiply(k0[_block(nodes[sl], nodes)], v[sl, None], out=block)
            block *= w
            block[diag[: block.shape[0]], diag[sl]] += 1.0  # the I_m of the core
            col_sums += np.abs(block).sum(axis=0)
        else:  # a column block of V K0[interior, supp] W_s; scipy copies a strided operand
            block = core[:, sl]
            block[...] = (v @ k0[_block(grid.interior_idx, nodes[sl])]) * w[sl]
            block[diag[sl], diag[: block.shape[1]]] += 1.0
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
    return GreensOperator(grid=grid, k_ref=g0.k_ref, _base=k0, _update=(supp, v, lu))
