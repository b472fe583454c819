"""Green's operators for a uniform medium and the resolvent update.

Assembles the dense outgoing 2D Green's kernel on a square source block with
a receiver circle, checks its entries against the closed form (i/4) H1_0(k r),
and moves the operator to a perturbed medium with the second-kind resolvent
identity restricted to the perturbation's support.
"""

import numpy as np

from holoseis import greens

# --- grid: square interior block, receivers on the unit circle -------------
wavelength = 0.5
grid = greens.square_grid(
    half_width=0.6,
    wavelength=wavelength,
    points_per_wavelength=7.5,
    receiver_radius=1.0,
    n_receivers=24,
)
print(f"grid: {grid.n_interior} interior nodes, {grid.n_receivers} receivers, "
      f"spacing {grid.spacing:.4f}")

# damped wavenumber: Im k > 0 makes the field outgoing and decaying
k = 2 * np.pi / wavelength * np.sqrt(1 + 0.1j)
print(f"wavenumber k = {k:.4f}")

op = greens.assemble_green(grid, k)
# the operator keeps no dense kernel: each read of op.kernel gathers it afresh
k0 = op.kernel
print(f"kernel assembled: {k0.shape}, "
      f"reciprocity deviation {np.max(np.abs(k0 - k0.T)):.2e}")

# --- the lattice-offset assembly reproduces the closed form -----------------
# interior entries come from a table of distinct lattice offsets, receiver
# rows from direct evaluation; both match (i/4) H1_0(k |x - y|) node by node
rec = grid.receiver_idx[5]
for i, j in ((0, 7), (3, grid.n_interior - 1), (rec, 12)):
    exact = greens.green_uniform(k, grid.nodes[i], grid.nodes[j])
    print(f"  K[{i:4d}, {j:4d}]: |assembled - closed form| = {abs(k0[i, j] - exact):.3e}")

# --- resolvent update for a compact potential perturbation ------------------
pts = grid.interior_nodes
dv = np.zeros(grid.n_interior, dtype=complex)
dv[(np.abs(pts[:, 0] - 0.1) < 0.2) & (np.abs(pts[:, 1] + 0.1) < 0.2)] = 3.0 + 1.0j
no_flow = np.zeros((grid.n_interior, grid.dim))
delta = greens.DeltaOperator(dv=dv, dA=no_flow)
perturbed = greens.update_green(op, delta)

# the update kept the factored form; materialize and compare with a
# direct dense solve of the same second-kind system
m = delta.operator_matrix(grid).toarray()
lhs = np.eye(grid.n_nodes) + (k0 * grid.weights[None, :]) @ m
direct = np.linalg.solve(lhs, k0)
rel = np.max(np.abs(perturbed.kernel - direct)) / np.max(np.abs(direct))
print(f"resolvent update vs direct dense solve: relative deviation {rel:.2e}")

# first-order (Born) accuracy: remainder shrinks quadratically
for scale in (0.04, 0.02, 0.01):
    d = greens.DeltaOperator(dv=scale * dv, dA=no_flow)
    gq = greens.update_green(op, d)
    born = k0 - (k0 * grid.weights[None, :]) @ d.operator_matrix(grid).toarray() @ k0
    print(f"  perturbation x{scale}: Born remainder {np.max(np.abs(gq.kernel - born)):.3e}")
