"""Mass-conserving flow reconstruction via a projected Gauss-Newton step.

The true flow is generated from a stream function (hence exactly
mass-conserving) and recovered in a single Gauss-Newton step whose CG runs
in the kernel of the density-weighted divergence: the normal operator, its
right-hand side and the update all pass through the divergence-free
projector, so the update is divergence-free to the stated tolerance.
"""

import numpy as np

from holoseis import greens, medium, stochastic, holography, inversion

c0 = 1.0
lam0 = 0.25
om0 = 2 * np.pi / lam0 * c0
grid = greens.square_grid(0.5, lam0 / 1.05, 7.2, receiver_radius=1.0,
                          n_receivers=40)
pts = grid.interior_nodes
freqs = medium.frequency_band(12, om0 * 0.95, om0 * 1.05)
s_src = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.12**2)) + 0.02

truth = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.02 * om0)
truth.S = s_src.copy()
psi = np.exp(-np.sum((pts - [0.15, -0.05]) ** 2, axis=1) / (2 * 0.15**2))
u_raw = medium.stream_function_flow(grid, psi, truth.rho, amplitude=1.0)
u_raw *= 0.08 * c0 / np.max(np.abs(u_raw))
truth.u = medium.project_divergence_free(grid, truth.rho, u_raw)
truth.validate()
print(f"true flow: max Mach {np.max(np.abs(truth.u)) / c0:.3f}, "
      f"div(rho u) residual "
      f"{np.linalg.norm(medium.flow_divergence_matrix(grid, truth.rho) @ truth.u.ravel(order='F')):.2e}")

q0 = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.02 * om0)
q0.S = s_src.copy()
data = []
for i, fr in enumerate(freqs):
    m_true = holography.build_model(truth, fr, quantities=("u",))
    r = stochastic.sample_wavefields(m_true, 1000, seed=800 + i)
    corr = stochastic.empirical_corr(r, grid.receiver_weights)
    data.append(inversion.FrequencyData(freq=fr, corr=corr, n_realizations=1000))
print(f"{len(freqs)} frequencies x 1000 realizations synthesized")

m0 = holography.build_model(q0, freqs[0], quantities=("u",))
config = inversion.InversionConfig(
    grid=grid,
    q0=q0,
    quantities=("u",),
    beta=stochastic.forward_covariance(m0).trace() / grid.n_receivers,
    alpha0_scale=0.1,
    max_outer=1,  # small flows: a single projected step, as in practice
    tau=0.0,
)
q_fin, diag = inversion.run_irgnm(config, data, truth=truth)
du = q_fin.u
info = diag["iterations"][0]

cos = np.sum(du * truth.u) / (np.linalg.norm(du) * np.linalg.norm(truth.u))
print(f"one projected Newton step: cosine similarity with truth {cos:.3f}")
print(f"divergence residual {info['divergence_residual']:.2e} "
      f"(tolerance 1e-8 |du| = {1e-8 * info['update_norm']:.2e})")
print(f"projected CG: {info['cg_iterations']} iterations, "
      f"converged: {info['cg_converged']}")
