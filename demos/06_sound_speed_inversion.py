"""Nonlinear sound-speed inversion with the iteratively regularized loop.

A smoothed high-velocity block sits between a compact excitation region and
the receiver circle.  Twelve frequencies are inverted jointly; every Newton
step linearizes the covariance map through the resolvent update, solves the
Lavrentiev-weighted normal equation by CG, and shrinks the regularization by
the 0.9^n power law until the discrepancy principle fires.

Runtime is a few minutes (the per-frequency Green updates dominate).
"""

import numpy as np

from holoseis import greens, medium, stochastic, holography, inversion

c0 = 1.0
lam_min = 0.2
om_hi = 2 * np.pi / lam_min * c0
grid = greens.square_grid(0.5, lam_min / 1.02, 7.1, receiver_radius=1.0,
                          n_receivers=60)
pts = grid.interior_nodes
block = ((np.abs(pts[:, 0] - 0.15) <= 0.22)
         & (np.abs(pts[:, 1] + 0.1) <= 0.22)).astype(float)
block = holography.smooth_field(grid, block, lam_min / 6)
freqs = medium.frequency_band(12, 0.65 * om_hi, om_hi)
s_src = (np.exp(-np.sum((pts - [-0.25, 0.2]) ** 2, axis=1) / (2 * 0.10**2))
         + np.exp(-np.sum((pts - [0.3, -0.35]) ** 2, axis=1) / (2 * 0.10**2)))

truth = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.01 * om_hi)
truth.c = c0 * (1.0 + 0.4 * block)
truth.S = s_src.copy()
q0 = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.01 * om_hi)
q0.S = s_src.copy()

print(f"{grid.n_interior} unknowns; 12 frequencies x 200 realizations")
data = []
for i, fr in enumerate(freqs):
    m_true = holography.build_model(truth, fr, quantities=("c",))
    r = stochastic.sample_wavefields(m_true, 200, seed=500 + i)
    corr = stochastic.empirical_corr(r, grid.receiver_weights)
    data.append(inversion.FrequencyData(freq=fr, corr=corr, n_realizations=200))

m0 = holography.build_model(q0, freqs[0], quantities=("c",))
config = inversion.InversionConfig(
    grid=grid,
    q0=q0,
    quantities=("c",),
    beta=stochastic.forward_covariance(m0).trace() / grid.n_receivers,
    max_outer=45,
    max_cg=50,
    tau=1.05,
    smoothing_width=lam_min / 8,
    alpha0_scale=0.1,
)
q_fin, diag = inversion.run_irgnm(config, data, truth=truth)

err0 = np.linalg.norm(q0.c - truth.c)
err = np.linalg.norm(q_fin.c - truth.c) / err0
print(f"stopped by {diag['stopped_by']} after {len(diag['iterations'])} iterations")
print("weighted misfit / noise level per iteration:")
print("  " + " ".join(f"{e['misfit'] / e['noise_level']:.3f}"
                      for e in diag["iterations"]))
print(f"parameter error relative to the initial error: {err:.3f}")
peak = pts[int(np.argmax(q_fin.c - c0))]
print(f"strongest recovered anomaly at {np.round(peak, 3)} "
      f"(true block center (0.15, -0.1))")
