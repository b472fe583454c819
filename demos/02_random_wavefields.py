"""Randomly excited wavefields and their surface statistics.

Draws circular Gaussian surface wavefields whose law is the model covariance
of a source-strength field (the law of circular Gaussian sources with variance
matched to S, propagated to the receivers), and shows that the empirical
correlation converges to the model covariance at the Monte Carlo rate, that the pseudo-covariance vanishes, and that the damping-equipartition
source model reproduces the imaginary part of the Green's function.
"""

import numpy as np

from holoseis import greens, holography, medium, stochastic
from holoseis.stochastic import hs_norm

wavelength = 0.5
grid = greens.square_grid(0.6, wavelength, 7.5, 1.0, n_receivers=16)
freq = medium.FrequencyContext(omega=2 * np.pi / wavelength)
params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.3)
pts = grid.interior_nodes
params.S = np.where(
    (np.abs(pts[:, 0] - 0.1) < 0.15) & (np.abs(pts[:, 1] + 0.1) < 0.15), 1.0, 0.0
)
model = holography.build_model(params, freq)  # Tr G and S of one medium
cov = stochastic.forward_covariance(model)
cov.validate()
print(f"model covariance: {cov.n} x {cov.n}, trace {cov.trace():.3e}")

# --- Monte Carlo convergence at the 1/sqrt(N) rate --------------------------
norm_c = hs_norm(cov.matrix, cov.weights)
for n in (256, 1024, 4096):
    r = stochastic.sample_wavefields(model, n, seed=42)
    corr = stochastic.empirical_corr(r, grid.receiver_weights)
    err = hs_norm(corr.matrix - cov.matrix, cov.weights) / norm_c
    print(f"  N = {n:5d}: relative HS error {err:.4f}  (1/sqrt(N) = {1/np.sqrt(n):.4f})")

# --- circularity: the pseudo-covariance E[psi psi] vanishes -----------------
r = stochastic.sample_wavefields(model, 4096, seed=7)
pseudo = (r.fields.T @ r.fields) / r.n_realizations
print(f"pseudo-covariance / covariance scale: "
      f"{np.max(np.abs(pseudo)) / np.max(np.abs(cov.matrix)):.4f}")

# --- equipartition source model: C ~ Pi/(4 i omega)(G - conj G) -------------
from scipy.special import hankel1

disk = greens.disk_grid(1.0, 0.4, 7.5, receiver_radius=0.45, n_receivers=20,
                        receiver_phase=0.013)
omega = 2 * np.pi / 0.4
p2 = medium.uniform_medium(disk, c=1.0, rho=1.0, gamma=0.25 * omega)
f2 = medium.FrequencyContext(omega=omega, power=2.0)
p2.S = stochastic.source_cov_from_damping(p2, f2)
m2 = holography.build_model(p2, f2)
c2 = stochastic.forward_covariance(m2)
rec = disk.receiver_nodes
dist = np.sqrt(np.sum((rec[:, None, :] - rec[None, :, :]) ** 2, axis=-1))
np.fill_diagonal(dist, 1.0)
g_rec = 0.25j * hankel1(0, m2.hp.k_ref * dist)
np.fill_diagonal(g_rec, [greens.green_diagonal_2d(m2.hp.k_ref, np.sqrt(w / np.pi))
                         for w in disk.receiver_weights])
ref = f2.power / (4j * omega) * (g_rec - g_rec.conj())
err = hs_norm(c2.matrix - ref, disk.receiver_weights) / hs_norm(ref, disk.receiver_weights)
print(f"imaginary-part identity: relative HS error {err:.4f} "
      f"(sources fill a disk around interior receivers)")
