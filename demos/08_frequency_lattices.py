"""Each frequency on its own lattice: how far its covariance moves.

The inversion models frequency omega on greens.frequency_lattice: a square
lattice of the same block and receiver ring with side ceil(n_x omega /
omega_max), the parameter lattice's nodes per wavelength at its own
wavelength; the top frequency runs on the parameter lattice itself.  The medium reaches a lattice through the
transfer map L: q_ref + P (q - q_ref), P bilinear.

On the sound-speed setup of acceptance criterion 10 (12 frequencies, 200
realizations each) this script prints, for each frequency, its lattice side
and the distance of its covariance C from the shared lattice's C at the
truth, in the Lavrentiev-weighted norm that the discrepancy rule reads and
in units of the noise level delta of that rule.

Runtime is a few seconds (24 builds with the sound speed perturbed).
"""

import math

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
truth = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.01 * om_hi)
truth.c = c0 * (1.0 + 0.4 * block)
truth.S = (np.exp(-np.sum((pts - [-0.25, 0.2]) ** 2, axis=1) / (2 * 0.10**2))
           + np.exp(-np.sum((pts - [0.3, -0.35]) ** 2, axis=1) / (2 * 0.10**2)))
n_realizations = 200

# criterion 10's Lavrentiev level: tr(C)/n_rec at the lowest frequency of q0
q0 = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.01 * om_hi)
q0.S = truth.S.copy()
m0 = holography.build_model(q0, freqs[0], quantities=("c",))
beta = stochastic.forward_covariance(m0).trace() / grid.n_receivers

rows = []
noise_sq = 0.0
for fr in freqs:
    shared = stochastic.forward_covariance(holography.build_model(truth, fr, ("c",)))
    lattice = greens.frequency_lattice(grid, fr.omega / om_hi)
    if lattice is grid:
        cov = shared
    else:
        mapped = medium.LatticeTransfer(grid, lattice).medium(truth)
        cov = stochastic.forward_covariance(holography.build_model(mapped, fr, ("c",)))
    weight = inversion.lavrentiev_weight(cov, beta)
    resid = shared.matrix - cov.matrix
    dist_sq = stochastic.hs_inner(holography.weighted_residual(weight, resid), resid,
                                  cov.weights).real
    noise_sq += holography.weight_trace_product(weight, cov) ** 2 / n_realizations
    rows.append((fr.omega / om_hi, lattice.interior_shape[0], dist_sq))

delta = math.sqrt(noise_sq)
print(f"parameter lattice {grid.interior_shape[0]} x {grid.interior_shape[1]}; "
      f"noise level delta = {delta:.3f}")
print("omega/omega_max  side  |C_f - C| / delta")
for ratio, side, dist_sq in rows:
    print(f"{ratio:15.3f}  {side:4d}  {math.sqrt(dist_sq) / delta:.4f}")
total = math.sqrt(sum(d for *_, d in rows))
print(f"over the band: {total / delta:.4f} delta "
      "(the discrepancy rule stops at 1.05 delta)")
