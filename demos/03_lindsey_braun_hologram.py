"""Classical Lindsey-Braun holography: sharp feature maps, wrong amplitudes.

Back-propagates random surface wavefields with the classical choice
H_alpha = H_beta = Tr G and correlates pointwise.  At zero damping the
hologram intensity peaks at the hidden source block; with increasing damping
the map degrades and the peak amplitude drifts by orders of magnitude, which
is the gap the iterative method closes.
"""

import numpy as np

from holoseis import greens, medium, stochastic, holography

SOLAR_C = 350.0 / 696000.0  # 350 km/s in solar radii per second
OMEGA = 2 * np.pi * 3e-3  # 3 mHz, the solar five-minute band
wavelength = SOLAR_C / 3e-3
print(f"wavelength {wavelength:.4f} solar radii")

grid = greens.square_grid(0.6, wavelength, 7.5, receiver_radius=1.0, n_receivers=60)
pts = grid.interior_nodes
block = (np.abs(pts[:, 0] - 0.35) <= 0.10) & (np.abs(pts[:, 1] - 0.35) <= 0.10)
s_true = np.where(block, 1.0, 0.0)
freq = medium.FrequencyContext(omega=OMEGA)

print(f"{grid.n_interior} interior nodes; source block centered at (0.35, 0.35)")
print(f"{'gamma/omega':>12} {'peak position':>24} {'dist to block':>14} "
      f"{'amp ratio':>12}")
for gamma_rel in (0.0, 0.1, 0.5):
    params = medium.uniform_medium(
        grid, c=SOLAR_C, rho=1.0, gamma=0.5 * gamma_rel * OMEGA
    )
    params.S = s_true.copy()
    model = holography.build_model(params, freq)
    r = stochastic.sample_wavefields(model, 400, seed=21)
    pair = holography.lindsey_braun_pair(model)
    holo = holography.backprop_realizations(pair, r, grid.receiver_weights)
    vals = np.abs(holo)
    peak = pts[int(np.argmax(vals))]
    dist = np.min(np.linalg.norm(pts[block] - peak[None, :], axis=1))
    print(f"{gamma_rel:>12.2f} {str(np.round(peak, 3)):>24} {dist:>14.3f} "
          f"{vals.max() / s_true.max():>12.3e}")
print(f"(half wavelength = {wavelength / 2:.3f}; the amplitude column is the "
      "non-quantitative part)")
