"""Sensitivity kernels of the Gauss-Newton normal operator.

Assembles band-averaged source and sound-speed kernels at four target depths
in a uniform medium and measures their full width at half maximum against the
classical resolution limit of half a wavelength.  Also shows the joint
sound-speed/damping kernel block whose off-diagonal (cross) kernel is an
order of magnitude weaker, which is what lets the method separate the two.
"""

import numpy as np

from holoseis import greens, medium, holography

SOLAR_C = 350.0 / 696000.0
lam_mid = SOLAR_C / 3.0e-3
grid = greens.square_grid(0.5, SOLAR_C / 3.25e-3, 7.2, receiver_radius=1.0,
                          n_receivers=40)
freqs = medium.frequency_band(12, 2 * np.pi * 2.75e-3, 2 * np.pi * 3.25e-3)
params = medium.uniform_medium(grid, c=SOLAR_C, rho=1.0,
                               gamma=0.05 * 2 * np.pi * 3e-3)
params.S = np.full(grid.n_interior, 1.0)
pts = grid.interior_nodes
targets_xy = [(0.0, 0.0), (0.15, 0.0), (0.3, 0.0), (0.45, 0.0)]
targets = [int(np.argmin(np.sum((pts - np.asarray(t)) ** 2, axis=1)))
           for t in targets_xy]
print(f"{grid.n_interior} interior nodes, band 2.75-3.25 mHz "
      f"({len(freqs)} frequencies), lambda_mid = {lam_mid:.4f}")


def fwhm(row, t_idx):
    # full width at half maximum along both grid axes, with the half-max
    # crossing interpolated linearly between nodes
    nx, ny = grid.interior_shape
    ix, iy = divmod(int(t_idx), ny)
    shaped = np.abs(row).reshape(nx, ny)
    widths = []
    for line, ic in ((shaped[:, iy], ix), (shaped[ix, :], iy)):
        half = line[ic] / 2
        li = ic
        while li > 0 and line[li - 1] > half:
            li -= 1
        ri = ic
        while ri < len(line) - 1 and line[ri + 1] > half:
            ri += 1
        lf = (line[li] - half) / (line[li] - line[li - 1]) if li > 0 else 0.0
        rf = (line[ri] - half) / (line[ri] - line[ri + 1]) if ri < len(line) - 1 else 0.0
        widths.append((ri - li + lf + rf) * grid.spacing)
    return np.mean(widths)


acc = {("S", "S"): 0.0, ("c", "c"): 0.0}
weight = holography.NoiseWeight.identity(grid.receiver_weights)  # unweighted kernels
for fr in freqs:
    model = holography.build_model(params, fr, quantities=("S", "c"))
    for pair in acc:
        kern = holography.sensitivity_kernel(model, pair, weight, targets=targets)
        acc[pair] = acc[pair] + kern

for pair, total in acc.items():
    total = total / len(freqs)
    ws = [fwhm(total[row], t) / lam_mid for row, t in enumerate(targets)]
    print(f"  {pair[0]}-kernel FWHM / lambda at 4 depths: "
          f"{['%.2f' % w for w in ws]}  (classical limit 0.5)")

# --- joint sound-speed / damping kernel block -------------------------------
model = holography.build_model(params, freqs[len(freqs) // 2],
                               quantities=("c", "gamma"))
tgt = [targets[1]]
k_cc = holography.sensitivity_kernel(model, ("c", "c"), weight, targets=tgt)
k_gg = holography.sensitivity_kernel(model, ("gamma", "gamma"), weight, targets=tgt)
k_cg = holography.sensitivity_kernel(model, ("c", "gamma"), weight, targets=tgt)
print("joint-block kernel magnitudes at the second target "
      "(normalized to the sound-speed kernel):")
ref = np.max(np.abs(k_cc))
for tag, k in (("c-c", k_cc), ("gamma-gamma", k_gg), ("c-gamma cross", k_cg)):
    print(f"  {tag:>14}: {np.max(np.abs(k)) / ref:.3e}")
