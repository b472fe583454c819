"""Receiver rows from the grid's symmetry: exact Hankel counts per preset.

Every stage evaluates the receiver rows Tr G of the uniform-medium Green's
operator once per frequency (greens.assemble_receiver_rows).  Their interior
columns are evaluated for one receiver per orbit of the grid's symmetry
group, the square's quarter turns and mirrors that the grid admits, and
mapped into the rest of each orbit; the receiver block is evaluated once per
chord of the ring, floor(n_rec/2) of them.

For the three shipped presets, on the parameter lattice and on every
frequency lattice that their inversion models (greens.frequency_lattice),
this script prints the group order, the orbit count and the Hankel points
of one receiver-row evaluation, counted where the rows call the Hankel
layer, next to the n_rec * n points of evaluating every entry.  The counts
are exact, so they check the per-layer claim without a clock.

Runtime is about a second.
"""

import json
from pathlib import Path

import numpy as np

from holoseis import cli, greens

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

points = []
hankel = greens.hankel_h1_array


def counted(z):
    points.append(np.size(z))
    return hankel(z)


greens.hankel_h1_array = counted  # count the points the rows evaluate
k = 20.0 + 0.1j  # the counts do not depend on the wavenumber

print("preset                 side  n_int  n_rec  maps  orbits  points   every entry")
for path in sorted(CONFIGS.glob("*.json")):
    cfg = json.loads(path.read_text())
    cli.validate_config(cfg)
    grid = cli.build_grid(cfg)
    omegas = [freq.omega for freq in cli.build_frequencies(cfg)]
    lattices = {}
    for omega in omegas:
        lattice = greens.frequency_lattice(grid, omega / max(omegas))
        lattices.setdefault(lattice.interior_shape[0], lattice)
    for side, lattice in sorted(lattices.items(), reverse=True):
        symmetry = greens._symmetry(lattice)
        least = np.min([m.receivers for m in symmetry.maps], axis=0)
        points.clear()
        greens.assemble_receiver_rows(lattice, k)
        print(
            f"{path.stem:22s} {side:4d} {lattice.n_interior:6d} {lattice.n_receivers:6d}"
            f" {len(symmetry.maps):5d} {len(np.unique(least)):7d} {sum(points):7d}"
            f" {lattice.n_receivers * lattice.n_nodes:13d}"
        )
