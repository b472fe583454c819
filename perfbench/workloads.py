"""Seeded workload generator and output checks for the holoseis benchmark.

Every workload runs the user path of the CLI: ``synth``, then ``hologram``,
then ``invert``, each on a config document built here from the workload seed.
The seed picks the perturbation centres inside fixed ranges and, on
``imaging`` and ``invert-S``, the synthesis seed; grid sizes, frequency
counts, realization counts and the number of outer iterations do not depend
on it, so every seed asks for the same amount of work.  ``invert-c`` stops by
the discrepancy rule, and its iteration count follows the noise draw (13 to
18 iterations over six synthesis seeds), so its synthesis seed is fixed.

The sizes decide which layer carries a workload:

imaging
    Many realizations on the 100-receiver Lindsey-Braun receiver ring, on a
    smaller domain than the preset's: sampling, archive write/read,
    back-propagation and empirical correlations carry weight.  Its inversion
    is a short source-strength (S) update, so ``update_green`` is never
    called.
invert-c
    A miniature of acceptance criterion 10: a sound-speed inversion that
    rebuilds the perturbed forward stack (``update_green``, receiver rows,
    ingression products) at every iterate and stops by the discrepancy rule.
invert-S
    The shipped ``source_inversion.json`` medium and inversion block on a
    smaller domain, at two frequencies and 20 outer iterations.  S does not
    change the Helmholtz operator, so the time goes to assembly and the CG
    derivative/adjoint loop.  The preset runs to ``max_outer`` (the known
    noise-level defect); its checks do not require the discrepancy stop.

Each check returns a list of problems; an empty list means the stage passed.
A failed check and a raising stage both count as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from holoseis import cli
from holoseis import io as hio

WORKLOADS = ("imaging", "invert-c", "invert-S")
STAGES = ("synth", "hologram", "invert")

# c = 350 km/s in solar radii per second, the unit of the shipped presets
C_SOLAR = 5.0287356321839083e-4
# invert-c's noise draw; with it every seed stops after the same 14 iterations
INVERT_C_SYNTH_SEED = 12345


def _offset(rng: np.random.Generator, centre, spread: float) -> List[float]:
    """A point drawn uniformly from the square of half-width spread around centre."""
    return [float(v) for v in np.asarray(centre) + rng.uniform(-spread, spread, 2)]


def _imaging(rng: np.random.Generator) -> dict:
    return {
        "description": "Lindsey-Braun hologram map of a hidden source block, "
        "followed by a short quantitative source-strength update.",
        "geometry": {
            "half_width": 0.4,
            "receiver_radius": 1.0,
            "n_receivers": 100,
            "points_per_wavelength": 7.5,
        },
        "medium": {
            "reference": {"c": C_SOLAR, "rho": 1.0, "gamma": 0.0},
            "source": {"model": "zero"},
            "perturbations": [
                {
                    "field": "S",
                    "shape": "block",
                    "center": _offset(rng, [0.2, 0.2], 0.05),
                    "half_width": 0.1,
                    "amplitude": 1.0,
                }
            ],
        },
        "frequencies": {"count": 1, "f_min_hz": 3.0e-3, "f_max_hz": 3.0e-3, "power": 1.0},
        "realizations": 8000,
        "seed": int(rng.integers(1, 2**31)),
        "hologram": {"pupils": None},
        "inversion": {
            "quantities": ["S"],
            "tau": 1.05,
            "max_outer": 2,
            "max_cg": 50,
            "beta": None,
            "weighted": True,
            "beta_scale": 50.0,
        },
    }


def _invert_c(rng: np.random.Generator) -> dict:
    # criterion 10 in miniature: c0 = 1, lambda_min = 0.2 / 1.02 at f_max,
    # band [0.65, 1] f_max, damping 1% of omega_max
    lam_min = 0.2
    f_max = 1.02 / lam_min
    gamma = 0.01 * 2.0 * np.pi * f_max
    s_blob = {"field": "S", "shape": "gaussian-blob", "half_width": 0.08, "amplitude": 1.0}
    return {
        "description": "Sound-speed IRGNM on a Gaussian c blob with two S blobs "
        "(acceptance criterion 10 in miniature).",
        "geometry": {
            "half_width": 0.3,
            "receiver_radius": 1.0,
            "n_receivers": 60,
            "points_per_wavelength": 7.1,
        },
        "medium": {
            "reference": {"c": 1.0, "rho": 1.0, "gamma": gamma},
            "source": {"model": "zero"},
            "perturbations": [
                {
                    "field": "c",
                    "shape": "gaussian-blob",
                    "center": _offset(rng, [0.1, -0.05], 0.01),
                    "half_width": 0.1,
                    "amplitude": 0.4,
                },
                {**s_blob, "center": _offset(rng, [-0.17, 0.13], 0.01)},
                {**s_blob, "center": _offset(rng, [0.18, -0.2], 0.01)},
            ],
        },
        "frequencies": {"count": 3, "f_min_hz": 0.65 * f_max, "f_max_hz": f_max, "power": 1.0},
        "realizations": 2000,
        "seed": INVERT_C_SYNTH_SEED,
        "hologram": {"pupils": None},
        "inversion": {
            "quantities": ["c"],
            "tau": 1.05,
            "max_outer": 45,
            "max_cg": 50,
            "alpha0_scale": 0.1,
            "beta_scale": 1.0,
            "smoothing_width": lam_min / 8,
            "weighted": True,
        },
    }


def _invert_s(rng: np.random.Generator) -> dict:
    # configs/source_inversion.json on a smaller domain (half-width 0.35, not
    # 0.45), with two frequencies up to its 3 mHz, which sets the grid step
    return {
        "description": "Quantitative source-strength inversion of a block "
        "source at two frequencies (the shipped preset on a smaller domain).",
        "geometry": {
            "half_width": 0.35,
            "receiver_radius": 1.0,
            "n_receivers": 40,
            "points_per_wavelength": 7.2,
        },
        "medium": {
            "reference": {"c": C_SOLAR, "rho": 1.0, "gamma": 0.0018849555921538759},
            "source": {"model": "zero"},
            "perturbations": [
                {
                    "field": "S",
                    "shape": "block",
                    "center": _offset(rng, [0.15, -0.1], 0.02),
                    "half_width": 0.1,
                    "amplitude": 1.0,
                }
            ],
        },
        "frequencies": {"count": 2, "f_min_hz": 2.8e-3, "f_max_hz": 3.0e-3, "power": 1.0},
        "realizations": 800,
        "seed": int(rng.integers(1, 2**31)),
        "hologram": {"pupils": None},
        "inversion": {
            "quantities": ["S"],
            "tau": 1.05,
            "max_outer": 20,
            "max_cg": 50,
            "beta": None,
            "weighted": True,
            "beta_scale": 50.0,
        },
    }


_GENERATORS = {"imaging": _imaging, "invert-c": _invert_c, "invert-S": _invert_s}


def generate(name: str, seed: int) -> dict:
    """Config document of one workload; the same seed gives the same document."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    cfg = _GENERATORS[name](rng)
    cli.validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def archive_digests(out: Path) -> Dict[str, str]:
    """SHA-256 of every realization archive written by synth."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("realizations_f*.hsr"))
    }


def check_synth(cfg: dict, out: Path) -> List[str]:
    problems = []
    grid_hash = cli.build_grid(cfg).content_hash()
    paths = sorted(out.glob("realizations_f*.hsr"))
    if len(paths) != cfg["frequencies"]["count"]:
        problems.append(f"{len(paths)} archives for {cfg['frequencies']['count']} frequencies")
    for path in paths:
        archive = hio.read_realizations(path)
        if archive.grid_hash != grid_hash:
            problems.append(f"{path.name}: grid hash does not match the config")
        if archive.n_realizations != cfg["realizations"]:
            problems.append(f"{path.name}: {archive.n_realizations} realizations")
        if not np.all(np.isfinite(archive.fields)):
            problems.append(f"{path.name}: non-finite fields")
    return problems


def _nonfinite_matrices(directory: Path) -> List[str]:
    return [
        f"{path.name}: non-finite values"
        for path in sorted(directory.glob("*.hsm"))
        if not np.all(np.isfinite(hio.read_matrix(path)))
    ]


def block_distance(point: np.ndarray, centre, half_width: float) -> float:
    """Euclidean distance from a point to an axis-aligned square block."""
    excess = np.maximum(np.abs(np.asarray(point) - np.asarray(centre)) - half_width, 0.0)
    return float(np.linalg.norm(excess))


def check_hologram(name: str, cfg: dict, out: Path) -> List[str]:
    problems = _nonfinite_matrices(out)
    band_path = out / "hologram_band.hsm"
    if not band_path.exists():
        return problems + ["no band hologram written"]
    if name == "imaging":
        grid = cli.build_grid(cfg)
        band = hio.read_matrix(band_path)
        peak = grid.interior_nodes[int(np.argmax(np.abs(band)))]
        block = cfg["medium"]["perturbations"][0]
        lam = cfg["medium"]["reference"]["c"] / cfg["frequencies"]["f_max_hz"]
        dist = block_distance(peak, block["center"], block["half_width"])
        if dist > lam / 2:
            problems.append(f"hologram peak {dist:.4f} from the block, beyond lambda/2 = {lam / 2:.4f}")
    return problems


def read_diagnostics(out: Path) -> List[dict]:
    """Rows of diagnostics.csv with misfit as float and param_error as a dict."""
    with open(out / "diagnostics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        row["misfit"] = float(row["misfit"])
        row["param_error"] = {
            k: float(v) for k, v in (item.split("=") for item in row["param_error"].split(";") if item)
        }
    return rows


def check_invert(name: str, cfg: dict, out: Path) -> Tuple[List[str], dict]:
    """Problems of the invert stage, and its outcome (rel_error, stop rule, iterations)."""
    problems = _nonfinite_matrices(out)
    summary = json.loads((out / "summary.json").read_text())
    rows = read_diagnostics(out)
    if not rows:
        return problems + ["no outer iterations"], {"stopped_by": summary["stopped_by"]}
    quantity = cfg["inversion"]["quantities"][0]
    rel_error = rows[-1]["param_error"][quantity]
    misfits = [row["misfit"] for row in rows]
    outcome = {
        "rel_error": rel_error,
        "stopped_by": summary["stopped_by"],
        "outer_iters": len(rows),
    }
    if not np.isfinite(rel_error):
        problems.append("relative error is not finite")
    if name == "invert-c":
        # acceptance criterion 10's tolerances
        if summary["stopped_by"] != "discrepancy":
            problems.append(f"stopped by {summary['stopped_by']}, not discrepancy")
        if not all(b <= a * (1 + 1e-9) for a, b in zip(misfits, misfits[1:])):
            problems.append("misfit increased between iterations")
        if rel_error > 0.5:
            problems.append(f"relative error {rel_error:.4f} > 0.5")
    else:
        if not summary["final_misfit"] < misfits[0]:
            problems.append("final misfit is not below the first")
        if not rel_error < 1.0:
            problems.append(f"relative error {rel_error:.4f} >= 1")
    return problems, outcome


def check_stage(stage: str, name: str, cfg: dict, written: Path) -> Tuple[List[str], dict]:
    """Problems in one stage's outputs, and what the stage reports.

    synth reports its archive digests; invert reports rel_error, the stop rule
    and the number of outer iterations.
    """
    if stage == "synth":
        return check_synth(cfg, written), {"digests": archive_digests(written)}
    if stage == "hologram":
        return check_hologram(name, cfg, written), {}
    return check_invert(name, cfg, written)
