"""Experiment driver: synthesize data, image, invert, and self-test.

Subcommands
-----------
    synth      draw realization archives per frequency from the truth medium
    hologram   Lindsey-Braun hologram intensities from archives
    kernels    band-averaged sensitivity kernels at the reference medium
    invert     run the regularized Gauss-Newton inversion on archives
    selftest   run the acceptance suite (one pass/fail line per criterion)

All experiments are described by one JSON document (see configs/ and the README).
Outputs are binary grid files, CSV cuts, and JSON metadata; every run writes
a manifest sufficient to reproduce its outputs bit-identically.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import greens, holography, inversion, io as hio, medium, stochastic
from .errors import HoloseisError, UsageError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
# the keys a config may carry at the top level ("") and in each block (a
# dotted path; a list-valued block is checked entry by entry); any other key
# is rejected, so a misspelt or stale key cannot be silently ignored
CONFIG_KEYS = {
    "": "description geometry medium frequencies realizations seed inversion "
    "kernels hologram",
    "geometry": "half_width receiver_radius n_receivers points_per_wavelength "
    "receiver_phase",
    "frequencies": "count f_min_hz f_max_hz power",
    "inversion": "quantities tau max_outer max_cg beta beta_scale weighted alpha0 "
    "alpha0_scale smoothing_width",
    "kernels": "pairs targets band_count source_strength",
    "hologram": "pupils",
    "medium": "reference source perturbations flow fields boundary_source",
    "medium.reference": "c rho gamma",
    "medium.source": "model power value",
    "medium.perturbations": "field shape center half_width amplitude",
    "medium.flow": "model center half_width amplitude",
    "medium.fields": "c rho gamma S u",
    "medium.boundary_source": "value",
}

# numeric keys checked when present (a dotted block path, as in CONFIG_KEYS):
# integer counts, and finite numbers of which a few may be null (the default)
COUNT_KEYS = {"kernels": "band_count", "inversion": "max_outer max_cg"}
NUMBER_KEYS = {
    "frequencies": "power",
    "kernels": "source_strength",
    "inversion": "tau beta beta_scale alpha0 alpha0_scale smoothing_width",
    "medium.reference": "c rho gamma",
    "medium.source": "power value",
    "medium.perturbations": "half_width amplitude",
    "medium.flow": "half_width amplitude",
}
NULLABLE_KEYS = ("beta", "beta_scale", "alpha0")


def load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    validate_config(cfg)
    return cfg


def _number(block: dict, key: str, default: float, kinds: tuple = (int, float)) -> float:
    """block[key] (or default; None means the key is required), rejected unless
    it is a finite number of the given kinds."""
    if default is None and key not in block:
        raise UsageError(f"config key {key!r} is required")
    value = block.get(key, default)
    finite = not isinstance(value, float) or np.isfinite(value)  # ints may exceed int64
    if isinstance(value, bool) or not isinstance(value, kinds) or not finite:
        kind = "an integer" if kinds == (int,) else "a finite number"
        raise UsageError(f"config key {key!r} must be {kind}, got {value!r}")
    return value


def _point(value, key: str) -> None:
    """Reject value unless it is a point of the plane: a list of 2 finite numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise UsageError(f"config key {key!r} must be a list of 2 numbers, got {value!r}")
    for coord in value:
        _number({key: coord}, key, None)


def _blocks(cfg: dict, name: str) -> List[dict]:
    """The dict blocks at a dotted path ("" is the top level); a list-valued
    block is returned entry by entry."""
    block = cfg
    for part in name.split(".") if name else ():
        block = block.get(part) if isinstance(block, dict) else None
    entries = block if isinstance(block, list) else [block]
    return [entry for entry in entries if isinstance(entry, dict)]


def validate_config(cfg: dict) -> None:
    for name, allowed in CONFIG_KEYS.items():
        for entry in _blocks(cfg, name):
            unknown = sorted(set(entry) - set(allowed.split()))
            if unknown:
                raise UsageError(f"unknown config keys {unknown} in {name or 'the top level'}")
    geo = cfg.get("geometry")
    if not isinstance(geo, dict):
        raise UsageError("config needs a 'geometry' block")
    if _number(geo, "half_width", None) <= 0:
        raise UsageError("geometry.half_width must be positive")
    if _number(geo, "points_per_wavelength", 7.5) < 7.0:
        raise UsageError("resolution must be at least 7 points per wavelength")
    if _number(geo, "n_receivers", 0, (int,)) < 2:
        raise UsageError("need at least 2 receivers")
    freqs = cfg.get("frequencies")
    if not isinstance(freqs, dict) or _number(freqs, "count", 0, (int,)) < 1:
        raise UsageError("config needs a 'frequencies' block with count >= 1")
    f_min = _number(freqs, "f_min_hz", 0)
    if f_min <= 0 or _number(freqs, "f_max_hz", 0) < f_min:
        raise UsageError("frequency band must satisfy 0 < f_min <= f_max")
    if _number(cfg, "realizations", None, (int,)) < 1:
        raise UsageError("need at least one realization")
    if not 0 <= _number(cfg, "seed", None, (int,)) < 2**64:
        raise UsageError(f"seed must be in [0, 2**64), got {cfg['seed']}")
    if "medium" not in cfg:
        raise UsageError("config needs a 'medium' descriptor")
    for keys, kinds in ((COUNT_KEYS, (int,)), (NUMBER_KEYS, (int, float))):
        for name, names in keys.items():
            for block in _blocks(cfg, name):
                for key in names.split():
                    if key in block and not (block[key] is None and key in NULLABLE_KEYS):
                        _number(block, key, None, kinds)
    # build_grid's grids are planar: every position is a point of the plane
    for block in _blocks(cfg, "medium.perturbations") + _blocks(cfg, "medium.flow"):
        if "center" in block:
            _point(block["center"], "center")
    kernels = cfg.get("kernels")
    if isinstance(kernels, dict) and "targets" in kernels:
        targets = kernels["targets"]
        if not isinstance(targets, list):
            raise UsageError(f"config key 'targets' must be a list of points, got {targets!r}")
        for target in targets:
            _point(target, "targets")
    inv = cfg.get("inversion")
    # the lower bounds of the inversion's loop counts and stop factor
    for key, low in (("max_cg", 1), ("max_outer", 0), ("tau", 0)):
        if isinstance(inv, dict) and key in inv and inv[key] < low:
            raise UsageError(f"config key {key!r} must be at least {low}, got {inv[key]!r}")
    names = inv.get("quantities", ["S"]) if isinstance(inv, dict) else ["S"]
    if not (isinstance(names, list) and names and all(isinstance(q, str) for q in names)):
        raise UsageError(f"config key 'quantities' must be a list of names, got {names!r}")
    weighted = inv.get("weighted", True) if isinstance(inv, dict) else True
    if not isinstance(weighted, bool):
        raise UsageError(f"config key 'weighted' must be true or false, got {weighted!r}")
    if not weighted and any(inv.get(key) is not None for key in ("beta", "beta_scale")):
        raise UsageError("'beta' and 'beta_scale' set a Lavrentiev weight: 'weighted' is false")


def build_grid(cfg: dict) -> greens.Grid:
    geo = cfg["geometry"]
    c_ref = cfg["medium"].get("reference", {}).get("c", 1.0)
    lam_min = c_ref / cfg["frequencies"]["f_max_hz"]
    return greens.square_grid(
        half_width=geo["half_width"],
        wavelength=lam_min,
        points_per_wavelength=geo.get("points_per_wavelength", 7.5),
        receiver_radius=geo.get("receiver_radius", 1.0),
        n_receivers=geo["n_receivers"],
        receiver_phase=geo.get("receiver_phase", 0.0),
    )


def build_frequencies(cfg: dict, count: Optional[int] = None) -> List[medium.FrequencyContext]:
    """The configured band at count frequencies (default: frequencies.count)."""
    f = cfg["frequencies"]
    return medium.frequency_band(
        f["count"] if count is None else count,
        2.0 * np.pi * f["f_min_hz"],
        2.0 * np.pi * f["f_max_hz"],
        power=f.get("power", 1.0),
    )


def _reference_medium(cfg: dict, grid: greens.Grid) -> medium.MediumParams:
    """Uniform medium at the configured reference values."""
    ref = cfg["medium"].get("reference", {})
    return medium.uniform_medium(
        grid, c=ref.get("c", 1.0), rho=ref.get("rho", 1.0), gamma=ref.get("gamma", 0.0)
    )


def _frequency_seed(base: int, index: int) -> int:
    # derived per-frequency seed; documented in the manifest
    return int(base) + 1000003 * index


def _archive_path(out: Path, index: int) -> Path:
    return out / f"realizations_f{index:03d}.hsr"


def _read_archive(
    archives: Path, idx: int, grid: greens.Grid, freq: medium.FrequencyContext
) -> stochastic.RealizationSet:
    """Realizations of frequency idx, checked against the configured grid and omega."""
    path = _archive_path(archives, idx)
    archive = hio.read_realizations(path)
    if archive.grid_hash != grid.content_hash():
        raise UsageError(f"{path}: archive grid hash does not match the configured grid")
    # synth writes the configured float64 omega, so equality is exact
    if archive.omega != freq.omega:
        raise UsageError(
            f"{path}: archive omega {archive.omega!r} != configured {freq.omega!r}"
        )
    if not np.all(np.isfinite(archive.fields)):
        raise UsageError(f"{path}: archive holds non-finite fields")
    return stochastic.RealizationSet(
        fields=archive.fields, seed=archive.seed, omega=archive.omega
    )


def _frequency_data(
    archives: Path, idx: int, grid: greens.Grid, freq: medium.FrequencyContext
) -> inversion.FrequencyData:
    """Corr of frequency idx's archive and its sample count."""
    r = _read_archive(archives, idx, grid, freq)
    corr = stochastic.empirical_corr(r, grid.receiver_weights)
    return inversion.FrequencyData(freq=freq, corr=corr, n_realizations=r.n_realizations)


def _map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on a thread pool when workers > 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def cmd_synth(cfg: dict, out: Path, workers: int = 1) -> List[str]:
    if "boundary_source" in cfg["medium"]:
        # the sampler draws interior sources only; invert models the key
        raise UsageError("synth does not model medium.boundary_source; remove it to synthesize")
    grid = build_grid(cfg)
    truth = medium.medium_from_descriptor(grid, cfg["medium"])
    freqs = build_frequencies(cfg)
    n = cfg["realizations"]
    seed = cfg["seed"]
    out.mkdir(parents=True, exist_ok=True)

    def synth_one(item):
        idx, freq = item
        model = holography.build_model(truth, freq, quantities=("S",))
        r = stochastic.sample_wavefields(model.hp, model, n, seed=_frequency_seed(seed, idx))
        path = _archive_path(out, idx)
        hio.write_realizations(path, r.fields, grid.content_hash(), freq.omega, r.seed)
        return str(path)

    outputs = _map(synth_one, enumerate(freqs), workers)
    hio.write_manifest(
        out / "manifest.json",
        cfg,
        outputs,
        extra={"grid_hash": grid.content_hash(), "command": "synth"},
    )
    return outputs


def _axis_cuts(grid: greens.Grid, values: np.ndarray, through_idx: int):
    """Rows of (coordinate, re, im) along the two grid axes through a node."""
    nx, ny = grid.interior_shape
    ix, iy = divmod(int(through_idx), ny)
    pts = grid.interior_nodes
    shaped = values.reshape(nx, ny)
    x_cut = [
        (pts[i * ny + iy][0], shaped[i, iy].real, complex(shaped[i, iy]).imag)
        for i in range(nx)
    ]
    y_cut = [
        (pts[ix * ny + j][1], shaped[ix, j].real, complex(shaped[ix, j]).imag)
        for j in range(ny)
    ]
    return x_cut, y_cut


def cmd_hologram(cfg: dict, out: Path, archives: Path, workers: int = 1) -> List[str]:
    grid = build_grid(cfg)
    reference = _reference_medium(cfg, grid)
    freqs = build_frequencies(cfg)
    pupils = cfg.get("hologram", {}).get("pupils")
    out.mkdir(parents=True, exist_ok=True)
    outputs: List[str] = []
    total = np.zeros(grid.n_interior, dtype=complex)

    def holo_one(item):
        idx, freq = item
        r = _read_archive(archives, idx, grid, freq)
        g_op = greens.assemble_green(grid, reference.reference_wavenumber(freq))
        pair = holography.lindsey_braun_pair(g_op, pupils=pupils)
        return holography.backprop_realizations(pair, r, grid.receiver_weights)

    for idx, holo in enumerate(_map(holo_one, enumerate(freqs), workers)):
        path = out / f"hologram_f{idx:03d}.hsm"
        hio.write_matrix(path, holo.values)
        outputs.append(str(path))
        total += holo.values

    total /= len(freqs)
    peak = int(np.argmax(np.abs(total)))
    hio.write_matrix(out / "hologram_band.hsm", total)
    outputs.append(str(out / "hologram_band.hsm"))
    x_cut, y_cut = _axis_cuts(grid, total, peak)
    hio.write_csv(out / "hologram_cut_x.csv", ["x", "re", "im"], x_cut)
    hio.write_csv(out / "hologram_cut_y.csv", ["y", "re", "im"], y_cut)
    outputs += [str(out / "hologram_cut_x.csv"), str(out / "hologram_cut_y.csv")]
    meta = {
        "command": "hologram",
        "quantity": "S",
        "band": [freqs[0].omega, freqs[-1].omega],
        "pupils": pupils,
        "peak_index": peak,
        "peak_position": [float(v) for v in grid.interior_nodes[peak]],
        "seed": cfg["seed"],
    }
    (out / "hologram_meta.json").write_text(json.dumps(meta, indent=2))
    outputs.append(str(out / "hologram_meta.json"))
    hio.write_manifest(out / "manifest.json", cfg, outputs, extra={"command": "hologram"})
    return outputs


def cmd_kernels(cfg: dict, out: Path, workers: int = 1) -> List[str]:
    grid = build_grid(cfg)
    reference = _reference_medium(cfg, grid)
    kcfg = cfg.get("kernels", {})
    pairs = [tuple(p) for p in kcfg.get("pairs", [["S", "S"]])]
    band_count = kcfg.get("band_count", cfg["frequencies"]["count"])
    freqs = build_frequencies(cfg, band_count)
    targets_xy = kcfg.get("targets", [[0.0, 0.0]])
    targets = [
        int(np.argmin(np.sum((grid.interior_nodes - np.asarray(t)) ** 2, axis=1)))
        for t in targets_xy
    ]
    # uniform source strength so the scalar ingressions are defined
    reference.S = np.full(grid.n_interior, kcfg.get("source_strength", 1.0))
    out.mkdir(parents=True, exist_ok=True)
    outputs: List[str] = []

    # one model per frequency, linearized for every quantity of every pair
    quantities = tuple(sorted({q for pair in pairs for q in pair} | {"S"}))
    weight = holography.NoiseWeight.identity(grid.receiver_weights)

    def kernels_one(freq):
        model = holography.build_model(reference, freq, quantities=quantities)
        return [
            holography.sensitivity_kernel(model, pair, weight, targets=targets).entries
            for pair in pairs
        ]

    per_freq = _map(kernels_one, freqs, workers)
    for p_idx, (qx, qy) in enumerate(pairs):
        avg = np.mean([parts[p_idx] for parts in per_freq], axis=0)
        tag = f"{qx}_{qy}"
        path = out / f"kernel_{tag}.hsm"
        hio.write_matrix(path, avg.astype(complex))
        outputs.append(str(path))
        for t_row, t_idx in enumerate(targets):
            row = avg[t_row] if avg.ndim == 2 else avg[0, 0, t_row]
            x_cut, y_cut = _axis_cuts(grid, row.astype(complex), t_idx)
            for axis, cut in (("x", x_cut), ("y", y_cut)):
                cpath = out / f"kernel_{tag}_t{t_row}_{axis}.csv"
                hio.write_csv(cpath, [axis, "re", "im"], cut)
                outputs.append(str(cpath))
    meta = {
        "command": "kernels",
        "pairs": [list(p) for p in pairs],
        "band": [freqs[0].omega, freqs[-1].omega],
        "band_count": band_count,
        "targets": targets,
        "seed": cfg["seed"],
    }
    (out / "kernels_meta.json").write_text(json.dumps(meta, indent=2))
    outputs.append(str(out / "kernels_meta.json"))
    hio.write_manifest(out / "manifest.json", cfg, outputs, extra={"command": "kernels"})
    return outputs


def cmd_invert(
    cfg: dict, out: Path, archives: Path, quantities: Optional[Sequence[str]] = None
) -> List[str]:
    grid = build_grid(cfg)
    truth = medium.medium_from_descriptor(grid, cfg["medium"])
    q0 = _reference_medium(cfg, grid)
    icfg = dict(cfg.get("inversion", {}))
    quantities = tuple(quantities or icfg.get("quantities", ["S"]))
    # the initial source strength matters for the scalar ingressions: start
    # from the truth background unless S itself is inverted
    if "S" not in quantities:
        q0.S = truth.S.copy()
    # each frequency keeps its Corr; its realizations are freed before the next read
    data = [
        _frequency_data(archives, idx, grid, freq)
        for idx, freq in enumerate(build_frequencies(cfg))
    ]
    boundary_src = None
    bnd = cfg["medium"].get("boundary_source")
    if bnd is not None:
        value = bnd["value"] if isinstance(bnd, dict) else bnd
        boundary_src = (
            np.full(grid.n_receivers, float(value))
            if np.isscalar(value)
            else np.asarray(value, dtype=float)
        )
    beta = icfg.get("beta")
    if beta is None and icfg.get("beta_scale") is not None:
        # fixed Lavrentiev level set from the data traces, so the weighting
        # metric stays constant across outer iterations
        beta = icfg["beta_scale"] * float(
            np.mean([d.corr.trace() / d.corr.n for d in data])
        )
    # keys the config leaves out keep InversionConfig's defaults
    keys = "alpha0 alpha0_scale tau max_outer max_cg weighted smoothing_width".split()
    config = inversion.InversionConfig(
        grid=grid,
        q0=q0,
        quantities=quantities,
        beta=beta,
        boundary_src=boundary_src,
        **{key: icfg[key] for key in keys if key in icfg},
    )
    out.mkdir(parents=True, exist_ok=True)
    q_fin, diag = inversion.run_irgnm(config, data, truth=truth)

    outputs: List[str] = []
    for q in quantities:
        field = getattr(q_fin, q)
        path = out / f"reconstruction_{q}.hsm"
        hio.write_matrix(path, np.asarray(field, dtype=complex))
        outputs.append(str(path))
    rows = []
    for entry in diag["iterations"]:
        err = entry.get("param_error", {})
        rows.append(
            (
                entry["iteration"],
                entry["alpha"],
                entry["misfit"],
                entry["noise_level"],
                ";".join(f"{k}={v:.6g}" for k, v in err.items()),
                entry["cg_iterations"],
                int(entry["cg_converged"]),
                entry["cg_residual"],
            )
        )
    hio.write_csv(
        out / "diagnostics.csv",
        "iteration alpha misfit noise_level param_error cg_iterations cg_converged "
        "cg_residual".split(),
        rows,
    )
    outputs.append(str(out / "diagnostics.csv"))
    summary = {
        "command": "invert",
        "quantities": list(quantities),
        "stopped_by": diag["stopped_by"],
        "iterations": len(diag["iterations"]),
        "alpha0": diag["alpha0"],
        "final_misfit": diag["final_misfit"],
        "final_noise_level": diag["final_noise_level"],
        "seed": cfg["seed"],
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    outputs.append(str(out / "summary.json"))
    hio.write_manifest(out / "manifest.json", cfg, outputs, extra={"command": "invert"})
    return outputs


def cmd_selftest(only: Optional[Sequence[int]] = None, fast: bool = False) -> int:
    from . import acceptance

    results = acceptance.run_all(only=only, fast=fast)
    failed = [r for r in results if not r.passed]
    return EXIT_OK if not failed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoseis",
        description="Quantitative passive imaging by iterative holography",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "hologram", "kernels", "invert"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON document")
        p.add_argument("--out", required=True, help="output directory")
        if name != "invert":
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name in ("hologram", "invert"):
            p.add_argument(
                "--archives",
                default=None,
                help="directory with realization archives (default: --out)",
            )
        if name == "invert":
            p.add_argument(
                "--quantity",
                default=None,
                help="comma-separated quantity list overriding the config",
            )
    st = sub.add_parser("selftest")
    st.add_argument(
        "--only", default=None, help="comma-separated criterion numbers to run"
    )
    st.add_argument(
        "--fast", action="store_true", help="skip the long-running criteria (9-11)"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = make_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            tokens = args.only.split(",") if args.only else []
            if not all(tok.strip().isdecimal() for tok in tokens):
                raise UsageError(f"--only takes criterion numbers, got {args.only!r}")
            return cmd_selftest(only=[int(tok) for tok in tokens] or None, fast=args.fast)
        if getattr(args, "workers", 1) < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
            validate_config(cfg)
        out = Path(args.out)
        if args.command == "synth":
            cmd_synth(cfg, out, workers=args.workers)
        elif args.command == "hologram":
            archives = Path(args.archives) if args.archives else out
            cmd_hologram(cfg, out, archives, workers=args.workers)
        elif args.command == "kernels":
            cmd_kernels(cfg, out, workers=args.workers)
        elif args.command == "invert":
            archives = Path(args.archives) if args.archives else out
            quantities = args.quantity.split(",") if args.quantity else None
            cmd_invert(cfg, out, archives, quantities=quantities)
        return EXIT_OK
    except UsageError as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except HoloseisError as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
