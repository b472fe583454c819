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
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, List, NamedTuple, Optional, Sequence

import numpy as np

from . import greens, holography, inversion, io as hio, medium, specfun, stochastic
from .errors import HoloseisError, UsageError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
class Key(NamedTuple):
    """One row of CONFIG: the kind of a key's value (a KINDS name), the
    default read when the key is left out, whether the key is required and
    whether null is admissible, and the range of a number or of a list's
    length: least <= x, above < x and x <= most."""

    kind: str
    default: Any = None
    required: bool = False
    null: bool = False
    least: float = -math.inf
    above: float = -math.inf
    most: float = math.inf

    def admits(self, value: Any) -> bool:
        if value is None or not _fits(self.kind, value):
            return value is None and self.null
        size = value if isinstance(value, (int, float)) else len(value)
        return self.least <= size <= self.most and size > self.above

    def __str__(self) -> str:
        bounds = ((">=", self.least), (">", self.above), ("<=", self.most))
        text = " and ".join(f"{op} {bound}" for op, bound in bounds if math.isfinite(bound))
        of_length = " of length" if self.kind.startswith("[") else ""
        return f"{self.kind}{of_length} {text}".rstrip()


# the values of each kind; a kind in brackets is a list of values of that kind
KINDS = {
    "block": lambda v: isinstance(v, dict),
    "int": lambda v: (  # one a float holds, so the grid's arithmetic cannot overflow
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    ),
    "number": lambda v: _fits("int", v) or isinstance(v, float) and math.isfinite(v),
    "numbers": lambda v: _fits("number", v) or _fits("[number]", v),  # one for all, or each
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "names": lambda v: _fits("[str]", v) and 0 < len(v) == len(set(v)),  # distinct
    "quantity": lambda v: v in holography.ALL_QUANTITIES,
    "pair": lambda v: _fits("[quantity]", v) and len(v) == 2,  # two names build_model knows
    "point": lambda v: _fits("[number]", v) and len(v) == 2,  # build_grid's grids are planar
}

_INVERSION = inversion.InversionConfig  # the inversion keys default to its fields

# every key a config may carry, one row per dotted key (the entries of a list
# of blocks share their rows); a key with no row is rejected, so a misspelt or
# stale key cannot be silently ignored.  The medium descriptor's keys without
# a default here take medium_from_descriptor's.
CONFIG = {
    "description": Key("str"),
    "geometry": Key("block", required=True),
    "geometry.half_width": Key("number", required=True, above=0),
    "geometry.receiver_radius": Key("number", 1.0, above=0),
    "geometry.n_receivers": Key("int", required=True, least=2),
    "geometry.points_per_wavelength": Key("number", 7.5, least=7),
    "geometry.receiver_phase": Key("number", 0.0, least=-2 * math.pi, most=2 * math.pi),
    "frequencies": Key("block", required=True),
    "frequencies.count": Key("int", required=True, least=1),
    "frequencies.f_min_hz": Key("number", required=True, above=0),
    "frequencies.f_max_hz": Key("number", required=True, above=0),
    "frequencies.power": Key("number", 1.0, above=0),
    "realizations": Key("int", required=True, least=1),
    "seed": Key("int", required=True, least=0, most=2**64 - 1),
    "medium": Key("block", required=True),
    "medium.reference": Key("block"),
    "medium.reference.c": Key("number", 1.0, above=0),
    "medium.reference.rho": Key("number", 1.0, above=0),
    "medium.reference.gamma": Key("number", 0.0, least=0),
    "medium.source": Key("block"),
    "medium.source.model": Key("str", "zero"),
    "medium.source.value": Key("number", least=0),
    "medium.perturbations": Key("[block]"),
    "medium.perturbations.field": Key("str", required=True),
    "medium.perturbations.shape": Key("str"),
    "medium.perturbations.center": Key("point"),
    "medium.perturbations.half_width": Key("number", required=True, above=0),
    "medium.perturbations.amplitude": Key("number", required=True),
    "medium.flow": Key("block"),
    "medium.flow.model": Key("str"),
    "medium.flow.center": Key("point"),
    "medium.flow.half_width": Key("number", required=True, above=0),
    "medium.flow.amplitude": Key("number"),
    "medium.fields": Key("block"),  # a binary grid file per overridden field
    **{f"medium.fields.{name}": Key("str") for name in ("c", "rho", "gamma", "S", "u")},
    "medium.boundary_source": Key("block"),
    "medium.boundary_source.value": Key("numbers", required=True),  # a list: per receiver
    "inversion": Key("block"),
    "inversion.quantities": Key("names", ("S",)),
    "inversion.tau": Key("number", _INVERSION.tau, least=0),
    "inversion.max_outer": Key("int", _INVERSION.max_outer, least=0),
    "inversion.max_cg": Key("int", _INVERSION.max_cg, least=1),
    "inversion.weighted": Key("bool", _INVERSION.weighted),
    "inversion.beta": Key("number", _INVERSION.beta, null=True, above=0),
    "inversion.beta_scale": Key("number", null=True, above=0),
    "inversion.alpha0": Key("number", _INVERSION.alpha0, null=True, above=0),
    "inversion.alpha0_scale": Key("number", _INVERSION.alpha0_scale, above=0),
    "inversion.smoothing_width": Key("number", _INVERSION.smoothing_width, least=0),
    "kernels": Key("block"),
    "kernels.pairs": Key("[pair]", (("S", "S"),), least=1),
    "kernels.targets": Key("[point]", ((0.0, 0.0),), least=1),
    "kernels.band_count": Key("int", least=1),  # left out: frequencies.count
    "kernels.source_strength": Key("number", 1.0, least=0),
    "hologram": Key("block"),
    "hologram.pupils": Key("[[int]]", null=True, least=2, most=2),  # receiver indices
}


def _fits(kind: str, value: Any) -> bool:
    if kind.startswith("["):
        return isinstance(value, list) and all(_fits(kind[1:-1], v) for v in value)
    return KINDS[kind](value)


def setting(cfg: dict, key: str) -> Any:
    """The value of a dotted key in a validated cfg, or its row's default."""
    *blocks, leaf = key.split(".")
    for block in blocks:
        cfg = cfg.get(block, {})
    return cfg.get(leaf, CONFIG[key].default)


def validate_config(cfg: dict) -> None:
    """Reject cfg, naming every fault, unless each of its keys has a row in
    CONFIG and its value fits that row; then the rules that tie keys together."""
    if not isinstance(cfg, dict):
        raise UsageError(f"a config is a JSON object, got {cfg!r}")
    found = {"": [cfg]}  # the blocks at each dotted path, a list's entries one by one
    faults = []
    for key, row in CONFIG.items():
        path, _, leaf = key.rpartition(".")
        for block in found.get(path, []):
            if leaf not in block:
                if row.required:
                    faults.append(f"config key {key!r} is required")
            elif not row.admits(block[leaf]):
                faults.append(f"config key {key!r} must be {row}, got {block[leaf]!r}")
            elif "block" in row.kind:
                entries = block[leaf] if isinstance(block[leaf], list) else [block[leaf]]
                found.setdefault(key, []).extend(entries)
    for path, blocks in found.items():
        unknown = {k for b in blocks for k in b if (f"{path}.{k}" if path else k) not in CONFIG}
        if unknown:
            faults.append(f"unknown config keys {sorted(unknown)} in {path or 'the top level'}")
    if faults:
        raise UsageError("; ".join(faults))
    if setting(cfg, "frequencies.f_min_hz") > setting(cfg, "frequencies.f_max_hz"):
        raise UsageError("frequency band must satisfy 0 < f_min <= f_max")
    # a weighted run takes at most one Lavrentiev level, an unweighted run none
    levels = [k for k in ("beta", "beta_scale") if setting(cfg, f"inversion.{k}") is not None]
    if len(levels) > setting(cfg, "inversion.weighted"):
        raise UsageError(
            f"inversion sets {levels}: a weighted run takes one at most, an unweighted run none"
        )
    # keys that another key's value leaves unread
    scaled = "alpha0_scale" in cfg.get("inversion", {})
    if scaled and setting(cfg, "inversion.alpha0") is not None:
        raise UsageError("inversion.alpha0_scale scales an estimated alpha0: drop it or alpha0")
    model = setting(cfg, "medium.source.model")
    if model != "uniform" and setting(cfg, "medium.source.value") is not None:
        raise UsageError(f"medium.source.value is read by the 'uniform' model, not {model!r}")
    if model != "damping" and setting(cfg, "frequencies.power") != 1:  # Pi of S = Pi gamma/c^2
        raise UsageError(f"frequencies.power != 1 is read by the 'damping' model, not {model!r}")
    side = 2 * setting(cfg, "geometry.half_width")
    if setting(cfg, "inversion.smoothing_width") > side:  # ndimage would ask for a huge kernel
        raise UsageError(
            f"inversion.smoothing_width must not exceed the interior's side {side:g}"
        )
    n_rec = setting(cfg, "geometry.n_receivers")
    bnd = setting(cfg, "medium.boundary_source.value")
    if isinstance(bnd, list) and len(bnd) != n_rec:
        raise UsageError(
            f"medium.boundary_source.value lists {len(bnd)} strengths for {n_rec} receivers"
        )
    pupils = setting(cfg, "hologram.pupils")
    if pupils is not None and not all(0 <= i < n_rec for pupil in pupils for i in pupil):
        raise UsageError(f"hologram.pupils indices must lie in [0, {n_rec})")
    # the reference wavenumber divides by c_ref**2, as a Python float, and a
    # zero k^2 at the lowest frequency is the Hankel singularity
    c, f_max = setting(cfg, "medium.reference.c"), setting(cfg, "frequencies.f_max_hz")
    if not sys.float_info.min <= float(c) * float(c) <= sys.float_info.max:
        raise UsageError(
            f"medium.reference.c = {c!r}: its square leaves the normal float range, "
            "and the reference wavenumber divides by it"
        )
    omega_min = float(2.0 * np.pi * setting(cfg, "frequencies.f_min_hz"))
    gamma = setting(cfg, "medium.reference.gamma")
    if (omega_min**2 + 2j * omega_min * gamma) / float(c) ** 2 == 0:
        raise UsageError(
            "the reference wavenumber at f_min underflows to 0: raise f_min_hz or "
            "medium.reference.gamma, or lower medium.reference.c"
        )
    # the dense kernel of build_grid's grid, sized before anything is built
    ppw = setting(cfg, "geometry.points_per_wavelength")
    half_width = setting(cfg, "geometry.half_width")
    side = greens.square_grid_side(half_width, c / f_max, ppw)
    nodes = side * side + n_rec
    need = 16 * nodes * nodes
    if need > greens.DEFAULT_BUDGET_BYTES:
        raise UsageError(
            f"the grid's {nodes:.4g} nodes need a {need / 1e9:.4g} GB dense kernel, over "
            f"the {greens.DEFAULT_BUDGET_BYTES / 1e9:.4g} GB budget"
        )
    # |k r| over the longest distance a kernel is evaluated at, k =
    # reference_wavenumber's at f_max: the ring's longest chord, or a receiver
    # to the far corner of the interior block
    omega = 2.0 * np.pi * f_max
    k = abs(np.sqrt(omega * omega + 2j * omega * gamma)) / c
    radius = setting(cfg, "geometry.receiver_radius")
    chord = 2 * radius * np.sin(np.pi * (n_rec // 2) / n_rec)
    reach = max(chord, radius + np.sqrt(2.0) * half_width)
    if not k * reach <= specfun.OVERFLOW_GUARD:
        raise UsageError(
            f"|k| = {k:.4g} at f_max times the longest receiver distance {reach:.4g} "
            f"exceeds the Hankel overflow guard {specfun.OVERFLOW_GUARD:.0e}"
        )


def build_grid(cfg: dict) -> greens.Grid:
    keys = "half_width points_per_wavelength receiver_radius n_receivers receiver_phase"
    return greens.square_grid(
        wavelength=setting(cfg, "medium.reference.c") / setting(cfg, "frequencies.f_max_hz"),
        **{key: setting(cfg, f"geometry.{key}") for key in keys.split()},
    )


def build_frequencies(cfg: dict, count: Optional[int] = None) -> List[medium.FrequencyContext]:
    """The configured band at count frequencies (default: frequencies.count)."""
    return medium.frequency_band(
        setting(cfg, "frequencies.count") if count is None else count,
        2.0 * np.pi * setting(cfg, "frequencies.f_min_hz"),
        2.0 * np.pi * setting(cfg, "frequencies.f_max_hz"),
        power=setting(cfg, "frequencies.power"),
    )


def _configured_medium(cfg: dict, grid: greens.Grid) -> medium.MediumParams:
    """The medium of the config; frequencies.power scales a damping source."""
    power = setting(cfg, "frequencies.power")
    return medium.medium_from_descriptor(grid, setting(cfg, "medium"), power=power)


def _reference_medium(cfg: dict, grid: greens.Grid) -> medium.MediumParams:
    """Uniform medium at the configured reference values."""
    return medium.uniform_medium(
        grid, **{key: setting(cfg, f"medium.reference.{key}") for key in ("c", "rho", "gamma")}
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
    if setting(cfg, "medium.boundary_source") is not None:
        # the sampler draws interior sources only; invert models the key
        raise UsageError("synth does not model medium.boundary_source; remove it to synthesize")
    grid = build_grid(cfg)
    truth = _configured_medium(cfg, grid)
    freqs = build_frequencies(cfg)
    n = setting(cfg, "realizations")
    seed = setting(cfg, "seed")
    out.mkdir(parents=True, exist_ok=True)

    def synth_one(item):
        idx, freq = item
        model = holography.build_model(truth, freq, quantities=("S",))
        r = stochastic.sample_wavefields(model, n, seed=_frequency_seed(seed, idx))
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
    pupils = setting(cfg, "hologram.pupils")
    out.mkdir(parents=True, exist_ok=True)
    outputs: List[str] = []
    total = np.zeros(grid.n_interior, dtype=complex)

    def holo_one(item):
        idx, freq = item
        r = _read_archive(archives, idx, grid, freq)
        model = holography.build_model(reference, freq)
        pair = holography.lindsey_braun_pair(model, pupils=pupils)
        return holography.backprop_realizations(pair, r, grid.receiver_weights)

    for idx, holo in enumerate(_map(holo_one, enumerate(freqs), workers)):
        path = out / f"hologram_f{idx:03d}.hsm"
        hio.write_matrix(path, holo)
        outputs.append(str(path))
        total += holo

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
        "seed": setting(cfg, "seed"),
    }
    (out / "hologram_meta.json").write_text(json.dumps(meta, indent=2))
    outputs.append(str(out / "hologram_meta.json"))
    hio.write_manifest(out / "manifest.json", cfg, outputs, extra={"command": "hologram"})
    return outputs


def cmd_kernels(cfg: dict, out: Path, workers: int = 1) -> List[str]:
    grid = build_grid(cfg)
    reference = _reference_medium(cfg, grid)
    pairs = [tuple(p) for p in setting(cfg, "kernels.pairs")]
    freqs = build_frequencies(cfg, setting(cfg, "kernels.band_count"))
    targets = [
        int(np.argmin(np.sum((grid.interior_nodes - np.asarray(t)) ** 2, axis=1)))
        for t in setting(cfg, "kernels.targets")
    ]
    # uniform source strength so the scalar ingressions are defined
    reference.S = np.full(grid.n_interior, setting(cfg, "kernels.source_strength"))
    out.mkdir(parents=True, exist_ok=True)
    outputs: List[str] = []

    # one model per frequency, linearized for every quantity of every pair
    quantities = tuple(sorted({q for pair in pairs for q in pair}))
    weight = holography.NoiseWeight.identity(grid.receiver_weights)

    def kernels_one(freq):
        model = holography.build_model(reference, freq, quantities=quantities)
        return [
            holography.sensitivity_kernel(model, pair, weight, targets=targets)
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
        "band_count": len(freqs),
        "targets": targets,
        "seed": setting(cfg, "seed"),
    }
    (out / "kernels_meta.json").write_text(json.dumps(meta, indent=2))
    outputs.append(str(out / "kernels_meta.json"))
    hio.write_manifest(out / "manifest.json", cfg, outputs, extra={"command": "kernels"})
    return outputs


def cmd_invert(
    cfg: dict, out: Path, archives: Path, quantities: Optional[Sequence[str]] = None
) -> List[str]:
    grid = build_grid(cfg)
    truth = _configured_medium(cfg, grid)
    q0 = _reference_medium(cfg, grid)
    quantities = tuple(quantities or setting(cfg, "inversion.quantities"))
    # the initial source strength matters for the scalar ingressions: start
    # from the truth background unless S itself is inverted
    if "S" not in quantities:
        q0.S = truth.S.copy()
    # each frequency keeps its Corr; its realizations are freed before the next read
    data = [
        _frequency_data(archives, idx, grid, freq)
        for idx, freq in enumerate(build_frequencies(cfg))
    ]
    for idx, d in enumerate(data):
        if not d.corr.trace() > 0:
            raise UsageError(f"frequency {idx}: the archived correlation has no signal (trace 0)")
    # one boundary source strength, or one per receiver
    bnd = setting(cfg, "medium.boundary_source.value")
    if np.isscalar(bnd):
        bnd = np.full(grid.n_receivers, float(bnd))
    elif bnd is not None:
        bnd = np.asarray(bnd, dtype=float)
    beta, beta_scale = setting(cfg, "inversion.beta"), setting(cfg, "inversion.beta_scale")
    if beta_scale is not None:
        # fixed Lavrentiev level set from the data traces, so the weighting
        # metric stays constant across outer iterations
        beta = beta_scale * float(np.mean([d.corr.trace() / d.corr.n for d in data]))
    keys = "alpha0 alpha0_scale tau max_outer max_cg weighted smoothing_width"
    config = inversion.InversionConfig(
        grid=grid,
        q0=q0,
        quantities=quantities,
        beta=beta,
        boundary_src=bnd,
        **{key: setting(cfg, f"inversion.{key}") for key in keys.split()},
    )
    out.mkdir(parents=True, exist_ok=True)
    q_fin, diag = inversion.run_irgnm(config, data, truth=truth)

    outputs: List[str] = []
    for q in quantities:
        field = getattr(q_fin, q)
        path = out / f"reconstruction_{q}.hsm"
        hio.write_matrix(path, np.asarray(field, dtype=complex))
        outputs.append(str(path))
    columns = (
        "iteration alpha misfit noise_level param_error cg_iterations cg_converged cg_residual"
        " cg_start_residual"
    ).split()
    rows = []
    for entry in diag["iterations"]:
        err = ";".join(f"{k}={v:.6g}" for k, v in entry.get("param_error", {}).items())
        entry = {**entry, "param_error": err, "cg_converged": int(entry["cg_converged"])}
        rows.append([entry[column] for column in columns])
    hio.write_csv(out / "diagnostics.csv", columns, rows)
    outputs.append(str(out / "diagnostics.csv"))
    summary = {
        "command": "invert",
        "quantities": list(quantities),
        "stopped_by": diag["stopped_by"],
        "iterations": len(diag["iterations"]),
        "alpha0": diag["alpha0"],
        "alpha0_applies": diag["alpha0_applies"],
        "lattice_shapes": diag["lattice_shapes"],
        "final_misfit": diag["final_misfit"],
        "final_noise_level": diag["final_noise_level"],
        "seed": setting(cfg, "seed"),
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
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if args.seed is not None and isinstance(cfg, dict):
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
