"""Binary and JSON file formats shared across the package.

Two binary formats, both little-endian:

grid-matrix file (complex128 arrays, any rank)
    bytes 0..11   magic  b"HOLOSEISGRID"
    bytes 12..15  u32    format version (currently 1)
    u64           rank
    u64 * rank    dimensions
    payload       row-major complex128

realization archive (per-frequency surface wavefield samples)
    bytes 0..11   magic  b"HOLOSEISRLZN"
    bytes 12..15  u32    format version (currently 1)
    32 bytes      sha256 digest of the grid
    f64           angular frequency omega
    u64           N realizations
    u64           base RNG seed
    u64           receiver count
    payload       (N, n_rec) row-major complex128

Everything can be re-derived from (config, seed) under the package version
that the manifest records; archives exist so expensive syntheses can be
shared between the synth / hologram / invert stages.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import UsageError

MATRIX_MAGIC = b"HOLOSEISGRID"
ARCHIVE_MAGIC = b"HOLOSEISRLZN"
FORMAT_VERSION = 1
# archive header after the magic: version, grid digest, omega, N, seed, n_rec
_ARCHIVE_HEADER = struct.Struct("<I32sdQQQ")

__all__ = [
    "write_matrix",
    "read_matrix",
    "RealizationArchive",
    "write_realizations",
    "read_realizations",
    "write_manifest",
    "config_hash",
    "write_csv",
]


def _payload(arr: np.ndarray) -> np.ndarray:
    """Row-major bytes of arr as a flat uint8 array, which a file writes from
    or reads into: a view of arr's own buffer when it is C-contiguous
    (zero-size and rank-0 arrays included), else one row-major copy."""
    return np.ascontiguousarray(arr).reshape(-1).view(np.uint8)


def _read_payload(f, shape: Tuple[int, ...], path) -> np.ndarray:
    """Read a row-major complex128 payload of this shape straight into a new array.

    A header that asks for more bytes than the file holds is rejected before
    anything is allocated.
    """
    if 16 * math.prod(shape) > os.fstat(f.fileno()).st_size - f.tell():
        raise UsageError(f"{path}: truncated payload")
    arr = np.empty(shape, dtype=np.complex128)
    if f.readinto(_payload(arr)) != arr.nbytes:
        raise UsageError(f"{path}: truncated payload")
    return arr


def write_matrix(path, array: np.ndarray) -> None:
    """Write a complex array in the binary grid-matrix format."""
    arr = np.asarray(array, dtype=np.complex128)  # keeps rank 0
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<Q", d))
        f.write(_payload(arr))


def _read_exact(f, size: int, path, part: str) -> bytes:
    """Read exactly ``size`` bytes; a short read means the file was cut."""
    data = f.read(size)
    if len(data) != size:
        raise UsageError(f"{path}: truncated {part}")
    return data


def read_matrix(path) -> np.ndarray:
    """Read a binary grid-matrix file back into a complex128 array."""
    with open(path, "rb") as f:
        magic = f.read(12)
        if magic != MATRIX_MAGIC:
            raise UsageError(f"{path}: not a grid-matrix file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(f, 4, path, "header"))
        if version != FORMAT_VERSION:
            raise UsageError(f"{path}: unsupported version {version}")
        (rank,) = struct.unpack("<Q", _read_exact(f, 8, path, "header"))
        shape = struct.unpack("<" + "Q" * rank, _read_exact(f, 8 * rank, path, "header"))
        return _read_payload(f, shape, path)


@dataclass
class RealizationArchive:
    """Header + sample block of one per-frequency realization archive."""

    grid_hash: str
    omega: float
    n_realizations: int
    seed: int
    fields: np.ndarray  # (N, n_rec) complex128


def write_realizations(
    path,
    fields: np.ndarray,
    grid_hash: str,
    omega: float,
    seed: int,
) -> None:
    arr = np.ascontiguousarray(fields, dtype=np.complex128)
    if arr.ndim != 2:
        raise UsageError("realization block must be (N, n_receivers)")
    digest = bytes.fromhex(grid_hash)
    if len(digest) != 32:
        raise UsageError("grid_hash must be a sha256 hex digest")
    with open(path, "wb") as f:
        f.write(ARCHIVE_MAGIC)
        f.write(
            _ARCHIVE_HEADER.pack(
                FORMAT_VERSION, digest, float(omega), arr.shape[0], int(seed), arr.shape[1]
            )
        )
        f.write(_payload(arr))


def read_realizations(path) -> RealizationArchive:
    try:
        f = open(path, "rb")
    except FileNotFoundError as exc:
        raise UsageError(f"realization archive {path} not found") from exc
    with f:
        magic = f.read(12)
        if magic != ARCHIVE_MAGIC:
            raise UsageError(f"{path}: not a realization archive (magic {magic!r})")
        header = _read_exact(f, _ARCHIVE_HEADER.size, path, "header")
        version, digest, omega, n_real, seed, n_rec = _ARCHIVE_HEADER.unpack(header)
        if version != FORMAT_VERSION:
            raise UsageError(f"{path}: unsupported version {version}")
        return RealizationArchive(
            grid_hash=digest.hex(),
            omega=omega,
            n_realizations=n_real,
            seed=seed,
            fields=_read_payload(f, (n_real, n_rec), path),
        )


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable configuration document."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(path, config: dict, outputs: Sequence[str], extra: Optional[dict] = None) -> None:
    """Run manifest: config + hash + produced files, enough to reproduce."""
    from . import __version__

    doc = {
        "config": config,
        "config_hash": config_hash(config),
        "package_version": __version__,
        "outputs": list(outputs),
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
