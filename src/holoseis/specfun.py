"""Complex-capable cylindrical Bessel/Hankel functions.

Evaluation is delegated to the AMOS routines wrapped by :mod:`scipy.special`,
which handle complex arguments.  This module adds the domain guards, the
z = 0 special cases, and a uniform calling convention (integer order, complex
argument).  The 2D Green's-function assembly in :mod:`holoseis.greens` uses
hankel_h1 and hankel_h1_array; bessel_j and bessel_y are the guarded
references the tests check them against.

Conventions
-----------
    J_n  : Bessel function of the first kind
    Y_n  : Bessel function of the second kind
    H1_n : Hankel function of the first kind, H1_n = J_n + i Y_n

All functions are pure and stateless; they may be called concurrently.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError, SingularityError, UsageError

__all__ = [
    "MAX_ORDER",
    "bessel_j",
    "bessel_y",
    "hankel_h1",
    "hankel_h1_array",
]

MAX_ORDER: int = 200
OVERFLOW_GUARD: float = 1e4


def _check_order(n: int) -> int:
    if int(n) != n or n < 0:
        raise UsageError(f"order must be a non-negative integer, got {n!r}")
    if n > MAX_ORDER:
        raise DomainError(f"order {n} exceeds supported maximum {MAX_ORDER}")
    return int(n)


def _check_argument(z: complex) -> complex:
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise DomainError(f"argument must be finite, got {z!r}")
    if abs(z) > OVERFLOW_GUARD:
        raise DomainError(
            f"|z| = {abs(z):.3g} exceeds overflow guard {OVERFLOW_GUARD:.0e}"
        )
    return z


def bessel_j(n: int, z: complex) -> complex:
    """Bessel function of the first kind J_n(z) for integer n and complex z.

    Accurate to relative ~1e-12 for |z| <= 100 (AMOS backward
    recurrence/series selection internally).
    """
    n = _check_order(n)
    z = _check_argument(z)
    if z == 0:
        return 1.0 + 0.0j if n == 0 else 0.0 + 0.0j
    return complex(_sp.jv(n, z))


def bessel_y(n: int, z: complex) -> complex:
    """Bessel function of the second kind Y_n(z); singular at z = 0."""
    n = _check_order(n)
    z = _check_argument(z)
    if z == 0:
        raise SingularityError("Y_n is singular at z = 0")
    return complex(_sp.yv(n, z))


def hankel_h1(n: int, z: complex) -> complex:
    """Hankel function of the first kind H1_n(z) = J_n(z) + i Y_n(z).

    Raises
    ------
    SingularityError
        If z = 0 (logarithmic/power singularity).
    """
    n = _check_order(n)
    z = _check_argument(z)
    if z == 0:
        raise SingularityError("H1_n is singular at z = 0")
    return complex(_sp.hankel1(n, z))


def hankel_h1_array(n: int, z: np.ndarray) -> np.ndarray:
    """Vectorized H1_n over an array of complex arguments (no zero entries).

    Used by the dense Green's-matrix assembly; guards are applied on the
    magnitude envelope only, not per element, to keep assembly cheap.
    """
    n = _check_order(n)
    z = np.asarray(z, dtype=np.complex128)
    if np.any(z == 0):
        raise SingularityError("H1_n is singular at z = 0")
    amax = float(np.max(np.abs(z))) if z.size else 0.0
    if amax > OVERFLOW_GUARD:
        raise DomainError(
            f"max |z| = {amax:.3g} exceeds overflow guard {OVERFLOW_GUARD:.0e}"
        )
    return _sp.hankel1(n, z)
