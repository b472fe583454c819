"""H1_0 = J_0 + i Y_0, the Hankel function of the 2D Green's kernel (i/4) H1_0(k r).

scipy.special's AMOS routine evaluates it for complex arguments; this module
adds the two guards a grid can reach, the singularity at z = 0 and an
overflow guard on |z|.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError, SingularityError

__all__ = ["OVERFLOW_GUARD", "hankel_h1_array"]

OVERFLOW_GUARD: float = 1e4


def hankel_h1_array(z: np.ndarray) -> np.ndarray:
    """H1_0 over an array of nonzero complex arguments.  The overflow guard
    reads the envelope max |z| only, which a NaN or infinite entry fails."""
    z = np.asarray(z, dtype=np.complex128)
    if np.any(z == 0):
        raise SingularityError("H1_0 is singular at z = 0")
    amax = float(np.max(np.abs(z))) if z.size else 0.0
    if not amax <= OVERFLOW_GUARD:
        raise DomainError(f"max |z| = {amax:.3g} exceeds overflow guard {OVERFLOW_GUARD:.0e}")
    return _sp.hankel1(0, z)
