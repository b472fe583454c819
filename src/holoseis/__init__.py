"""holoseis: quantitative passive imaging by iterative holography.

Random wavefields in a known reference medium are synthesized, their surface
cross-correlations enter only implicitly, and medium parameters (source
strength, sound speed, damping, mass-conserving flows) are reconstructed by
an iteratively regularized Gauss-Newton method whose derivative and adjoint
are holographic forward/backward propagators.
"""

__version__ = "0.3.0"

from . import errors, specfun, greens, medium, stochastic, holography, inversion  # noqa: F401,E402
