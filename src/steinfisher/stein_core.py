"""Operator toolbox: the Stein kernel by quadrature, the oracle that the
CLI's ``kernel_check`` and the test suite hold the closed-form kernels to.
"""

from __future__ import annotations

from .distributions import DistributionSpec
from .errors import DensityUnderflow
from .quadrature import integrate

DENSITY_DIVIDE_FLOOR = 1e-300


def tau_by_quadrature(dist: DistributionSpec, x: float) -> float:
    """Stein kernel at ``x`` straight from its defining tail integral.

    Used as the independent oracle against closed-form kernels; the mean is
    itself recomputed by quadrature rather than trusted to be zero.
    """
    wlo, whi = dist.quad_window
    tol = 1e-13
    mean = integrate(lambda y: y * dist.density(y), wlo, whi, tol=tol)
    px = float(dist.density(x))
    if px < DENSITY_DIVIDE_FLOOR:
        raise DensityUnderflow(f"density at x={x!r} is {px!r}")
    if x >= whi:
        return 0.0
    num = integrate(lambda y: (y - mean) * dist.density(y), max(x, wlo), whi, tol=tol)
    return num / px
