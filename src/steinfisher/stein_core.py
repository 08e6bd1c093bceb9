"""Operator toolbox: covariance identity and the quadrature oracles the
test suite uses as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .errors import DensityUnderflow
from .quadrature import integrate

DENSITY_DIVIDE_FLOOR = 1e-300


@dataclass(frozen=True)
class CovarianceCheckReport:
    """Both sides of the covariance identity, with their gap recorded."""

    lhs: float
    rhs: float
    abs_diff: float


def covariance_formula_check(dist: DistributionSpec, alpha, alpha_prime, beta,
                             *, tol=1e-10, inner_tol=None) -> CovarianceCheckReport:
    """Check Cov(alpha(X), beta(X)) against the integrated-by-parts form.

    ``lhs`` integrates ``alpha * (beta - E beta) * p`` directly; ``rhs``
    integrates ``alpha'(x)`` against the tail integral of the centered
    ``beta``, each by independent adaptive quadrature.
    """
    wlo, whi = dist.quad_window
    p = dist.density
    it = tol if inner_tol is None else inner_tol
    e_beta = integrate(lambda y: beta(y) * p(y), wlo, whi, tol=tol)
    lhs = integrate(lambda x: alpha(x) * (beta(x) - e_beta) * p(x),
                    wlo, whi, tol=tol)

    def tail(x: float) -> float:
        if x >= whi:
            return 0.0
        return integrate(lambda y: (beta(y) - e_beta) * p(y), x, whi, tol=it)

    def outer(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        tails = np.array([tail(float(v)) for v in xs])
        return alpha_prime(xs) * tails

    rhs = integrate(outer, wlo, whi, tol=tol)
    return CovarianceCheckReport(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs))


def tau_by_quadrature(dist: DistributionSpec, x: float, *, tol=1e-13) -> float:
    """Stein kernel at ``x`` straight from its defining tail integral.

    Used as the independent oracle against closed-form kernels; the mean is
    itself recomputed by quadrature rather than trusted to be zero.
    """
    wlo, whi = dist.quad_window
    mean = integrate(lambda y: y * dist.density(y), wlo, whi, tol=tol)
    px = float(dist.density(x))
    if px < DENSITY_DIVIDE_FLOOR:
        raise DensityUnderflow(f"density at x={x!r} is {px!r}")
    if x >= whi:
        return 0.0
    num = integrate(lambda y: (y - mean) * dist.density(y), max(x, wlo), whi, tol=tol)
    return num / px
