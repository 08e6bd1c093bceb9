"""Moment toolbox: negative moments via the MGF integral, the normalized
negative-moment trend, and the MGF bound available when the kernel
derivative is almost surely bounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import DistributionSpec
from .errors import InvalidInput, MissingKernelDerivativeBound, NotIntegrable
from .quadrature import integrate, integrate_half_line

# The factor product's local decay exponent is measured between these two
# abscissae.  On the integrability boundary (``n = 2 alpha`` for squares of
# laws with a positive density at 0) the measured exponent lands within
# 1e-4 of ``alpha``, on either side, so the probe refuses every decay
# up to ``alpha * (1 + _PROBE_MARGIN)``.
_PROBE_POINTS = (1e3, 1e6)
_PROBE_MARGIN = 1e-3
# u^(1/alpha) overflows for small alpha, and an MGF at inf gives nan.
_MAX_ABSCISSA = 1e300


@dataclass(frozen=True)
class NegMomentQuery:
    """Negative-moment computation ``E[(Y_1 + ... + Y_m)^-alpha]``.

    ``mgf_factors`` are the maps ``x -> E[exp(-x Y_k)]``; each must equal 1
    at zero and stay at or below 1 for ``x >= 0``.
    """

    alpha: float
    mgf_factors: tuple
    quadrature_tol: float = 1e-10

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidInput("alpha must be positive")
        if not self.mgf_factors:
            raise InvalidInput("need at least one MGF factor")
        for fac in self.mgf_factors:
            at0 = float(np.asarray(fac(np.array([0.0])))[0])
            at1 = float(np.asarray(fac(np.array([1.0])))[0])
            if abs(at0 - 1.0) > 1e-9 or at1 > 1.0 + 1e-9:
                raise InvalidInput(
                    "MGF factors must equal 1 at x=0 and stay <= 1 for x >= 0")


def _log_product(factors, x: float) -> float:
    total = 0.0
    for fac in factors:
        v = float(np.asarray(fac(np.array([x])))[0])
        if v <= 0.0:
            return -math.inf
        total += math.log(v)
    return total


def negative_moment(query: NegMomentQuery) -> float:
    """Evaluate the MGF-integral form of a negative moment.

    Probes the factor product's decay at two large abscissae first; a local
    decay exponent at or below ``alpha`` (up to a relative margin of
    ``_PROBE_MARGIN``) means the integral diverges or sits on the boundary.
    """
    lo, hi = _PROBE_POINTS
    log_lo = _log_product(query.mgf_factors, lo)
    log_hi = _log_product(query.mgf_factors, hi)
    if math.isfinite(log_lo) and math.isfinite(log_hi):
        decay = -(log_hi - log_lo) / (math.log(hi) - math.log(lo))
        if decay <= query.alpha * (1.0 + _PROBE_MARGIN):
            raise NotIntegrable(
                f"factor product decays like x^-{decay:.3f}, need faster "
                f"than x^-{query.alpha:g}")
    alpha = query.alpha
    # Over u = x^p the x^(alpha - 1) singularity at 0 (scaled below the
    # absolute tolerance by 1/Gamma(alpha)) is gone; p = 1 for alpha >= 1.
    p = min(alpha, 1.0)
    log_const = math.lgamma(alpha) + math.log(p)

    def integrand(us):
        us = np.asarray(us, dtype=float)
        out = np.zeros_like(us)
        pos = us > 0.0
        up = us[pos]
        with np.errstate(over="ignore"):
            xp = np.minimum(up ** (1.0 / p), _MAX_ABSCISSA)
        log_prod = np.zeros_like(xp)
        live = np.ones_like(xp, dtype=bool)
        for fac in query.mgf_factors:
            vals = np.asarray(fac(xp), dtype=float)
            live &= vals > 0.0
            with np.errstate(divide="ignore"):
                log_prod = np.where(live, log_prod + np.log(np.where(vals > 0, vals, 1.0)), -np.inf)
        out[pos] = np.exp((alpha - p) / p * np.log(up) + log_prod - log_const)
        return out

    return integrate_half_line(integrand, tol=query.quadrature_tol)


def _square_peak_breaks(v):
    """``exp(-v y^2)`` is a peak of width ``1/sqrt(v)`` at 0, which a single
    window integral misses once ``v`` is large: split around it."""
    if v <= 0.0:
        return (0.0,)
    r = 10.0 / math.sqrt(v)
    return (-r, 0.0, r)


def _quadrature_mgf(dist: DistributionSpec, exponent: Callable, tol: float,
                    breaks: Callable = lambda v: ()):
    """MGF ``x -> E[exp(exponent(x, X))]`` of a law given by its density.

    Each abscissa ``v`` costs one adaptive integral over
    ``dist.quad_window``, split at the points of ``breaks(v)`` inside it.
    The values of the last 8 abscissa arrays are kept, keyed by the bytes
    of the array, so the ``n`` identical factors of a negative-moment query
    integrate each abscissa once.  Array calls return the cached arrays,
    which are read-only.
    """
    wlo, whi = dist.quad_window

    def value(v):
        edges = [wlo, *sorted(b for b in breaks(v) if wlo < b < whi), whi]
        return sum(integrate(lambda y: np.exp(exponent(v, y)) * dist.density(y),
                             a, b, tol=tol)
                   for a, b in zip(edges, edges[1:]))

    @functools.lru_cache(maxsize=8)
    def values(key: bytes) -> np.ndarray:
        vals = np.array([value(v) for v in np.frombuffer(key)])
        vals.setflags(write=False)
        return vals

    def mgf(x):
        vals = values(np.atleast_1d(np.asarray(x, dtype=float)).tobytes())
        return vals if np.ndim(x) else float(vals[0])

    return mgf


@dataclass(frozen=True)
class NonnegativeLaw:
    """A nonnegative law with unit mean, described through its MGF."""

    name: str
    mgf: Callable

    @classmethod
    def constant(cls, c: float = 1.0) -> "NonnegativeLaw":
        if c <= 0:
            raise InvalidInput("constant law must be positive")
        return cls(name=f"constant({c:g})",
                   mgf=lambda x: np.exp(-c * np.asarray(x, dtype=float)))

    @classmethod
    def square_of(cls, dist: DistributionSpec, *, tol=1e-12) -> "NonnegativeLaw":
        """Law of ``X^2`` for a standardized input (so ``E[X^2] = 1``)."""
        if dist.name == "gaussian":
            return cls(name="gaussian_square",
                       mgf=lambda x: (1.0 + 2.0 * np.asarray(x, dtype=float)) ** -0.5)
        return cls(name=f"square_of({dist.name})",
                   mgf=_quadrature_mgf(dist, lambda v, y: -v * y * y, tol,
                                       _square_peak_breaks))

    @classmethod
    def kernel_of(cls, dist: DistributionSpec, *, tol=1e-12) -> "NonnegativeLaw":
        """Law of ``tau(X)``, which has unit mean for standardized inputs."""
        return cls(name=f"kernel_of({dist.name})",
                   mgf=_quadrature_mgf(dist, lambda v, y: -v * dist.tau(y), tol))


@dataclass(frozen=True)
class TrendPoint:
    n: int
    value: Optional[float]
    note: str = ""


def ujmld_trend(law: NonnegativeLaw, alpha: float, n_grid,
                *, quadrature_tol=1e-10) -> list:
    """Normalized trend ``n^alpha E[(Y_1 + ... + Y_n)^-alpha]`` over a grid.

    Grid points where the integral diverges are skipped with a note instead
    of aborting the whole trend.
    """
    points = []
    for n in n_grid:
        n = int(n)
        query = NegMomentQuery(alpha=alpha, mgf_factors=(law.mgf,) * n,
                               quadrature_tol=quadrature_tol)
        try:
            value = negative_moment(query) * float(n) ** alpha
            points.append(TrendPoint(n=n, value=value))
        except NotIntegrable as exc:
            points.append(TrendPoint(n=n, value=None, note=str(exc)))
    return points


@dataclass(frozen=True)
class MgfCheckPoint:
    x: float
    lhs: float
    rhs: float
    ok: bool


def mgf_bound_check(dist: DistributionSpec, x_grid, *, c: Optional[float] = None,
                    tol=1e-12) -> list:
    """Check ``E[exp(-x tau(X))] <= (1 + x c^2)^(-1/c^2)`` pointwise.

    ``c`` defaults to the catalog bound on ``|tau'|``; without a positive
    bound the criterion does not apply.  Points are reported, never
    asserted, so out-of-contract inputs simply show ``ok=False``.
    """
    if c is None:
        c = dist.kernel_form.tau_prime_bound
    if c is None or c <= 0.0:
        raise MissingKernelDerivativeBound(
            f"{dist.name} has no positive kernel-derivative bound; supply c")
    xs = np.fromiter(x_grid, dtype=float)
    lhs_values = NonnegativeLaw.kernel_of(dist, tol=tol).mgf(xs)
    out = []
    for x, lhs in zip(xs, lhs_values):
        x, lhs = float(x), float(lhs)
        rhs = (1.0 + x * c * c) ** (-1.0 / (c * c))
        out.append(MgfCheckPoint(x=x, lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-10))
    return out
