"""Moment toolbox: negative moments ``E[(Y_1 + ... + Y_m)^-alpha]`` via
the MGF integral, and the MGF-described nonnegative laws they are taken of.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DistributionSpec, _erf, _erfc_far, _erfc_near
from .errors import InvalidInput, NotIntegrable
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
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)


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
        if not 0.0 < self.alpha < math.inf:
            raise InvalidInput(
                f"alpha must be finite and positive, got {self.alpha!r}")
        if not self.mgf_factors:
            raise InvalidInput("need at least one MGF factor")
        for fac in self.mgf_factors:
            at0 = float(np.asarray(fac(np.array([0.0])))[0])
            at1 = float(np.asarray(fac(np.array([1.0])))[0])
            if abs(at0 - 1.0) > 1e-9 or at1 > 1.0 + 1e-9:
                raise InvalidInput(
                    "MGF factors must equal 1 at x=0 and stay <= 1 for x >= 0")


def _log_product(factors, xs: np.ndarray) -> np.ndarray:
    """``sum_k log factor_k(xs)`` at each abscissa, -inf once a factor is
    at or below 0.

    A run of consecutive identical factors (the ``(law.mgf,) * n`` of a
    sum of ``n`` copies of one law) is evaluated once, and its log added
    once per factor, in order, so the sum has the bits of ``n`` separate
    calls whether the factors are one object or ``n`` wrappers of it.
    """
    log_prod = np.zeros_like(xs)
    live = np.ones_like(xs, dtype=bool)
    for _, run in itertools.groupby(factors, key=id):
        run = list(run)
        vals = np.asarray(run[0](xs), dtype=float)
        live &= vals > 0.0
        with np.errstate(divide="ignore"):
            log_vals = np.log(np.where(vals > 0, vals, 1.0))
        for _ in run:
            log_prod = np.where(live, log_prod + log_vals, -np.inf)
    return log_prod


def negative_moment(query: NegMomentQuery) -> float:
    """Evaluate the MGF-integral form of a negative moment.

    Probes the factor product's decay at two large abscissae first; a local
    decay exponent at or below ``alpha`` (up to a relative margin of
    ``_PROBE_MARGIN``) means the integral diverges or sits on the boundary.
    Otherwise the value is :func:`mgf_integral`'s at the measured decay,
    or at an infinite one when the product has fallen to 0 by the probe.
    """
    lo, hi = _PROBE_POINTS
    log_lo, log_hi = _log_product(query.mgf_factors, np.array(_PROBE_POINTS))
    decay = math.inf
    if math.isfinite(log_lo) and math.isfinite(log_hi):
        decay = -(log_hi - log_lo) / (math.log(hi) - math.log(lo))
        if decay <= query.alpha * (1.0 + _PROBE_MARGIN):
            raise NotIntegrable(
                f"factor product decays like x^-{decay:.3f}, need faster "
                f"than x^-{query.alpha:g}")
    return mgf_integral(query, decay)


def mgf_integral(query: NegMomentQuery, decay: float = math.inf) -> float:
    """The negative moment ``Gamma(alpha)^-1 int_0^inf x^(alpha - 1)
    prod_k factor_k(x) dx`` without the decay probe, for callers that know
    the integral converges and that the factor product decays like
    ``x^-decay``, ``decay > alpha``."""
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
        log_prod = _log_product(query.mgf_factors, xp)
        out[pos] = np.exp((alpha - p) / p * np.log(up) + log_prod - log_const)
        return out

    # Over u the integrand decays like u^-(1 + (decay - alpha) / p), which
    # the half-line map of power k keeps bounded once k >= p / (decay - alpha).
    ratio = p / (decay - alpha)
    power = 3 if ratio <= 3.0 else math.ceil(ratio) + 1
    return integrate_half_line(integrand, tol=query.quadrature_tol, power=power)


def _square_peak_breaks(v):
    """``exp(-v y^2)`` is a peak of width ``1/sqrt(v)`` at 0, which a single
    window integral misses once ``v`` is large: split around it."""
    if v <= 0.0:
        return (0.0,)
    r = 10.0 / math.sqrt(v)
    return (-r, 0.0, r)


def _cached_mgf(values: Callable):
    """The MGF ``x -> values(x)`` of an array function ``values``.

    The values of the last 8 abscissa arrays are kept, keyed by the bytes
    of the array, so the ``n`` factors of a negative-moment query, or ``n``
    wrappers of one factor, evaluate each abscissa array once.  Array calls
    return the cached arrays, which are read-only.
    """
    @functools.lru_cache(maxsize=8)
    def cached(key: bytes) -> np.ndarray:
        vals = np.asarray(values(np.frombuffer(key)), dtype=float)
        vals.setflags(write=False)
        return vals

    def mgf(x):
        vals = cached(np.atleast_1d(np.asarray(x, dtype=float)).tobytes())
        return vals if np.ndim(x) else float(vals[0])

    return mgf


def _quadrature_mgf(dist: DistributionSpec, exponent: Callable,
                    breaks: Callable = lambda v: ()):
    """Cached MGF ``x -> E[exp(exponent(x, X))]`` of a law given by its
    density: ``square_of`` for inputs other than gaussian and uniform,
    whose squares have closed forms, and every ``kernel_of``.

    Each abscissa ``v`` costs one adaptive integral (tolerance 1e-12) over
    ``dist.quad_window``, split at the points of ``breaks(v)`` inside it;
    :func:`_cached_mgf` keeps the values.
    """
    wlo, whi = dist.quad_window

    def value(v):
        edges = [wlo, *sorted(b for b in breaks(v) if wlo < b < whi), whi]
        return sum(integrate(lambda y: np.exp(exponent(v, y)) * dist.density(y),
                             a, b, tol=1e-12)
                   for a, b in zip(edges, edges[1:]))

    return _cached_mgf(lambda vs: np.array([value(v) for v in vs]))


def _uniform_square_mgf(v):
    """``E[exp(-v X^2)]`` for ``X`` uniform on ``[-sqrt3, sqrt3]``, ``v >= 0``:
    ``sqrt(pi / (12 v)) erf(sqrt(3 v))``, which is ``sqrt(pi) / 2`` times
    ``erf(z) / z`` at ``z = sqrt(3 v)``.

    Below ``z = 1`` the cephes ratio for ``erf`` keeps full relative
    precision as ``v -> 0``; above it ``erf`` is one minus cephes ``erfc``.
    Exactly 1 at ``v = 0``; nan stays nan.
    """
    z = np.sqrt(3.0 * np.asarray(v, dtype=float))
    out = np.where(z == 0.0, 1.0, np.nan)
    for mask, erf in (((0.0 < z) & (z < 1.0), _erf),
                      ((1.0 <= z) & (z < 8.0), lambda t: 1.0 - _erfc_near(t)),
                      (z >= 8.0, lambda t: 1.0 - _erfc_far(t))):
        if mask.any():
            t = z[mask]
            out[mask] = _HALF_SQRT_PI * erf(t) / t
    return out


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
    def square_of(cls, dist: DistributionSpec) -> "NonnegativeLaw":
        """Law of ``X^2`` for a standardized input (so ``E[X^2] = 1``).

        The MGF is a closed form for gaussian and uniform inputs, and a
        cached quadrature (:func:`_quadrature_mgf`) for any other law.
        """
        if dist.name == "gaussian":
            return cls(name="gaussian_square",
                       mgf=lambda x: (1.0 + 2.0 * np.asarray(x, dtype=float)) ** -0.5)
        if dist.name == "uniform":
            return cls(name="uniform_square", mgf=_cached_mgf(_uniform_square_mgf))
        return cls(name=f"square_of({dist.name})",
                   mgf=_quadrature_mgf(dist, lambda v, y: -v * y * y,
                                       _square_peak_breaks))

    @classmethod
    def kernel_of(cls, dist: DistributionSpec) -> "NonnegativeLaw":
        """Law of ``tau(X)``, which has unit mean for standardized inputs."""
        return cls(name=f"kernel_of({dist.name})",
                   mgf=_quadrature_mgf(dist, lambda v, y: -v * dist.tau(y)))
