"""Catalog of standardized input laws with their Stein kernels.

Every catalog entry has mean 0 and variance 1, a differentiable density on a
connected support, a closed-form Stein kernel ``tau`` with derivative, an
inverse-CDF or composition sampler driven by an explicit stream, and the
8th absolute moment.  Entries are immutable and safe to share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import MomentConditionViolated, NotInCatalog
from .quadrature import density_window

CHUNK = 16384  # draws per block in every chunked draw loop

_SQRT3 = math.sqrt(3.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SteinKernelForm:
    """Closed-form Stein kernel ``tau`` and its derivative.

    ``tau_prime_bound`` is an almost-sure bound ``c`` with ``|tau'| <= c``
    when one exists.
    """

    tau: Callable
    tau_prime: Callable
    tau_prime_bound: Optional[float] = None


@dataclass(frozen=True)
class DistributionSpec:
    """A standardized univariate law and everything the estimators need.

    ``sampler(stream, size=None)`` consumes the supplied generator only;
    there is no hidden state, so specs are shareable across threads.
    ``quad_window`` is the finite interval on which the density stays above
    the default ``floor`` of :func:`~steinfisher.quadrature.density_window`;
    all quadratures truncate to it.
    """

    name: str
    support: tuple
    density: Callable
    log_density_derivative: Callable
    sampler: Callable
    kernel_form: SteinKernelForm
    moment8: float
    cdf: Callable
    quad_window: tuple

    @property
    def tau(self):
        return self.kernel_form.tau

    @property
    def tau_prime(self):
        return self.kernel_form.tau_prime


def _gaussian() -> DistributionSpec:
    def density(x):
        x = np.asarray(x, dtype=float)
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)

    return DistributionSpec(
        name="gaussian",
        support=(-math.inf, math.inf),
        density=density,
        log_density_derivative=lambda x: -np.asarray(x, dtype=float),
        sampler=lambda stream, size=None: stream.standard_normal(size),
        kernel_form=SteinKernelForm(
            tau=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            tau_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            tau_prime_bound=0.0,
        ),
        moment8=105.0,
        cdf=lambda x: special.ndtr(np.asarray(x, dtype=float)),
        quad_window=density_window(density, (-math.inf, math.inf)),
    )


def _uniform() -> DistributionSpec:
    lo, hi = -_SQRT3, _SQRT3
    pdf_val = 1.0 / (2.0 * _SQRT3)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), pdf_val, 0.0)

    def sampler(stream, size=None):
        return lo + (hi - lo) * stream.random(size)

    return DistributionSpec(
        name="uniform",
        support=(lo, hi),
        density=density,
        log_density_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sampler=sampler,
        kernel_form=SteinKernelForm(
            tau=lambda x: 0.5 * (3.0 - np.square(np.asarray(x, dtype=float))),
            tau_prime=lambda x: -np.asarray(x, dtype=float),
            tau_prime_bound=_SQRT3,
        ),
        moment8=9.0,
        cdf=lambda x: np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0),
        quad_window=(lo, hi),
    )


def _exponential_centered() -> DistributionSpec:
    def density(y):
        y = np.asarray(y, dtype=float)
        return np.where(y >= -1.0, np.exp(-np.clip(y + 1.0, 0.0, None)), 0.0)

    def sampler(stream, size=None):
        return -np.log1p(-stream.random(size)) - 1.0

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y >= -1.0, -np.expm1(-np.clip(y + 1.0, 0.0, None)), 0.0)

    return DistributionSpec(
        name="exponential_centered",
        support=(-1.0, math.inf),
        density=density,
        log_density_derivative=lambda y: -np.ones_like(np.asarray(y, dtype=float)),
        sampler=sampler,
        kernel_form=SteinKernelForm(
            tau=lambda y: np.asarray(y, dtype=float) + 1.0,
            tau_prime=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            tau_prime_bound=1.0,
        ),
        moment8=14833.0,  # E[(Exp(1) - 1)^8], the 8th derangement number
        cdf=cdf,
        quad_window=density_window(density, (-1.0, math.inf)),
    )


def _student_t(beta: float) -> DistributionSpec:
    if beta <= 16.0:
        raise MomentConditionViolated(
            f"student_t requires beta > 16 for finite 8th kernel moments, got {beta}")
    scale = math.sqrt((beta - 2.0) / beta)
    log_norm = (special.gammaln((beta + 1.0) / 2.0)
                - special.gammaln(beta / 2.0)
                - 0.5 * math.log(beta * math.pi))

    def density(x):
        t = np.asarray(x, dtype=float) / scale
        return np.exp(log_norm - 0.5 * (beta + 1.0) * np.log1p(t * t / beta)) / scale

    def score(x):
        x = np.asarray(x, dtype=float)
        return -(beta + 1.0) * x / (x * x + beta - 2.0)

    def sampler(stream, size=None):
        z = stream.standard_normal(size)
        v = stream.chisquare(beta, size)
        return z * np.sqrt((beta - 2.0) / v)

    moment8 = (105.0 * (beta - 2.0) ** 3
               / ((beta - 4.0) * (beta - 6.0) * (beta - 8.0)))
    return DistributionSpec(
        name=f"student_t({beta:g})",
        support=(-math.inf, math.inf),
        density=density,
        log_density_derivative=score,
        sampler=sampler,
        kernel_form=SteinKernelForm(
            tau=lambda x: (np.square(np.asarray(x, dtype=float)) + beta - 2.0) / (beta - 1.0),
            tau_prime=lambda x: 2.0 * np.asarray(x, dtype=float) / (beta - 1.0),
            tau_prime_bound=None,
        ),
        moment8=moment8,
        cdf=lambda x: special.stdtr(beta, np.asarray(x, dtype=float) / scale),
        quad_window=density_window(density, (-math.inf, math.inf)),
    )


_STUDENT_RE = re.compile(r"^student_t\(\s*([-+0-9.eE]+)\s*\)$")
_CACHE: dict = {}


def catalog_get(name: str) -> DistributionSpec:
    """Look up a standardized law by its stable catalog name.

    Known names: ``gaussian``, ``uniform``, ``exponential_centered`` and
    ``student_t(beta)`` with ``beta > 16``.
    """
    key = name.strip()
    if key in _CACHE:
        return _CACHE[key]
    if key == "gaussian":
        spec = _gaussian()
    elif key == "uniform":
        spec = _uniform()
    elif key == "exponential_centered":
        spec = _exponential_centered()
    else:
        m = _STUDENT_RE.match(key)
        if m is None:
            raise NotInCatalog(f"unknown distribution {name!r}")
        spec = _student_t(float(m.group(1)))
    _CACHE[key] = spec
    return spec


def sample_columns(dists, stream, m: int) -> np.ndarray:
    """Draw an ``(m, n)`` matrix whose column ``k`` follows ``dists[k]``.

    Columns are drawn sequentially from the single supplied stream, so the
    result is reproducible for a fixed ``(dists, stream state)``.  The block
    is coordinate-major: it is the transpose of a C-order ``(n, m)`` buffer,
    so each column's ``m`` draws are contiguous.
    """
    n = len(dists)
    out = np.empty((n, m), dtype=float)
    for k, dist in enumerate(dists):
        out[k] = dist.sampler(stream, m)
    return out.T


def kernel_columns(dists, x: np.ndarray):
    """Stein kernels ``(tau, tau')`` of column ``k`` of ``x`` under ``dists[k]``.

    Each run of consecutive identical specs is evaluated by one ``tau`` and
    one ``tau_prime`` call on its 2-D slice of columns; the kernels are
    elementwise, so the values are those of a column-by-column evaluation.
    Both results keep the memory layout of ``x``, so a coordinate-major
    block gives coordinate-major kernels.
    """
    tau = np.empty_like(x)
    taup = np.empty_like(x)
    start = 0
    for stop in range(1, len(dists) + 1):
        if stop < len(dists) and dists[stop] is dists[start]:
            continue
        dist, cols = dists[start], x[:, start:stop]
        tau[:, start:stop] = dist.tau(cols)
        taup[:, start:stop] = dist.tau_prime(cols)
        start = stop
    return tau, taup


def chunk_sizes(reps: int, size: int = CHUNK) -> list:
    """Block sizes splitting ``reps`` draws into full blocks and a remainder.

    Every chunked draw (and every CLI shard) follows this split, so the
    stream order, and with it each draw, is fixed by ``(reps, size)``.
    """
    reps = int(reps)
    sizes = [size] * (reps // size)
    if reps % size:
        sizes.append(reps % size)
    return sizes
