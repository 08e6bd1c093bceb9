"""Catalog of standardized input laws with their Stein kernels.

Every catalog entry has mean 0 and variance 1, a differentiable density on a
connected support, a closed-form Stein kernel ``tau`` with derivative, and
an inverse-CDF or composition sampler driven by an explicit stream.
Entries are immutable and safe to share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInput, MomentConditionViolated, NotInCatalog

CHUNK = 16384  # draws per block in every chunked draw loop
DENSITY_FLOOR = 1e-16  # quad_window ends where the density falls to this

_SQRT3 = math.sqrt(3.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes erf (|x| < 1) and erfc (1 <= x < 8) rational approximations,
# highest degree first; each denominator's leading 1 is implicit, as in
# cephes's p1evl.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_MAXLOG = 7.09782712893383996843e2  # erfc(z) is 0 once z^2 exceeds this
_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _poly(x, coeffs, monic=False):
    """Horner value of a polynomial, with an implicit leading 1 if monic."""
    acc = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
    return acc


def _erf(x):
    """cephes erf on |x| < 1."""
    xx = x * x
    return x * _poly(xx, _ERF_T) / _poly(xx, _ERF_U, monic=True)


def _erfc_near(z):
    """cephes erfc on 1 <= z < 8."""
    return np.exp(-z * z) * _poly(z, _ERFC_P) / _poly(z, _ERFC_Q, monic=True)


def _erfc_far(z):
    """erfc on z >= 8, with cephes's cutoff: 0 once z^2 > MAXLOG.

    ``exp(-z^2)`` times a 12-term Laplace continued fraction for
    ``erfcx``, within 1 ulp of it on [8, 27]; cephes's own rational tail
    is 7e-14 off there.  nan stays nan.
    """
    z = np.minimum(z, 27.0)  # erfc is 0 past 27; keeps z * z finite
    zz = z * z
    t = z
    for k in range(12, 0, -1):
        t = z + 0.5 * k / t
    return np.where(zz > _MAXLOG, 0.0, np.exp(-zz) * (_INV_SQRT_PI / t))


def _reflected(erfc):
    """ndtr off the centre from erfc(|x|): half of it, or 1 minus that."""
    def piece(x):
        half = 0.5 * erfc(np.abs(x))
        return np.where(x > 0.0, 1.0 - half, half)
    return piece


def ndtr(a):
    """Standard normal CDF by the cephes ``ndtr`` algorithm, in numpy.

    ``0.5 + 0.5 erf(a/sqrt2)`` where ``|a| < 1``, else ``0.5 erfc(|a|/sqrt2)``
    reflected for positive ``a``, so the far tails are exactly 0 and 1 once
    ``a^2/2 > MAXLOG``.  Agrees with ``scipy.special.ndtr`` to 1e-15
    relative (1.2e-15 below ``a = -8 sqrt2``); nan stays nan.  Each piece
    runs only on the entries in its range.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    centre, below_1, below_8 = z < _SQRT1_2, z < 1.0, z < 8.0
    y = np.empty_like(x)
    for mask, piece in ((centre, lambda v: 0.5 + 0.5 * _erf(v)),
                        (below_1 & ~centre, _reflected(lambda v: 1.0 - _erf(v))),
                        (below_8 & ~below_1, _reflected(_erfc_near)),
                        (~below_8, _reflected(_erfc_far))):  # nan included
        if mask.any():
            y[mask] = piece(x[mask])
    return y[()]


def scratch_ufunc(ufunc, x):
    """``ufunc(x)`` in a new float array, 0-d for a scalar ``x``, so that a
    kernel can finish its value in place and return it with ``[()]``."""
    x = np.asarray(x, dtype=float)
    return ufunc(x, out=np.empty_like(x))


@dataclass(frozen=True)
class SteinKernelForm:
    """Closed-form Stein kernel ``tau`` and its derivative.

    Each takes an array and returns a new float array of its shape, which
    the caller may write.
    ``pearson`` is the standardized Pearson pair ``(b, c)`` with
    ``tau(x) = 1 + b x + c (x^2 - 1)``: a constant kernel when both are 0,
    an affine one, ``tau' = b``, when only ``c`` is.
    ``tau_prime_bound`` is an almost-sure bound ``c`` with ``|tau'| <= c``
    when one exists.
    """

    tau: Callable
    tau_prime: Callable
    pearson: tuple
    tau_prime_bound: Optional[float] = None


@dataclass(frozen=True)
class DistributionSpec:
    """A standardized univariate law and everything the estimators need.

    ``sampler(stream, size=None)`` consumes the supplied generator only;
    there is no hidden state, so specs are shareable across threads.
    ``quad_window`` is the finite interval on which the density stays above
    ``DENSITY_FLOOR``, solved in closed form per law; all quadratures
    truncate to it.
    """

    name: str
    density: Callable
    log_density_derivative: Callable
    sampler: Callable
    kernel_form: SteinKernelForm
    cdf: Callable
    quad_window: tuple

    @property
    def tau(self):
        return self.kernel_form.tau

    @property
    def tau_prime(self):
        return self.kernel_form.tau_prime


def _gaussian() -> DistributionSpec:
    edge = math.sqrt(-2.0 * math.log(DENSITY_FLOOR * math.sqrt(2.0 * math.pi)))

    def density(x):
        x = np.asarray(x, dtype=float)
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)

    return DistributionSpec(
        name="gaussian",
        density=density,
        log_density_derivative=lambda x: -np.asarray(x, dtype=float),
        sampler=lambda stream, size=None: stream.standard_normal(size),
        kernel_form=SteinKernelForm(
            tau=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            tau_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            pearson=(0.0, 0.0),
            tau_prime_bound=0.0,
        ),
        cdf=ndtr,
        quad_window=(-edge, edge),
    )


def _uniform() -> DistributionSpec:
    lo, hi = -_SQRT3, _SQRT3
    pdf_val = 1.0 / (2.0 * _SQRT3)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), pdf_val, 0.0)

    def sampler(stream, size=None):
        # lo + (hi - lo) u, in the generator's buffer
        u = np.asarray(stream.random(size))
        u *= hi - lo
        u += lo
        return u[()]

    def tau(x):
        t = scratch_ufunc(np.square, x)
        np.subtract(3.0, t, out=t)
        t *= 0.5
        return t[()]

    return DistributionSpec(
        name="uniform",
        density=density,
        log_density_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sampler=sampler,
        kernel_form=SteinKernelForm(
            tau=tau,
            tau_prime=lambda x: -np.asarray(x, dtype=float),
            pearson=(0.0, -0.5),
            tau_prime_bound=_SQRT3,
        ),
        cdf=lambda x: np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0),
        quad_window=(lo, hi),
    )


def _exponential_centered() -> DistributionSpec:
    def density(y):
        y = np.asarray(y, dtype=float)
        return np.where(y >= -1.0, np.exp(-np.clip(y + 1.0, 0.0, None)), 0.0)

    def sampler(stream, size=None):
        # -log1p(-u) - 1, in the generator's buffer
        u = np.asarray(stream.random(size))
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.subtract(-1.0, u, out=u)
        return u[()]

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y >= -1.0, -np.expm1(-np.clip(y + 1.0, 0.0, None)), 0.0)

    return DistributionSpec(
        name="exponential_centered",
        density=density,
        log_density_derivative=lambda y: -np.ones_like(np.asarray(y, dtype=float)),
        sampler=sampler,
        kernel_form=SteinKernelForm(
            tau=lambda y: np.asarray(y, dtype=float) + 1.0,
            tau_prime=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            pearson=(1.0, 0.0),
            tau_prime_bound=1.0,
        ),
        cdf=cdf,
        quad_window=(-1.0, -1.0 - math.log(DENSITY_FLOOR)),
    )


def _student_t(beta: float) -> DistributionSpec:
    if not 16.0 < beta < math.inf:
        raise MomentConditionViolated(
            f"student_t requires a finite beta > 16 for finite 8th kernel "
            f"moments, got {beta}")
    # Only student_t laws need scipy, so only they pay for importing it.
    from scipy import special

    scale = math.sqrt((beta - 2.0) / beta)
    # 1 / (B(beta/2, 1/2) sqrt(beta)).  From beta = 1e3 on, betaln is off by
    # up to 3e-10 and the Stirling series of the gamma ratio is exact to
    # rounding; its cubic term divides by beta one factor at a time, since
    # beta**3 overflows past 1e103.
    if beta < 1e3:
        log_norm = -float(special.betaln(beta / 2.0, 0.5)) - 0.5 * math.log(beta)
    else:
        log_norm = (-0.5 * math.log(2.0 * math.pi) - 0.25 / beta
                    + 1.0 / (24.0 * beta) / beta / beta)

    def density(x):
        t = np.asarray(x, dtype=float) / scale
        return np.exp(log_norm - 0.5 * (beta + 1.0) * np.log1p(t * t / beta)) / scale

    def score(x):
        x = np.asarray(x, dtype=float)
        return -(beta + 1.0) * x / (x * x + beta - 2.0)

    def sampler(stream, size=None):
        # z sqrt((beta - 2) / v), in the generators' buffers
        z = np.asarray(stream.standard_normal(size))
        v = np.asarray(stream.chisquare(beta, size))
        np.divide(beta - 2.0, v, out=v)
        np.sqrt(v, out=v)
        z *= v
        return z[()]

    def tau(x):
        t = scratch_ufunc(np.square, x)
        t += beta
        t -= 2.0
        t /= beta - 1.0
        return t[()]

    edge = scale * math.sqrt(beta * math.expm1(
        2.0 * (log_norm - math.log(DENSITY_FLOOR * scale)) / (beta + 1.0)))
    return DistributionSpec(
        name=f"student_t({beta:g})",
        density=density,
        log_density_derivative=score,
        sampler=sampler,
        kernel_form=SteinKernelForm(
            tau=tau,
            tau_prime=lambda x: 2.0 * np.asarray(x, dtype=float) / (beta - 1.0),
            pearson=(0.0, 1.0 / (beta - 1.0)),
            tau_prime_bound=None,
        ),
        cdf=lambda x: special.stdtr(beta, np.asarray(x, dtype=float) / scale),
        quad_window=(-edge, edge),
    )


_STUDENT_RE = re.compile(r"^student_t\(\s*([-+0-9.eE]+)\s*\)$")
_CACHE: dict = {}


def catalog_get(name: str) -> DistributionSpec:
    """Look up a standardized law by its stable catalog name.

    Known names: ``gaussian``, ``uniform``, ``exponential_centered`` and
    ``student_t(beta)`` with a finite ``beta > 16``.
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


def column_runs(dists) -> tuple:
    """``(start, stop)`` of each run of consecutive identical specs.

    :func:`sample_columns` and :func:`kernel_columns` take these as
    ``runs``; a caller that draws the same laws block after block computes
    them once and passes them in.
    """
    runs, start = [], 0
    for stop in range(1, len(dists) + 1):
        if stop == len(dists) or dists[stop] is not dists[start]:
            runs.append((start, stop))
            start = stop
    return tuple(runs)


def sample_columns(dists, stream, m: int, runs=None) -> np.ndarray:
    """Draw an ``(m, n)`` matrix whose column ``k`` follows ``dists[k]``.

    Each run of consecutive identical specs is drawn by one
    ``sampler(stream, (rows, m))`` call, in column order from the single
    supplied stream, so the result is reproducible for a fixed
    ``(dists, stream state)``.  The uniform, exponential and gaussian
    samplers take one stream value per draw in C order, so for them this
    is the column-by-column draw; ``student_t`` draws all of a run's
    normals before its chi-squares.  The block is coordinate-major: it is
    the transpose of a C-order ``(n, m)`` buffer, so each column's ``m``
    draws are contiguous.  When ``dists`` is one run, that buffer is the
    sampler's own.  ``runs`` is ``column_runs(dists)``, computed here when
    not given.
    """
    if runs is None:
        runs = column_runs(dists)
    if len(runs) == 1:
        return np.asarray(dists[0].sampler(stream, (len(dists), m)),
                          dtype=float).T
    out = np.empty((len(dists), m), dtype=float)
    for start, stop in runs:
        out[start:stop] = dists[start].sampler(stream, (stop - start, m))
    return out.T


def kernel_columns(dists, x: np.ndarray, runs=None):
    """Stein kernels ``(tau, tau')`` of row ``k`` of ``x`` under ``dists[k]``.

    ``x`` is a coordinate-major ``(n, s)`` block: one row per coordinate.
    Each run of consecutive identical specs is evaluated by one ``tau`` and
    one ``tau_prime`` call on its 2-D slice of rows; the kernels are
    elementwise, so the values are those of a row-by-row evaluation.  The
    arrays are new, so the caller may write them; when ``dists`` is one
    run, they are the law's own results.  ``runs`` is
    ``column_runs(dists)``, computed here when not given.
    """
    if runs is None:
        runs = column_runs(dists)
    if len(runs) == 1:
        return dists[0].tau(x), dists[0].tau_prime(x)
    tau = np.empty_like(x)
    taup = np.empty_like(x)
    for start, stop in runs:
        dist, rows = dists[start], x[start:stop]
        tau[start:stop] = dist.tau(rows)
        taup[start:stop] = dist.tau_prime(rows)
    return tau, taup


def draw_count(reps) -> int:
    """``reps`` as a number of draws: an integer (numpy's included, a bool
    not) of at least one."""
    if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)):
        raise InvalidInput(f"reps must be an integer, got {reps!r}")
    if reps < 1:
        raise InvalidInput(f"need at least one draw, got reps = {reps}")
    return int(reps)


def chunk_sizes(reps: int, size: int = CHUNK) -> list:
    """Block sizes splitting ``reps`` draws into full blocks and a remainder.

    Every chunked draw (and every CLI shard) follows this split, so the
    stream order, and with it each draw, is fixed by ``(reps, size)``.
    ``reps`` is checked by :func:`draw_count`.
    """
    reps = draw_count(reps)
    sizes = [size] * (reps // size)
    if reps % size:
        sizes.append(reps % size)
    return sizes
