"""Smooth functions of sample means: ``F = sqrt(n) (H(Xbar) - E[H(Xbar)])``.

The score representation for this family compares ``F`` with the linear
statistic ``sum_k g_k(X_k)``, ``g_k(x) = H'(0) x / (sigma sqrt(n))``, whose
normalizer ``nabla`` has the closed form ``H'(0) H'(Xbar) mean(tau_k) /
sigma^2``.  The linear case recovers the normalized sum ``S_n`` and also
exposes the classic score-sum representation for comparison.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# bench/tracing.py wraps the ``sample_columns`` binding; no draw here calls it.
from .distributions import (chunk_sizes, draw_count, sample_columns,
                            scratch_ufunc)
from .errors import DegenerateVariance, InvalidInput
from .estimate import ScoreSample, readout_models, reduce_draw


@dataclass(frozen=True)
class SmoothLink:
    """Twice differentiable link with bounded derivatives and H'(0) != 0.

    ``jet(x)`` returns ``(H(x), H'(x), H''(x))`` for a float or an array,
    computing each transcendental once.  Each value is a new array the
    caller may write, except that the identity's ``H`` is its input.
    """

    name: str
    jet: Callable

    def __post_init__(self):
        if self.h_prime_at_0 == 0.0:
            raise InvalidInput("links must have a nonzero derivative at zero")

    @functools.cached_property
    def h_prime_at_0(self) -> float:
        return float(self.jet(0.0)[1])


def identity_link() -> SmoothLink:
    def jet(x):
        x = np.asarray(x, dtype=float)
        return x, np.ones_like(x), np.zeros_like(x)

    return SmoothLink("identity", jet)


def sin_link() -> SmoothLink:
    def jet(x):
        s = np.sin(x)
        return s, np.cos(x), np.negative(s)

    return SmoothLink("sin", jet)


def tanh_link() -> SmoothLink:
    def jet(x):
        # tanh(x), 1 / cosh(x)^2, -2 tanh(x) / cosh(x)^2
        t = np.tanh(x)
        c = scratch_ufunc(np.cosh, x)
        np.square(c, out=c)
        second = t * -2.0
        second /= c
        return t, np.divide(1.0, c, out=c)[()], second

    return SmoothLink("tanh", jet)


def affine_sin_link(a: float, b: float) -> SmoothLink:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInput("affine_sin needs finite coefficients")
    if a + b == 0.0 or not math.isfinite(a + b):
        raise InvalidInput("affine_sin needs a finite a + b != 0")
    # a * x keeps only a few bits when a is subnormal, whatever the scaling
    if any(0.0 < abs(c) < np.finfo(float).tiny for c in (a, b)):
        raise InvalidInput("affine_sin coefficients must be 0 or normal floats")

    def jet(x):
        # a x + b sin(x), b cos(x) + a, -b sin(x)
        x = np.asarray(x, dtype=float)
        s = np.sin(x)
        h = a * x
        h += b * s
        hp = b * np.cos(x)
        hp += a
        return h, hp, s * -b

    return SmoothLink(f"affine_sin({a:g},{b:g})", jet)


def _unit_scaled(link: SmoothLink) -> SmoothLink:
    """``link`` times the power of two nearest ``1/|H'(0)|`` (itself if 1).

    ``F`` is unchanged by ``H -> cH`` for ``c > 0``, and a power of two
    multiplies exactly, so a link with ``H'(0)`` of order one gives the same
    bits either way, while tiny or huge coefficients come to unit scale,
    where ``hp0 * hp`` and ``sigma ** 2`` neither underflow nor overflow.
    The scaled jet returns three new arrays, whatever ``link``'s returns.
    """
    frac, exp = math.frexp(abs(link.h_prime_at_0))
    k = -exp if frac > math.sqrt(0.5) else 1 - exp
    if k == 0:
        return link
    jet = link.jet
    return SmoothLink(link.name,
                      lambda x: tuple(np.ldexp(v, k) for v in jet(x)))


_AFFINE_RE = re.compile(r"^affine_sin\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$")


def link_by_name(name: str) -> SmoothLink:
    key = name.strip()
    if key == "identity":
        return identity_link()
    if key == "sin":
        return sin_link()
    if key == "tanh":
        return tanh_link()
    m = _AFFINE_RE.match(key)
    if m is not None:
        return affine_sin_link(float(m.group(1)), float(m.group(2)))
    raise InvalidInput(f"unknown link {name!r}")


@dataclass(frozen=True)
class SampleMeanModel:
    """Link, coordinate laws, and the normalizing moments of the statistic.

    ``mu_h`` and ``sigma`` are ``E[H(Xbar)]`` and ``sqrt(Var F)`` for the
    model's ``link``, which :func:`sample_mean_model` scales to
    ``|H'(0)|`` in ``(1/sqrt2, sqrt2]``; for the
    identity link over standardized laws they are exactly (0, 1), otherwise
    they come from a Monte Carlo pre-pass whose standard errors are kept in
    ``pre_pass_se``.
    """

    link: SmoothLink
    dists: tuple
    mu_h: float
    sigma: float
    pre_pass_se: tuple

    @property
    def n(self) -> int:
        return len(self.dists)

    def evaluate(self, x: np.ndarray, readouts=None):
        """Score-pair arrays for a block of draws ``x`` of shape (m, n), at
        ``readouts`` as in :meth:`reduce_columns`."""
        return self.reduce_columns(x.T, readouts)

    def reduce_columns(self, columns, readouts=None):
        """Score-pair arrays from the draws' coordinate columns, finished at
        ``n`` by :meth:`finish`.  With ``readouts``, models whose laws are
        the first ``r.n`` of this model's, a list with one sample per
        readout, finished at its own ``n``.

        ``columns`` yields one length-m column per coordinate, in order
        0..n-1.  Each is folded into the running sum ``Σx_k`` and into its
        kernel kind's ``(Στ_k, Στ'_k·τ_k)``, then dropped, so the (m, n)
        block of draws and its kernels are never held.  A kind is a
        Pearson pair ``(b, c)``: a curved kernel (``c != 0``) folds ``τ``
        and ``τ'·τ``; an affine one folds only ``τ``, and its ``Στ'τ`` is
        ``b·Στ``; a constant one evaluates no kernel, and its ``Στ`` is its
        column count.  Starting at 0.0 and adding in coordinate order is
        numpy's axis-0 reduction of the block, to the bit; a model of
        several kinds adds their sums at each readout.
        """
        models = readout_models(self, readouts)
        samples = [None] * len(models)
        x_sum = 0.0
        kinds = {}  # Pearson pair -> [Στ, Στ'τ] of its columns so far
        # one flat zip: enumerate over a zip would keep a spent column alive
        for k, dist, col in zip(range(1, self.n + 1), self.dists, columns):
            x_sum += col
            b, c = pair = dist.kernel_form.pearson
            sums = kinds.setdefault(pair, [0.0, 0.0])
            if c != 0.0:
                tau = dist.tau(col)
                sums[0] += tau
                sums[1] += dist.tau_prime(col) * tau
            elif b != 0.0:
                sums[0] += dist.tau(col)
            else:
                sums[0] += 1.0
            for i, r in enumerate(models):
                if r.n == k:
                    samples[i] = r.finish(x_sum, *_kernel_sums(kinds))
        return samples[0] if readouts is None else samples

    def finish(self, x_sum, tau_sum, tt_sum) -> ScoreSample:
        """Score-pair arrays from the running sums of :meth:`reduce_columns`
        over this model's ``n`` coordinates, which it does not write.  Each
        term is built in one array of its own, in the operation order of the
        formula in its comment."""
        link = self.link
        n = self.n
        sigma = self.sigma
        s2 = sigma ** 2
        sqrt_n = math.sqrt(n)
        hp0 = link.h_prime_at_0
        xbar = x_sum / n
        taubar = tau_sum / n
        h, hp, second = link.jet(xbar)
        # f = sqrt(n) (H(xbar) - mu_h) / sigma
        f = h - self.mu_h
        f *= sqrt_n
        f /= sigma
        # nabla = hp0 H'(xbar) taubar / sigma^2
        hp *= hp0
        nabla = hp * taubar
        nabla /= s2
        # sum_k (d_k nabla) L_k g_k with L_k g_k = hp0 tau_k / (sigma sqrt(n)):
        # (hp0 H'' taubar / n / sigma^2 Στ + hp0 H' / n / sigma^2 Στ'τ) hp0
        # / (sigma sqrt(n))
        second *= hp0
        second *= taubar
        second /= n
        second /= s2
        second *= tau_sum
        hp /= n
        hp /= s2
        hp *= tt_sum
        second += hp
        second *= hp0
        second /= sigma * sqrt_n
        # g_sum = hp0 sqrt(n) xbar / sigma, in xbar, which is read no further
        g_sum = np.multiply(xbar, hp0 * sqrt_n, out=xbar)
        g_sum /= sigma
        return ScoreSample.represent(f, g_sum, nabla, second)


def _kernel_sums(kinds):
    """``(Στ, Στ'τ)`` over every kind's columns, from the per-kind sums of
    :meth:`SampleMeanModel.reduce_columns`; a lone kind's are its own."""
    (tau_sum, tt_sum), *rest = [(st, stt if c != 0.0 else b * st)
                                for (b, c), (st, stt) in kinds.items()]
    for st, stt in rest:
        tau_sum = tau_sum + st
        tt_sum = tt_sum + stt
    return tau_sum, tt_sum


def pre_pass(link: SmoothLink, dists, n: int, reps: int, stream):
    """Estimate ``(mu_h, sigma)`` with standard errors from a seed stream."""
    dists = _normalize_dists(dists, n)
    reps = draw_count(reps)
    if reps < 10 ** 4:
        raise InvalidInput("pre_pass needs at least 1e4 replications")

    def mean_link(m):
        # Each coordinate column is added and dropped as it is drawn.
        total = np.zeros(m)
        for dist in dists:
            total += dist.sampler(stream, m)
        total /= n
        return link.jet(total)[0]

    hv = np.concatenate([mean_link(m) for m in chunk_sizes(reps, 65536)])
    # A huge link overflows these moments to inf, which the check below
    # turns into DegenerateVariance.
    with np.errstate(over="ignore"):
        mu = float(hv.mean())
        s2_h = float(hv.var(ddof=1))
        m4 = float(((hv - mu) ** 4).mean())
    sigma2 = n * s2_h
    sigma = math.sqrt(sigma2)
    if not (math.isfinite(sigma) and math.isfinite(m4)):
        raise DegenerateVariance(
            f"sigma = {sigma!r} or the fourth central moment {m4!r} of "
            f"H(Xbar) is not finite")
    se_mu = math.sqrt(s2_h / reps)
    # Delta method: Var(s^2) ~ (m4 - s^4) / reps, then through sqrt(n * .).
    se_sigma2 = n * math.sqrt(max(m4 - s2_h ** 2, 0.0) / reps)
    se_sigma = se_sigma2 / (2.0 * sigma) if sigma > 0 else math.inf
    if sigma <= 3.0 * se_sigma:
        raise DegenerateVariance(
            f"sigma = {sigma:.3e} within 3 standard errors of zero")
    return mu, sigma, (se_mu, se_sigma)


def _normalize_dists(dists, n: Optional[int] = None):
    seq = tuple(dists)
    if not seq:
        raise InvalidInput("need at least one coordinate law")
    if n is not None and len(seq) != n:
        raise InvalidInput(f"need {n} coordinate laws, got {len(seq)}")
    return seq


def sample_mean_model(link: SmoothLink, dists, n: Optional[int] = None, *,
                      stream=None, prepass_reps: int = 10 ** 5) -> SampleMeanModel:
    """Build a model, supplying ``(mu_h, sigma)`` exactly or by pre-pass.

    The link is first scaled by the power of two nearest ``1/|H'(0)|``,
    which leaves ``F`` unchanged.  The identity link over standardized laws
    has the exact moments (0, 1); any other link requires a stream for the
    Monte Carlo pre-pass, which is kept disjoint from the main run by
    seeding convention.
    """
    dists = _normalize_dists(dists, n)
    link = _unit_scaled(link)
    if link.name == "identity":
        mu, sigma, se = 0.0, 1.0, (0.0, 0.0)
    else:
        if stream is None:
            raise InvalidInput("non-identity links need a pre-pass stream")
        mu, sigma, se = pre_pass(link, dists, len(dists), prepass_reps, stream)
    return SampleMeanModel(link=link, dists=dists, mu_h=mu, sigma=sigma,
                           pre_pass_se=se)


def draw_score_pairs_sm(model: SampleMeanModel, stream, reps: int,
                        readouts=None):
    """``reps`` score pairs drawn in fixed-size chunks from one stream, each
    chunk's columns read out at ``readouts`` as they are drawn and reduced by
    :func:`estimate.reduce_draw`.  Within one chunk, readout ``r``'s
    accumulator is, to the bit, that of ``draw_score_pairs_sm(r, ...)``."""
    blocks = (model.reduce_columns((dist.sampler(stream, m)
                                    for dist in model.dists), readouts)
              for m in chunk_sizes(reps))
    return reduce_draw(blocks, readouts)


def linear_sum_pairs(dists, n: int, stream, reps: int):
    """Draws of the normalized sum with both score representations.

    Returns ``(sample, h_classic)`` where ``sample`` holds the pairs from
    the identity-link model (exact normalization) and ``h_classic`` is the
    per-draw score sum ``sum_k rho_k(X_k) / sqrt(n)``.
    """
    dists = _normalize_dists(dists, n)
    model = sample_mean_model(identity_link(), dists)
    blocks = []
    classic = []
    for m in chunk_sizes(reps):
        rho_sum = 0.0

        def columns():
            # Folds each column's classic score into ``rho_sum`` as it passes.
            nonlocal rho_sum
            for dist in dists:
                col = dist.sampler(stream, m)
                rho_sum += dist.log_density_derivative(col)
                yield col

        blocks.append(model.reduce_columns(columns()))
        classic.append(rho_sum / math.sqrt(n))
    return ScoreSample.concat(blocks), np.concatenate(classic)
