"""Smooth functions of sample means: ``F = sqrt(n) (H(Xbar) - E[H(Xbar)])``.

The score representation for this family compares ``F`` with the linear
statistic ``sum_k g_k(X_k)``, ``g_k(x) = H'(0) x / (sigma sqrt(n))``, whose
normalizer ``nabla`` has the closed form ``H'(0) H'(Xbar) mean(tau_k) /
sigma^2``.  The linear case recovers the normalized sum ``S_n`` and also
exposes the classic score-sum representation for comparison.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import chunk_sizes, sample_columns
from .errors import DegenerateVariance, InvalidInput
from .estimate import ScorePair, ScoreSample

GUARD_NABLA = 1e-10


@dataclass(frozen=True)
class SmoothLink:
    """Twice differentiable link with bounded derivatives and H'(0) != 0."""

    name: str
    h: Callable
    h_prime: Callable
    h_second: Callable
    h_prime_at_0: float
    sup_h_prime: float
    sup_h_second: float

    def __post_init__(self):
        if self.h_prime_at_0 == 0.0:
            raise InvalidInput("links must have a nonzero derivative at zero")


def identity_link() -> SmoothLink:
    return SmoothLink(
        name="identity",
        h=lambda x: np.asarray(x, dtype=float),
        h_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        h_second=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        h_prime_at_0=1.0,
        sup_h_prime=1.0,
        sup_h_second=0.0,
    )


def sin_link() -> SmoothLink:
    return SmoothLink(
        name="sin",
        h=np.sin, h_prime=np.cos,
        h_second=lambda x: -np.sin(np.asarray(x, dtype=float)),
        h_prime_at_0=1.0, sup_h_prime=1.0, sup_h_second=1.0,
    )


def tanh_link() -> SmoothLink:
    # |(tanh)''| = |2 t (1 - t^2)| with t = tanh(x); max at t = 1/sqrt(3).
    return SmoothLink(
        name="tanh",
        h=np.tanh,
        h_prime=lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2,
        h_second=lambda x: -2.0 * np.tanh(np.asarray(x, dtype=float))
        / np.cosh(np.asarray(x, dtype=float)) ** 2,
        h_prime_at_0=1.0, sup_h_prime=1.0,
        sup_h_second=4.0 / (3.0 * math.sqrt(3.0)),
    )


def affine_sin_link(a: float, b: float) -> SmoothLink:
    if a + b == 0.0:
        raise InvalidInput("affine_sin needs a + b != 0")
    return SmoothLink(
        name=f"affine_sin({a:g},{b:g})",
        h=lambda x: a * np.asarray(x, dtype=float) + b * np.sin(np.asarray(x, dtype=float)),
        h_prime=lambda x: a + b * np.cos(np.asarray(x, dtype=float)),
        h_second=lambda x: -b * np.sin(np.asarray(x, dtype=float)),
        h_prime_at_0=a + b,
        sup_h_prime=abs(a) + abs(b),
        sup_h_second=abs(b),
    )


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

    ``mu_h`` and ``sigma`` are ``E[H(Xbar)]`` and ``sqrt(Var F)``; for the
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

    def evaluate(self, x: np.ndarray) -> ScoreSample:
        """Score-pair arrays for a block of draws ``x`` of shape (m, n)."""
        link = self.link
        n = self.n
        sigma = self.sigma
        sqrt_n = math.sqrt(n)
        xbar = x.mean(axis=1)
        tau = np.empty_like(x)
        taup = np.empty_like(x)
        for k, dist in enumerate(self.dists):
            tau[:, k] = dist.tau(x[:, k])
            taup[:, k] = dist.tau_prime(x[:, k])
        taubar = tau.mean(axis=1)
        hp0 = link.h_prime_at_0
        hp = link.h_prime(xbar)
        f = sqrt_n * (link.h(xbar) - self.mu_h) / sigma
        g_sum = hp0 * sqrt_n * xbar / sigma
        nabla = hp0 * hp * taubar / sigma ** 2
        # sum_k (d_k nabla) L_k g_k with L_k g_k = hp0 tau_k / (sigma sqrt(n))
        d_common = hp0 * link.h_second(xbar) * taubar / n / sigma ** 2
        second = (d_common * tau.sum(axis=1)
                  + (hp0 * hp / n / sigma ** 2) * (taup * tau).sum(axis=1))
        second = second * hp0 / (sigma * sqrt_n)
        guarded = np.abs(nabla) < GUARD_NABLA
        h = np.full_like(f, np.nan)
        ok = ~guarded
        h[ok] = g_sum[ok] / nabla[ok] + second[ok] / nabla[ok] ** 2
        return ScoreSample(f=f, h=h, aux=nabla, guarded=guarded)


def pre_pass(link: SmoothLink, dists, n: int, reps: int, stream):
    """Estimate ``(mu_h, sigma)`` with standard errors from a seed stream."""
    dists = _normalize_dists(dists, n)
    reps = int(reps)
    if reps < 10 ** 4:
        raise InvalidInput("pre_pass needs at least 1e4 replications")
    hv = np.concatenate([link.h(sample_columns(dists, stream, m).mean(axis=1))
                         for m in chunk_sizes(reps, 65536)])
    mu = float(hv.mean())
    s2_h = float(hv.var(ddof=1))
    sigma2 = n * s2_h
    sigma = math.sqrt(sigma2)
    se_mu = math.sqrt(s2_h / reps)
    # Delta method: Var(s^2) ~ (m4 - s^4) / reps, then through sqrt(n * .).
    m4 = float(((hv - mu) ** 4).mean())
    se_sigma2 = n * math.sqrt(max(m4 - s2_h ** 2, 0.0) / reps)
    se_sigma = se_sigma2 / (2.0 * sigma) if sigma > 0 else math.inf
    if sigma <= 3.0 * se_sigma:
        raise DegenerateVariance(
            f"sigma = {sigma:.3e} within 3 standard errors of zero")
    return mu, sigma, (se_mu, se_sigma)


def _normalize_dists(dists, n: Optional[int] = None):
    try:
        seq = tuple(dists)
    except TypeError:
        seq = (dists,)
    if len(seq) == 1 and n is not None and n > 1:
        seq = seq * n
    if n is not None and len(seq) != n:
        raise InvalidInput(f"need {n} coordinate laws, got {len(seq)}")
    return seq


def sample_mean_model(link: SmoothLink, dists, n: Optional[int] = None, *,
                      stream=None, prepass_reps: int = 10 ** 5,
                      exact_moments: Optional[tuple] = None) -> SampleMeanModel:
    """Build a model, supplying ``(mu_h, sigma)`` exactly or by pre-pass.

    The identity link over standardized laws defaults to the exact moments
    (0, 1); any other link requires either ``exact_moments`` or a stream
    for the Monte Carlo pre-pass, which is kept disjoint from the main run
    by seeding convention.
    """
    dists = _normalize_dists(dists, n)
    if exact_moments is not None:
        mu, sigma = float(exact_moments[0]), float(exact_moments[1])
        se = (0.0, 0.0)
    elif link.name == "identity":
        mu, sigma, se = 0.0, 1.0, (0.0, 0.0)
    else:
        if stream is None:
            raise InvalidInput("non-identity links need a pre-pass stream")
        mu, sigma, se = pre_pass(link, dists, len(dists), prepass_reps, stream)
    return SampleMeanModel(link=link, dists=dists, mu_h=mu, sigma=sigma,
                           pre_pass_se=se)


def draw_score_pairs_sm(model: SampleMeanModel, stream, reps: int) -> ScoreSample:
    """``reps`` score pairs drawn in fixed-size chunks from one stream."""
    blocks = [model.evaluate(sample_columns(model.dists, stream, m))
              for m in chunk_sizes(reps)]
    return ScoreSample.concat(blocks)


def draw_score_pair_sm(model: SampleMeanModel, stream) -> ScorePair:
    return next(iter(draw_score_pairs_sm(model, stream, 1)))


def nabla_value(model: SampleMeanModel, x) -> float:
    """Normalizer at one coordinate vector, on the standardized scale."""
    x = np.asarray(x, dtype=float)[None, :]
    return float(model.evaluate(x).aux[0])


def nabla_gradient(model: SampleMeanModel, x) -> np.ndarray:
    """Closed-form gradient of :func:`nabla_value` in each coordinate."""
    x = np.asarray(x, dtype=float)
    n = model.n
    xbar = float(x.mean())
    tau = np.array([float(d.tau(v)) for d, v in zip(model.dists, x)])
    taup = np.array([float(d.tau_prime(v)) for d, v in zip(model.dists, x)])
    hp0 = model.link.h_prime_at_0
    grad = (hp0 * float(model.link.h_second(xbar)) / n ** 2 * tau.sum()
            + hp0 * float(model.link.h_prime(xbar)) / n * taup)
    return grad / model.sigma ** 2


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
        x = sample_columns(dists, stream, m)
        blocks.append(model.evaluate(x))
        rho = np.empty_like(x)
        for k, dist in enumerate(dists):
            rho[:, k] = dist.log_density_derivative(x[:, k])
        classic.append(rho.sum(axis=1) / math.sqrt(n))
    return ScoreSample.concat(blocks), np.concatenate(classic)


def linear_sum_score(dists, n: int, stream):
    """Single draw of the linear statistic: ``(stein_pair, h_classic)``."""
    sample, classic = linear_sum_pairs(dists, n, stream, 1)
    return next(iter(sample)), float(classic[0])
