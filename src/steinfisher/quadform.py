"""Quadratic forms over independent standardized inputs.

Implements the model ``F = sum_{u<v} a_uv X_u X_v`` with its closed-form
normalizing statistic ``Theta``, the gradient of ``Theta``, the score-pair
draw used by the Fisher-distance estimators, matrix functionals entering
the rate bounds, and the exact Gaussian negative-moment norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import chunk_sizes, sample_columns
from .errors import (ContractViolation, DegenerateModel, InvalidInput,
                     NotIntegrable)
from .estimate import ScorePair, ScoreSample
from .quadrature import integrate_half_line

GUARD_THETA = 1e-10


class CoefficientMatrix:
    """Symmetric zero-diagonal coefficient matrix.

    Only the strict upper triangle of ``entries`` is read; symmetry and the
    vanishing diagonal are enforced by construction.  Instances are treated
    as immutable.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput("coefficient matrix must be square")
        upper = np.triu(a, 1)
        self.entries = upper + upper.T
        self.entries.setflags(write=False)
        self.n = int(a.shape[0])

    @property
    def sigma2(self) -> float:
        """Variance of the quadratic form: sum of squared upper entries."""
        return float((self.entries ** 2).sum() / 2.0)


def banded_coefficients(n: int, bandwidth: int = 1) -> CoefficientMatrix:
    """First ``bandwidth`` superdiagonals filled with a constant chosen so
    the form has unit variance; the default family for rate experiments."""
    if n < 2:
        raise InvalidInput("banded family needs n >= 2")
    a = np.zeros((n, n))
    count = 0
    for d in range(1, min(bandwidth, n - 1) + 1):
        count += n - d
    value = 1.0 / math.sqrt(count)
    for d in range(1, min(bandwidth, n - 1) + 1):
        idx = np.arange(n - d)
        a[idx, idx + d] = value
    return CoefficientMatrix(a)


@dataclass(frozen=True)
class MatrixFunctionals:
    """Matrix quantities entering the Berry-Esseen and Fisher-rate factors."""

    sum_row4: float
    trace4: float
    lambda_min: float
    lambda_max: float
    berry_factor: float
    structural_factor: float


def matrix_functionals(matrix: CoefficientMatrix) -> MatrixFunctionals:
    a = matrix.entries
    sigma2 = matrix.sigma2
    row2 = (a ** 2).sum(axis=1)
    sum_row4 = float((row2 ** 2).sum())
    gram = a.T @ a
    trace4 = float((gram ** 2).sum())
    eigs = np.linalg.eigvalsh(gram)
    return MatrixFunctionals(
        sum_row4=sum_row4,
        trace4=trace4,
        lambda_min=float(eigs[0]),
        lambda_max=float(eigs[-1]),
        berry_factor=(math.sqrt(sum_row4) + math.sqrt(trace4)) / sigma2,
        structural_factor=(sum_row4 + trace4) / sigma2 ** 2,
    )


class QuadFormModel:
    """Quadratic form with per-coordinate laws carrying Stein kernels.

    With ``standardize`` (the default) every draw is of ``F / sigma`` with
    the normalizer and integrand rescaled consistently, which is the version
    all rate experiments use.
    """

    def __init__(self, matrix: CoefficientMatrix, dists, standardize=True):
        if len(dists) != matrix.n:
            raise InvalidInput("need one distribution per coordinate")
        if matrix.sigma2 <= 0.0:
            raise DegenerateModel("zero-variance quadratic form rejected")
        self.matrix = matrix
        self.dists = tuple(dists)
        self.standardize = bool(standardize)
        self.sigma2 = matrix.sigma2
        self.sigma = math.sqrt(self.sigma2)

    @property
    def n(self) -> int:
        return self.matrix.n

    def _tau_taup(self, x: np.ndarray):
        tau = np.empty_like(x)
        taup = np.empty_like(x)
        for k, dist in enumerate(self.dists):
            tau[:, k] = dist.tau(x[:, k])
            taup[:, k] = dist.tau_prime(x[:, k])
        return tau, taup

    def evaluate(self, x: np.ndarray) -> ScoreSample:
        """Score-pair arrays for a block of draws ``x`` of shape (m, n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a = self.matrix.entries
        r = x @ a
        f = 0.5 * (x * r).sum(axis=1)
        tau, taup = self._tau_taup(x)
        theta = 0.5 * ((r ** 2) * tau).sum(axis=1)
        lm = 0.5 * tau * r
        grad_theta = (tau * r) @ a + 0.5 * taup * r ** 2
        theta_theta_f = (grad_theta * lm).sum(axis=1)
        if self.standardize:
            f = f / self.sigma
            theta = theta / self.sigma2
            theta_theta_f = theta_theta_f / (self.sigma2 * self.sigma)
        guarded = np.abs(theta) < GUARD_THETA
        h = np.full_like(f, np.nan)
        ok = ~guarded
        h[ok] = f[ok] / theta[ok] + theta_theta_f[ok] / theta[ok] ** 2
        return ScoreSample(f=f, h=h, aux=theta, guarded=guarded)

    def theta_value(self, x) -> float:
        """Normalizer at one point, on the same scale the draws use."""
        x = np.asarray(x, dtype=float)[None, :]
        return float(self.evaluate(x).aux[0])

    def theta_gradient(self, x) -> np.ndarray:
        """Closed-form gradient of :meth:`theta_value` at one point."""
        x = np.asarray(x, dtype=float)[None, :]
        a = self.matrix.entries
        r = x @ a
        tau, taup = self._tau_taup(x)
        grad = ((tau * r) @ a + 0.5 * taup * r ** 2)[0]
        return grad / self.sigma2 if self.standardize else grad


def draw_score_pairs(model: QuadFormModel, stream, reps: int) -> ScoreSample:
    """``reps`` score pairs drawn in fixed-size chunks from one stream."""
    blocks = [model.evaluate(sample_columns(model.dists, stream, m))
              for m in chunk_sizes(reps)]
    return ScoreSample.concat(blocks)


def draw_score_pair(model: QuadFormModel, stream) -> ScorePair:
    sample = draw_score_pairs(model, stream, 1)
    return next(iter(sample))


def gaussian_negative_moment_norm(matrix: CoefficientMatrix, order: float,
                                  *, tol=1e-12) -> float:
    """Exact ``|| sigma^2 Theta^-1 ||_order`` for all-Gaussian inputs.

    Evaluates ``2 sigma^2 (Gamma(order)^-1 int_0^inf x^(order-1)
    prod_k (1 + 2 lambda_k x)^(-1/2) dx)^(1/order)`` with ``lambda_k`` the
    eigenvalues of ``A^T A``.  The integral converges only when more than
    ``2 * order`` eigenvalues are positive.
    """
    if order <= 0:
        raise InvalidInput("order must be positive")
    gram = matrix.entries.T @ matrix.entries
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    positive = lam[lam > lam.max() * 1e-12] if lam.max() > 0 else lam[:0]
    if positive.size / 2.0 <= order:
        raise NotIntegrable(
            f"{positive.size} positive eigenvalues cannot support order {order}")

    log_gamma = gammaln(order)

    def integrand(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        pos = xs > 0.0
        xp = xs[pos]
        log_prod = -0.5 * np.log1p(2.0 * np.outer(xp, positive)).sum(axis=1)
        out[pos] = np.exp((order - 1.0) * np.log(xp) + log_prod - log_gamma)
        return out

    inner = integrate_half_line(integrand, tol=tol)
    return 2.0 * matrix.sigma2 * inner ** (1.0 / order)


def gaussian_negative_moment_norm_mc(matrix: CoefficientMatrix, order: float,
                                     stream, reps: int) -> float:
    """Monte Carlo ``|| sigma^2 Theta^-1 ||_order`` over Gaussian draws.

    Each draw factors as radius times direction; the radial moment
    ``E[(chi2_n)^(-order)]`` is integrated exactly, so only the bounded
    sphere functional ``||A u||^(-2 order)`` is averaged.  This keeps the
    estimator's variance finite, which the plain average of
    ``(sigma^2 / Theta)^order`` does not (its tail index is n / (2 order)).
    """
    n = matrix.n
    if n / 2.0 <= order:
        raise NotIntegrable(f"n={n} Gaussian draws cannot support order {order}")
    a = matrix.entries
    log_radial = gammaln(n / 2.0 - order) - gammaln(n / 2.0)
    total = 0.0
    for m in chunk_sizes(reps, 100_000):
        x = stream.standard_normal((m, n))
        u = x / np.linalg.norm(x, axis=1, keepdims=True)
        total += float((np.linalg.norm(u @ a, axis=1) ** (-2.0 * order)).sum())
    mean = total / int(reps) * math.exp(log_radial)
    return matrix.sigma2 * mean ** (1.0 / order)


def fisher_bound_factor(model: QuadFormModel, neg_norm8: float) -> float:
    """Computable factor of the quadratic-form Fisher-rate bound.

    The true bound is an unspecified moment-dependent constant times this
    value, so only its behavior across ``n`` is meaningful.
    """
    if neg_norm8 < 1.0:
        raise ContractViolation(
            f"neg_norm8 = {neg_norm8!r} violates the Jensen lower bound 1")
    return matrix_functionals(model.matrix).structural_factor * neg_norm8 ** 3
