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

from .distributions import chunk_sizes, kernel_columns, sample_columns
from .errors import (ContractViolation, DegenerateModel, InvalidInput,
                     NotIntegrable)
from .estimate import ScoreSample
from .quadrature import integrate_half_line


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
    """Matrix quantities entering the Fisher-rate factors."""

    sum_row4: float
    trace4: float
    lambda_min: float
    lambda_max: float
    structural_factor: float


def _unit_scaled(matrix: CoefficientMatrix):
    """``(A 2**-e, e)`` with ``max|a| 2**-e`` in [0.5, 1): an exact scaling
    under which ``sigma^2`` and the products neither overflow nor underflow."""
    e = math.frexp(float(np.abs(matrix.entries).max(initial=0.0)))[1]
    return CoefficientMatrix(np.ldexp(matrix.entries, -e)), e


def _block_draws(n: int) -> int:
    """Draws per sub-block of :meth:`QuadFormModel.evaluate`: about 2**15 / n,
    so one ``(n, s)`` float64 buffer is about 256 KiB, and never below 256.

    A multiple of 64, so a sub-block boundary never falls inside one of
    the BLAS kernel's column groups and each draw's ``A x`` is the one the
    whole-chunk product gives.
    """
    return max(256, 2 ** 15 // n // 64 * 64)


def matrix_functionals(matrix: CoefficientMatrix) -> MatrixFunctionals:
    """Computed on the unit-scaled A; all but the scale-free
    ``structural_factor`` are scaled back, and may overflow to inf."""
    unit, e = _unit_scaled(matrix)
    a = unit.entries
    row2 = (a ** 2).sum(axis=1)
    sum_row4 = float((row2 ** 2).sum())
    gram = a.T @ a
    trace4 = float((gram ** 2).sum())
    eigs = np.linalg.eigvalsh(gram)
    with np.errstate(over="ignore", under="ignore"):
        return MatrixFunctionals(
            sum_row4=float(np.ldexp(sum_row4, 4 * e)),
            trace4=float(np.ldexp(trace4, 4 * e)),
            lambda_min=float(np.ldexp(eigs[0], 2 * e)),
            lambda_max=float(np.ldexp(eigs[-1], 2 * e)),
            structural_factor=(sum_row4 + trace4) / unit.sigma2 ** 2,
        )


class QuadFormModel:
    """Quadratic form with per-coordinate laws carrying Stein kernels.

    Every draw is of ``F / sigma``, with the normalizer and integrand
    rescaled consistently.  None of these depend on the scale of A, so
    ``matrix``, ``sigma2`` and ``sigma`` are those of the unit-scaled A.
    """

    def __init__(self, matrix: CoefficientMatrix, dists):
        if len(dists) != matrix.n:
            raise InvalidInput("need one distribution per coordinate")
        matrix = _unit_scaled(matrix)[0]
        if matrix.sigma2 <= 0.0:
            raise DegenerateModel("zero-variance quadratic form rejected")
        self.matrix = matrix
        self.dists = tuple(dists)
        self.sigma2 = matrix.sigma2
        self.sigma = math.sqrt(self.sigma2)

    @property
    def n(self) -> int:
        return self.matrix.n

    def evaluate(self, x: np.ndarray) -> ScoreSample:
        """Score-pair arrays for a block of draws ``x`` of shape (m, n).

        The draws are taken :func:`_block_draws` at a time through four
        reused ``(n, s)`` work buffers, so beyond ``x`` and the length-m
        results the working set does not grow with m.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a = self.matrix.entries
        m, n = x.shape
        s = max(1, min(m, _block_draws(n)))
        # Coordinate-major throughout: rows of ``xt`` are coordinates, and
        # A symmetric makes ``a @ xt`` the transpose of ``x @ a``.
        xt = x.T
        f, theta, theta_theta_f = np.empty((3, m))
        work = np.empty((4, n * s))
        for j in range(0, m, s):
            xs = xt[:, j:j + s]
            w = xs.shape[1]
            r, prod, r2, grad = (b[:n * w].reshape(n, w) for b in work)
            draws = slice(j, j + w)
            np.matmul(a, xs, out=r)
            np.multiply(xs, r, out=prod)
            np.sum(prod, axis=0, out=f[draws])
            tau, taup = kernel_columns(self.dists, xs.T)
            tau, taup = tau.T, taup.T
            np.multiply(r, r, out=r2)
            tau_r = np.multiply(tau, r, out=r)
            np.multiply(r2, tau, out=prod)
            np.sum(prod, axis=0, out=theta[draws])
            # grad Theta = A (tau r) + (tau' / 2) r^2
            np.matmul(a, tau_r, out=grad)
            np.multiply(0.5, taup, out=taup)
            np.multiply(taup, r2, out=taup)
            np.add(grad, taup, out=grad)
            # L_k Theta = tau_k r_k / 2
            np.multiply(grad, tau_r, out=grad)
            np.sum(grad, axis=0, out=theta_theta_f[draws])
        f = 0.5 * f / self.sigma
        theta = 0.5 * theta / self.sigma2
        theta_theta_f = 0.5 * theta_theta_f / (self.sigma2 * self.sigma)
        return ScoreSample.represent(f, f, theta, theta_theta_f)

    def theta_value(self, x) -> float:
        """Normalizer at one point, on the same scale the draws use."""
        x = np.asarray(x, dtype=float)[None, :]
        return float(self.evaluate(x).aux[0])

    def theta_gradient(self, x) -> np.ndarray:
        """Closed-form gradient of :meth:`theta_value` at one point."""
        x = np.asarray(x, dtype=float)[None, :]
        a = self.matrix.entries
        r = x @ a
        tau, taup = kernel_columns(self.dists, x)
        grad = ((tau * r) @ a + 0.5 * taup * r ** 2)[0]
        return grad / self.sigma2


def draw_score_pairs(model: QuadFormModel, stream, reps: int) -> ScoreSample:
    """``reps`` score pairs drawn in fixed-size chunks from one stream."""
    blocks = [model.evaluate(sample_columns(model.dists, stream, m))
              for m in chunk_sizes(reps)]
    return ScoreSample.concat(blocks)


def gaussian_negative_moment_norm(matrix: CoefficientMatrix, order: float,
                                  *, tol=1e-12) -> float:
    """Exact ``|| sigma^2 Theta^-1 ||_order`` for all-Gaussian inputs.

    Evaluates ``2 sigma^2 (Gamma(order)^-1 int_0^inf x^(order-1)
    prod_k (1 + 2 lambda_k x)^(-1/2) dx)^(1/order)`` with ``lambda_k`` the
    eigenvalues of ``A^T A``.  The integral converges only when more than
    ``2 * order`` eigenvalues are positive.  The norm is scale free, so it
    is computed on the unit-scaled A, whose eigenvalues neither overflow
    nor underflow.
    """
    if order <= 0:
        raise InvalidInput("order must be positive")
    matrix = _unit_scaled(matrix)[0]
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
    Like the exact norm, it is computed on the unit-scaled A.
    """
    n = matrix.n
    if n / 2.0 <= order:
        raise NotIntegrable(f"n={n} Gaussian draws cannot support order {order}")
    matrix = _unit_scaled(matrix)[0]
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
