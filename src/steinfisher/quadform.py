"""Quadratic forms over independent standardized inputs.

Implements the model ``F = sum_{u<v} a_uv X_u X_v``: the score-pair draw
used by the Fisher-distance estimators, whose closed-form normalizing
statistic ``Theta`` and its gradient are written out in
:meth:`QuadFormModel.evaluate`, matrix functionals entering the rate
bounds, and the exact Gaussian negative-moment norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import moments
from .distributions import chunk_sizes, kernel_columns, sample_columns
from .errors import (ContractViolation, DegenerateModel, InvalidInput,
                     NotIntegrable)
from .estimate import ScoreSample, UpperAccumulator


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
    if n < 2 or bandwidth < 1:
        raise InvalidInput("banded family needs n >= 2 and bandwidth >= 1")
    offset = np.arange(n)[None, :] - np.arange(n)[:, None]
    band = (offset >= 1) & (offset <= bandwidth)
    return CoefficientMatrix(band / math.sqrt(band.sum()))


@dataclass(frozen=True)
class MatrixFunctionals:
    """Matrix quantities entering the Fisher-rate factors."""

    sum_row4: float
    trace4: float
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
    with np.errstate(over="ignore", under="ignore"):
        return MatrixFunctionals(
            sum_row4=float(np.ldexp(sum_row4, 4 * e)),
            trace4=float(np.ldexp(trace4, 4 * e)),
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

    def evaluate(self, x: np.ndarray, readouts=None):
        """Score-pair arrays for a block of draws ``x`` of shape (m, n).

        With ``readouts``, models whose laws are the first ``r.n`` of this
        model's and whose matrices are positive multiples of the leading
        ``r.n`` x ``r.n`` block of its matrix, the result is a list with one
        sample per readout, each of the draws' first ``r.n`` coordinates.
        One pass over ``x`` serves them all: see :func:`_readout_plan`.

        The draws are taken :func:`_block_draws` at a time, so beyond ``x``
        and the length-m results the working set does not grow with m.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        plan = _readout_plan(self, (self,) if readouts is None
                             else tuple(readouts))
        m, n = x.shape
        s = max(1, min(m, _block_draws(n)))
        # Coordinate-major throughout: rows of ``xt`` are coordinates, and
        # A symmetric makes ``a @ xt`` the transpose of ``x @ a``.
        xt = x.T
        sums = np.empty((3, len(plan.sigma2), m))
        for j in range(0, m, s):
            xs = xt[plan.rows, j:j + s]
            draws = slice(j, j + xs.shape[1])
            r = plan.expand @ xs[:n]
            tau, taup = kernel_columns(plan.dists, xs)
            tau_r = tau * r
            # grad Theta = A (tau r) + (tau' / 2) r^2, and
            # L_k F = tau_k r_k / 2.  Each per-row term is summed over
            # every readout's rows by one product; temporaries are reused
            # in place or dropped, so a sub-block holds few at once.
            sums[0, :, draws] = plan.prefix @ (xs * r)
            r *= r
            sums[1, :, draws] = plan.prefix @ np.multiply(tau, r, out=tau)
            taup *= 0.5
            taup *= r
            del xs, r, tau
            grad = plan.cross @ tau_r
            grad += taup
            grad *= tau_r
            sums[2, :, draws] = plan.prefix @ grad
        f, theta, theta_theta_f = sums
        sigma2 = plan.sigma2
        sigma = np.sqrt(sigma2)
        f = 0.5 * f / sigma
        theta = 0.5 * theta / sigma2
        theta_theta_f = 0.5 * theta_theta_f / (sigma2 * sigma)
        samples = [ScoreSample.represent(fk, fk, tk, ck)
                   for fk, tk, ck in zip(f, theta, theta_theta_f)]
        return samples[0] if readouts is None else samples


@dataclass(frozen=True)
class _ReadoutPlan:
    """How one pass over a model's draws yields every readout's sums.

    The pass works on E extended rows: the model's n coordinates, then
    each readout's recomputed rows.  ``rows`` picks the extended rows'
    coordinates from a draw block (a slice when there are none beyond n)
    and ``dists`` gives their laws.  ``expand`` (E, n) gives each extended
    row's ``r = A x``, over its readout's leading block for a recomputed
    row, and ``cross`` (E, E) its ``A (tau r)`` from the extended
    ``tau r``.  Row ``k`` of the 0/1 ``prefix`` (K, E) sums readout ``k``'s
    rows: the model's rows below the readout's cut and its own recomputed
    rows.  ``sigma2`` (K, 1) holds each readout's sigma^2 on the model's
    scale.  Plans are shared between calls, so their arrays are read only.
    """

    rows: object
    dists: tuple
    expand: np.ndarray
    cross: np.ndarray
    prefix: np.ndarray
    sigma2: np.ndarray


@functools.lru_cache(maxsize=8)
def _readout_plan(model: QuadFormModel, readouts: tuple) -> _ReadoutPlan:
    """The plan of :meth:`QuadFormModel.evaluate` for ``readouts``, kept for
    the next block of the same draw.

    Row i's terms at a readout of size r.n are the model's wherever its
    ``r_i`` and ``(A (tau r))_i`` read no column at or beyond r.n: below
    the readout's cut, the first row that does.  The rows from the cut to
    r.n are recomputed on the leading block; for bandwidth b that is the
    last 2b rows.  Every readout is normalized by the sigma of the model's
    leading block, which is proportional to its own matrix, and the terms
    are scale free.
    """
    a = model.matrix.entries
    n = model.n
    nz = a != 0.0
    # reach[i]: the last column r_i reads; reach2[i]: the last one
    # (A (tau r))_i reads, directly or through the r_j it reads
    reach = np.where(nz.any(axis=1), n - 1 - np.argmax(nz[:, ::-1], axis=1), -1)
    reach2 = np.maximum(reach, np.where(nz, reach, -1).max(axis=1))
    spans, sigma2 = [], []
    for r in readouts:
        if r.dists != model.dists[:r.n]:
            raise InvalidInput("a readout's laws must be the first of the model's")
        lead, own = a[:r.n, :r.n], r.matrix.entries
        top = np.abs(lead).max()
        if not (top > 0.0 and np.abs(own - np.abs(own).max() / top * lead).max()
                <= 1e-12 * np.abs(own).max()):
            raise InvalidInput("a readout's matrix must be a positive multiple "
                               "of the model's leading block")
        late = np.flatnonzero(reach2[:r.n] >= r.n)
        spans.append((late[0] if late.size else r.n, r.n))
        sigma2.append((lead ** 2).sum() / 2.0)
    recomputed = [i for cut, size in spans for i in range(cut, size)]
    e = n + len(recomputed)
    expand = np.zeros((e, n))
    cross = np.zeros((e, e))
    prefix = np.zeros((len(spans), e))
    expand[:n] = cross[:n, :n] = a
    row = n
    for k, (cut, size) in enumerate(spans):
        own = slice(row, row + size - cut)
        expand[own, :size] = a[cut:size, :size]
        cross[own, :cut] = a[cut:size, :cut]
        cross[own, own] = a[cut:size, cut:size]
        prefix[k, :cut] = prefix[k, own] = 1.0
        row = own.stop
    plan = _ReadoutPlan(
        rows=np.r_[:n, recomputed] if recomputed else slice(None),
        dists=model.dists + tuple(model.dists[i] for i in recomputed),
        expand=expand, cross=cross, prefix=prefix,
        sigma2=np.array(sigma2)[:, None])
    for array in (expand, cross, prefix, plan.sigma2):
        array.setflags(write=False)
    return plan


def _draw_block(n: int) -> int:
    """Draws per block of a chunked quadratic-form draw: eight
    :func:`_block_draws` sub-blocks, so about 2**18 / n draws and 2 MB of
    coordinates up to n = 128, and 2048 draws beyond."""
    return 8 * _block_draws(n)


def draw_score_pairs(model: QuadFormModel, stream, reps: int, readouts=None):
    """``reps`` score pairs drawn from one stream in :func:`_draw_block`
    blocks, each evaluated as it is drawn.

    With ``readouts`` (see :meth:`QuadFormModel.evaluate`) the draw is
    nested: each block of ``model.n`` coordinates is read out at every
    readout and reduced to one :class:`UpperAccumulator` per readout, and
    those merge in block order, so no sample outlives its block.  The
    result is then a list with one accumulator per readout.
    """
    blocks = (model.evaluate(sample_columns(model.dists, stream, m), readouts)
              for m in chunk_sizes(reps, _draw_block(model.n)))
    if readouts is None:
        return ScoreSample.concat(list(blocks))
    return functools.reduce(
        lambda accs, block: [acc.merge(b) for acc, b in zip(accs, block)],
        ([UpperAccumulator.of(s) for s in samples] for samples in blocks))


def _check_order(order: float) -> None:
    if not 0.0 < order < math.inf:
        raise InvalidInput(f"order must be finite and positive, got {order!r}")


def gaussian_negative_moment_norm(matrix: CoefficientMatrix,
                                  order: float) -> float:
    """Exact ``|| sigma^2 Theta^-1 ||_order`` for all-Gaussian inputs.

    Under Gaussian inputs ``2 Theta = sum_k lambda_k Z_k^2`` with
    ``lambda_k`` the eigenvalues of ``A^T A``, so the norm is
    ``2 sigma^2 E[(sum_k lambda_k Z_k^2)^-order]^(1/order)``: the
    :func:`moments.mgf_integral` of the MGF ``x -> prod_k (1 + 2 lambda_k
    x)^(-1/2)`` over the positive eigenvalues.  It exists exactly when
    more than ``2 * order`` eigenvalues are positive; the decay probe of
    :func:`moments.negative_moment` reads only up to x = 1e6 and would
    refuse norms with eigenvalues far below the largest.  The norm is scale
    free, so it is computed on the unit-scaled A, whose eigenvalues neither
    overflow nor underflow.
    """
    _check_order(order)
    matrix = _unit_scaled(matrix)[0]
    gram = matrix.entries.T @ matrix.entries
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    positive = lam[lam > lam.max() * 1e-12] if lam.max() > 0 else lam[:0]
    if positive.size / 2.0 <= order:
        raise NotIntegrable(
            f"{positive.size} positive eigenvalues cannot support order {order}")
    inner = moments.mgf_integral(moments.NegMomentQuery(
        alpha=order, quadrature_tol=1e-12, mgf_factors=(
            lambda x: np.exp(-0.5 * np.log1p(2.0 * np.outer(x, positive))
                             .sum(axis=1)),)))
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
    _check_order(order)
    n = matrix.n
    if n / 2.0 <= order:
        raise NotIntegrable(f"n={n} Gaussian draws cannot support order {order}")
    matrix = _unit_scaled(matrix)[0]
    a = matrix.entries
    log_radial = math.lgamma(n / 2.0 - order) - math.lgamma(n / 2.0)
    total = 0.0
    # Row blocks of a C-order fill take the stream in the same order as
    # one whole (reps, n) draw.
    for m in chunk_sizes(reps, _draw_block(n)):
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
