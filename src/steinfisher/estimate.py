"""Monte Carlo estimators built on samples of the score representation.

A sample couples each draw of the statistic ``F`` with the draw of the
representation integrand ``H`` whose conditional expectation given ``F``
is minus the score of ``F``.  From a sample we estimate the squared-difference
upper bound, a binned nonparametric score, the plug-in Fisher information
distance, the indicator-weighted density, and log-log convergence rates.
Both model families draw by one contract: :func:`reduce_draw`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardDominated, InsufficientData, InvalidInput

GUARD = 1e-10  # draws with |normalizer| below this carry no H
GUARDED_FRACTION_LIMIT = 0.01
MIN_BIN_COUNT = 50  # fewest draws in one fit_score bin


def _unguarded_index(guarded):
    """Index of the unguarded draws: a boolean mask, whose gathers copy, or
    a whole slice, whose views do not, when no draw is guarded."""
    return ~guarded if guarded.any() else slice(None)


class ScoreSample:
    """Column store of ``(F, H, normalizer)`` draws; all estimators take it.

    A sample is read-only once made: the first order-statistic estimator
    to read it keeps one argsort of ``f``, which the later ones reuse.
    """

    def __init__(self, f, h, aux, guarded):
        self.f = np.asarray(f, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self.aux = np.asarray(aux, dtype=float)
        self.guarded = np.asarray(guarded, dtype=bool)
        if not (self.f.shape == self.h.shape == self.aux.shape == self.guarded.shape):
            raise InvalidInput("score sample columns must share one shape")

    @classmethod
    def represent(cls, f, g, normalizer, cross) -> "ScoreSample":
        """``H = G / Gamma + Gamma_{Gamma,G} / Gamma^2`` with ``G = g``,
        ``Gamma = normalizer`` and ``Gamma_{Gamma,G} = cross``; draws with
        ``|Gamma| < GUARD`` are guarded and carry ``h = nan``."""
        guarded = np.abs(normalizer) < GUARD
        if guarded.any():
            ok = ~guarded
            h = np.full_like(f, np.nan)
            h[ok] = g[ok] / normalizer[ok] + cross[ok] / normalizer[ok] ** 2
        else:
            h = g / normalizer
            h += cross / normalizer ** 2
        return cls(f=f, h=h, aux=normalizer, guarded=guarded)

    @classmethod
    def concat(cls, samples) -> "ScoreSample":
        """The samples' draws in order; a lone sample is returned as it is."""
        if len(samples) == 1:
            return samples[0]
        return cls(
            np.concatenate([s.f for s in samples]),
            np.concatenate([s.h for s in samples]),
            np.concatenate([s.aux for s in samples]),
            np.concatenate([s.guarded for s in samples]),
        )

    def __len__(self) -> int:
        return self.f.size

    def unguarded(self):
        """``(f, h)`` of the unguarded draws: views of the stored arrays
        when no draw is guarded, else copies without the guarded draws.
        Callers must not write to them."""
        ok = _unguarded_index(self.guarded)
        return self.f[ok], self.h[ok]

    @functools.cached_property
    def _order(self):
        return np.argsort(self.f)

    def sorted_draws(self, lo=0, hi=None):
        """``(index, f)`` of the unguarded draws ``lo <= i < hi`` in
        increasing F, ties in draw order: the order a stable argsort of
        those draws gives.  Refuses a non-finite F.  Callers must not write
        to them."""
        order = self._order
        hi = len(self) if hi is None else hi
        keep = None if (lo, hi) == (0, len(self)) else (order >= lo) & (order < hi)
        if self.guarded[lo:hi].any():
            unguarded = ~self.guarded[order]
            keep = unguarded if keep is None else keep & unguarded
        # compress, not a boolean index, which is slow on a random mask
        index = order if keep is None else np.compress(keep, order)
        f = self.f[index]
        # -inf sorts first; inf, then nan, sort last
        if f.size and not (np.isfinite(f[0]) and np.isfinite(f[-1])):
            raise InvalidInput("estimators need finite F on unguarded draws")
        if np.any(f[1:] == f[:-1]):
            # the kept argsort is not stable: put tied draws in draw order
            perm = np.lexsort((index, f))
            index = index[perm]
            f = f[perm]
        return index, f


def _require_sample(sample) -> ScoreSample:
    if not isinstance(sample, ScoreSample):
        raise InvalidInput(
            f"estimators take a ScoreSample, got {type(sample).__name__}")
    return sample


def _check_counts(draws: int, guarded: int, minimum: int) -> None:
    """Refuse ``draws`` of which ``guarded`` are guarded: more than
    :data:`GUARDED_FRACTION_LIMIT` of them, or fewer than ``minimum`` left."""
    fraction = guarded / draws if draws else 0.0
    if fraction > GUARDED_FRACTION_LIMIT:
        raise GuardDominated(
            f"guarded fraction {fraction:.4f} exceeds "
            f"{GUARDED_FRACTION_LIMIT:.2%}")
    if draws - guarded < minimum:
        raise InsufficientData(
            f"need at least {minimum} unguarded pairs, have {draws - guarded}")


def _checked(sample, minimum: int, lo=0, hi=None) -> ScoreSample:
    """``sample``, once :func:`_check_counts` passes its draws ``[lo, hi)``."""
    sample = _require_sample(sample)
    guarded = sample.guarded[lo:hi]
    _check_counts(guarded.size, int(guarded.sum()), minimum)
    return sample


def _mean_se(values):
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class UpperAccumulator:
    """Mergeable statistics of the upper bound ``E|H - F|^2``.

    ``draws`` and ``guarded`` count all draws and the guarded ones; ``mean``
    is the mean of ``(H - F)^2`` over the unguarded draws and ``m2`` the sum
    of its squared deviations from ``mean``.  Blocks of draws are reduced by
    :meth:`of`, combined by :meth:`merge` and turned into the estimate by
    :meth:`finish`, which is where the draw counts are checked.
    """

    draws: int
    guarded: int
    mean: float
    m2: float

    @classmethod
    def of(cls, sample) -> "UpperAccumulator":
        """One sample's statistics, with one temporary the size of its
        unguarded draws; ``mean`` and ``m2`` are computed as numpy's
        ``mean`` and ``std`` compute them, so :meth:`finish` of a single
        block gives their bits."""
        sample = _require_sample(sample)
        f, h = sample.unguarded()
        # a non-finite F or H leaves mean or m2 non-finite, which finish refuses
        with np.errstate(over="ignore", invalid="ignore"):
            d = h - f
            np.multiply(d, d, out=d)
            mean = float(d.mean()) if d.size else 0.0
            d -= mean
            m2 = float(np.multiply(d, d, out=d).sum())
        return cls(len(sample), len(sample) - d.size, mean, m2)

    def merge(self, other: "UpperAccumulator") -> "UpperAccumulator":
        """The statistics of both blocks of draws, by the pairwise update of
        Chan, Golub & LeVeque (1979); merging in a fixed order gives fixed
        bits."""
        a = self.draws - self.guarded
        b = other.draws - other.guarded
        if b == 0 or a == 0:
            mean, m2 = (self.mean, self.m2) if b == 0 else (other.mean, other.m2)
        else:
            delta = other.mean - self.mean
            mean = self.mean + delta * (b / (a + b))
            m2 = self.m2 + other.m2 + delta * delta * (a * b / (a + b))
        return UpperAccumulator(self.draws + other.draws,
                                self.guarded + other.guarded, mean, m2)

    def finish(self):
        """``(estimate, standard_error, guarded_fraction)``; refused when more
        than 1% of the draws are guarded or fewer than 1000 are not, and
        when an unguarded draw's ``F`` or ``H`` is not finite (which leaves
        ``mean`` or ``m2`` non-finite)."""
        _check_counts(self.draws, self.guarded, 10 ** 3)
        if not (math.isfinite(self.mean) and math.isfinite(self.m2)):
            raise InvalidInput(
                "the upper bound needs finite F, H and (H - F)^2 on "
                "unguarded draws")
        n = self.draws - self.guarded
        return (self.mean, math.sqrt(self.m2 / (n - 1)) / math.sqrt(n),
                self.guarded / self.draws)


def readout_models(model, readouts) -> tuple:
    """``(model,)`` when ``readouts`` is None, else the readouts, whose laws
    must be the first ``r.n`` of the model's."""
    models = (model,) if readouts is None else tuple(readouts)
    if any(r.dists != model.dists[:r.n] for r in models):
        raise InvalidInput("a readout's laws must be the first of the model's")
    return models


def merge_in_order(parts):
    """One :class:`UpperAccumulator` per readout from ``parts``, each a list
    with one per readout, merged in the parts' order."""
    return functools.reduce(
        lambda accs, part: [a.merge(b) for a, b in zip(accs, part)], parts)


def reduce_draw(blocks, readouts=None):
    """A draw's ``blocks``, each a model's ``evaluate`` at ``readouts``: the
    sample of all the draws when ``readouts`` is None, else one
    :class:`UpperAccumulator` per readout, each block reduced as it arrives
    and merged in order, so no sample outlives its block."""
    if readouts is None:
        return ScoreSample.concat(list(blocks))
    return merge_in_order([UpperAccumulator.of(s) for s in samples]
                          for samples in blocks)


def fisher_distance_upper(sample):
    """Sample mean and standard error of ``(H - F)^2``; the upper bound.

    Returns ``(estimate, standard_error, guarded_fraction)``: the
    :class:`UpperAccumulator` of the sample as one block, finished.
    """
    return UpperAccumulator.of(sample).finish()


@dataclass(frozen=True)
class BinConfig:
    bins: int = 64


@dataclass(frozen=True)
class BinnedScore:
    """Equal-mass binned estimate of the score ``rho(x) = -E[H | F = x]``."""

    bin_edges: np.ndarray
    bin_means: np.ndarray
    bin_counts: np.ndarray

    def evaluate(self, x):
        """Piecewise-constant score; points outside clamp to the end bins."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.bin_edges[1:-1], x, side="right"),
                      0, self.bin_means.size - 1)
        return self.bin_means[idx]


def _fit_score(sample, bin_config: BinConfig, lo, hi) -> BinnedScore:
    index, fs = _checked(sample, 10 ** 4, lo, hi).sorted_draws(lo, hi)
    hs = sample.h[index]
    np.negative(hs, out=hs)
    n = fs.size
    # n / bins >= MIN_BIN_COUNT, so every rounded count is at least that
    bins = max(1, min(int(bin_config.bins), n // MIN_BIN_COUNT))
    cut = np.round(np.linspace(0, n, bins + 1)).astype(int)
    counts = np.diff(cut)

    sums = np.add.reduceat(hs, cut[:-1])
    means = sums / counts
    edges = np.concatenate(([fs[0]], fs[np.minimum(cut[1:-1], n - 1)], [fs[-1]]))
    # Guarantee strictly increasing edges even with tied f draws.
    for i in range(1, edges.size):
        if edges[i] <= edges[i - 1]:
            edges[i] = np.nextafter(edges[i - 1], np.inf)
    return BinnedScore(bin_edges=edges, bin_means=means, bin_counts=counts)


def fit_score(sample, bin_config: BinConfig = BinConfig()) -> BinnedScore:
    """Equal-mass binning of ``-H`` on ``F`` into at most
    ``n // MIN_BIN_COUNT`` bins of at least ``MIN_BIN_COUNT`` draws each."""
    return _fit_score(sample, bin_config, 0, None)


def _plugin(sample, score: BinnedScore, lo, hi):
    """``mean (rho_hat(F) + F)^2`` over the unguarded draws ``[lo, hi)``:
    evaluated in increasing F, where the bin search narrows, and averaged
    in draw order."""
    index, fs = _checked(sample, 10 ** 3, lo, hi).sorted_draws(lo, hi)
    err = score.evaluate(fs)
    err += fs
    err *= err
    del fs  # before in_order comes, so the peak stays at 24 bytes a draw
    guarded = sample.guarded[lo:hi]
    in_order = np.empty(guarded.size)
    in_order[index - lo] = err
    return _mean_se(in_order[_unguarded_index(guarded)])


def fisher_distance_plugin(sample, score: BinnedScore):
    """Plug-in estimate ``mean (rho_hat(F) + F)^2`` on held-out draws.

    The caller must have fitted ``score`` on an independent half of the
    draws; :func:`plugin_split` packages that discipline.
    """
    return _plugin(sample, score, 0, None)


def plugin_split(sample, bin_config: BinConfig = BinConfig()):
    """Fit the score on the first half, evaluate the plug-in on the second.

    Returns ``(estimate, standard_error, score)``.
    """
    mid = len(_require_sample(sample)) // 2
    score = _fit_score(sample, bin_config, 0, mid)
    est, se = _plugin(sample, score, mid, None)
    return est, se, score


@dataclass(frozen=True)
class DensityEstimate:
    """Indicator-weighted density estimate and its standard errors on a grid."""

    values: np.ndarray
    std_errors: np.ndarray


def density_representation(sample, x_grid) -> DensityEstimate:
    """Estimate the density of ``F`` as ``mean(1{F > x} * H)`` on a grid.

    Each draw's cell index counts the grid points below it, so ``f > x_j``
    exactly when the index exceeds ``j``; the cells are read off the
    sample's sorted F, and per-cell sums of ``h`` and ``h^2``, summed from
    the right, give every grid point.
    """
    sample = _checked(sample, 10 ** 4)
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidInput("x_grid must be 1-D with at least 2 points")
    if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0.0):
        raise InvalidInput("x_grid must be finite and strictly increasing")
    index, fs = sample.sorted_draws()
    m = fs.size
    # the draws with cell j sit at sorted places bounds[j - 1]:bounds[j];
    # their cells are written in draw order, with no sorted copy of them
    bounds = [0, *np.searchsorted(fs, grid, side="right").tolist(), m]
    del fs  # before cells comes, so the peak stays at 24 bytes a draw
    cells = np.empty(len(sample), dtype=np.intp)
    for j in range(grid.size + 1):
        cells[index[bounds[j]:bounds[j + 1]]] = j
    ok = _unguarded_index(sample.guarded)
    cells, h = cells[ok], sample.h[ok]

    def sum_above(w):
        per_cell = np.bincount(cells, weights=w, minlength=grid.size + 1)
        return np.cumsum(per_cell[::-1])[-2::-1]

    s1, s2 = sum_above(h), sum_above(h * h)
    values = s1 / m
    ses = np.sqrt(np.maximum((s2 - s1 * values) / (m - 1), 0.0)) / math.sqrt(m)
    return DensityEstimate(values=values, std_errors=ses)


@dataclass(frozen=True)
class RateFit:
    """Ordinary least squares of ``log error`` on ``log n``."""

    slope: float
    intercept: float
    r_squared: float


def fit_rate(n_values, error_values) -> RateFit:
    n_values = np.asarray(n_values, dtype=float)
    error_values = np.asarray(error_values, dtype=float)
    if n_values.size != error_values.size:
        raise InvalidInput("n_values and error_values must align")
    if n_values.size < 4:
        raise InvalidInput("rate fits need at least 4 grid points")
    if not (np.all((0.0 < n_values) & (n_values < np.inf))
            and np.all((0.0 < error_values) & (error_values < np.inf))):
        raise InvalidInput("rate fits require finite positive n and error values")
    lx = np.log(n_values)
    ly = np.log(error_values)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
