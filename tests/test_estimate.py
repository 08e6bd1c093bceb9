import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from steinfisher.distributions import CHUNK, catalog_get
from steinfisher.errors import (GuardDominated, InsufficientData, InvalidInput)
from steinfisher.estimate import (GUARD, MIN_BIN_COUNT, BinConfig,
                                  ScoreSample,
                                  density_representation,
                                  fisher_distance_plugin,
                                  UpperAccumulator, fisher_distance_upper,
                                  fit_rate, fit_score, plugin_split)
from steinfisher.quadform import (CoefficientMatrix, QuadFormModel,
                                  _draw_block, banded_coefficients,
                                  draw_score_pairs)
from steinfisher.samplemean import (identity_link, draw_score_pairs_sm,
                                    linear_sum_pairs, sample_mean_model)
from steinfisher.streams import substream


def gaussian_sum_sample(n=16, reps=100_000, seed=1):
    g = catalog_get("gaussian")
    model = sample_mean_model(identity_link(), [g] * n, n)
    return draw_score_pairs_sm(model, substream(seed, "gsum"), reps)


def test_guard_is_shared_by_both_families():
    # one guard constant: the quadform all-zero draw (Theta = 0) and the
    # uniform n = 1 draw at sqrt(3) (nabla = tau(sqrt(3)) ~ 2.2e-16)
    g, u = catalog_get("gaussian"), catalog_get("uniform")
    quad = QuadFormModel(CoefficientMatrix([[0.0, 1.0], [1.0, 0.0]]), [g, g])
    mean = sample_mean_model(identity_link(), [u], 1)
    for model, x in ((quad, np.zeros((1, 2))),
                     (mean, np.array([[math.sqrt(3.0)]]))):
        sample = model.evaluate(x)
        assert abs(sample.aux[0]) < GUARD
        assert bool(sample.guarded[0]) and math.isnan(sample.h[0])


@pytest.mark.parametrize("estimator", [
    fisher_distance_upper, fit_score, plugin_split,
    lambda s: fisher_distance_plugin(s, None),
    lambda s: density_representation(s, [0.0, 1.0]),
])
def test_estimators_take_only_score_samples(estimator):
    sample = gaussian_sum_sample(reps=20_000)
    pairs = list(zip(sample.f.tolist(), sample.h.tolist()))
    with pytest.raises(InvalidInput):
        estimator(pairs)


def synthetic_sample(guard_one: bool, m=40_000):
    rng = np.random.default_rng(17)
    f = rng.standard_normal(m)
    normalizer = rng.uniform(0.5, 2.0, m)
    if guard_one:
        normalizer[123] = 0.0
    return ScoreSample.represent(f, f, normalizer, rng.standard_normal(m))


def test_unguarded_is_a_view_only_when_nothing_is_guarded():
    whole = synthetic_sample(guard_one=False)
    f, h = whole.unguarded()
    assert np.shares_memory(f, whole.f) and np.shares_memory(h, whole.h)
    assert not np.isnan(whole.h).any()
    one = synthetic_sample(guard_one=True)
    assert one.guarded.sum() == 1 and np.isnan(one.h[123])
    f, h = one.unguarded()
    assert not (np.shares_memory(f, one.f) or np.shares_memory(h, one.h))
    keep = np.arange(len(one)) != 123
    assert np.array_equal(f, one.f[keep]) and np.array_equal(h, one.h[keep])
    # represent's unmasked H is the masked one, bit for bit
    assert np.array_equal(one.h[keep], whole.h[keep])


@pytest.mark.parametrize("guard_one", [False, True])
def test_estimators_match_the_masked_path(guard_one, monkeypatch):
    sample = synthetic_sample(guard_one)
    grid = np.linspace(-3.0, 3.0, 31)

    def results():
        est, se, score = plugin_split(sample)
        density = density_representation(sample, grid)
        return (fisher_distance_upper(sample), (est, se), score.bin_edges,
                score.bin_means, density.values, density.std_errors)

    fast = results()
    monkeypatch.setattr(ScoreSample, "unguarded", lambda s: (
        s.f[~s.guarded], s.h[~s.guarded]))
    for u, v in zip(fast, results()):
        assert np.array_equal(u, v)


def reference_fit(f, h, bins):
    """``fit_score`` on unguarded ``(f, h)`` as it ran before samples kept
    an order of F: a stable argsort of the draws it bins."""
    order = np.argsort(f, kind="stable")
    fs, hs = f[order], -h[order]
    n = fs.size
    bins = max(1, min(bins, n // MIN_BIN_COUNT))
    cut = np.round(np.linspace(0, n, bins + 1)).astype(int)
    means = np.add.reduceat(hs, cut[:-1]) / np.diff(cut)
    edges = np.concatenate(([fs[0]], fs[np.minimum(cut[1:-1], n - 1)], [fs[-1]]))
    for i in range(1, edges.size):
        if edges[i] <= edges[i - 1]:
            edges[i] = np.nextafter(edges[i - 1], np.inf)
    return edges, means


def reference_plugin(f, edges, means):
    """The plug-in on unguarded ``f``, bins searched draw by draw."""
    idx = np.clip(np.searchsorted(edges[1:-1], f, side="right"), 0, means.size - 1)
    err = (means[idx] + f) ** 2
    return float(err.mean()), float(err.std(ddof=1) / math.sqrt(err.size))


def reference_density(f, h, grid):
    """The density on unguarded ``(f, h)``, cells searched draw by draw."""
    cells = np.searchsorted(grid, f, side="left")
    s1, s2 = (np.cumsum(np.bincount(cells, weights=w, minlength=grid.size + 1)
                        [::-1])[-2::-1] for w in (h, h * h))
    m = f.size
    values = s1 / m
    ses = np.sqrt(np.maximum((s2 - s1 * values) / (m - 1), 0.0)) / math.sqrt(m)
    return values, ses


REFERENCE_GRID = np.linspace(-4.0, 4.0, 201)


def reference_case(name):
    rng = np.random.default_rng(29)
    m = 40_001 if name == "odd" else 40_000
    f = rng.standard_normal(m)
    guarded = np.zeros(m, dtype=bool)
    if name == "rounded":
        f = np.round(f, 2)
    elif name == "guarded":
        guarded[rng.choice(m, 300, replace=False)] = True
        assert guarded[:m // 2].any() and guarded[m // 2:].any()
    elif name == "on_grid":
        f[::4] = REFERENCE_GRID[rng.integers(0, REFERENCE_GRID.size, m // 4)]
    h = np.where(guarded, np.nan, -f + 0.5 * rng.standard_normal(m))
    return ScoreSample(f=f, h=h, aux=np.ones(m), guarded=guarded)


@pytest.mark.parametrize("name", ["rounded", "guarded", "on_grid", "odd"])
def test_sorted_estimators_match_the_draw_order_reference(name):
    # the estimators read one kept argsort of F; the reference sorts each
    # half stably and searches unsorted draws, and every bit must agree
    sample = reference_case(name)
    ok, mid = ~sample.guarded, len(sample) // 2
    first = np.arange(len(sample)) < mid
    second = ~first
    if name == "rounded":
        # ties that numpy's default argsort leaves out of draw order
        f1 = sample.f[:mid]
        assert not np.array_equal(np.argsort(f1), np.argsort(f1, kind="stable"))
    edges, means = reference_fit(sample.f[ok & first], sample.h[ok & first], 256)
    est, se, score = plugin_split(sample, BinConfig(bins=256))
    assert np.array_equal(score.bin_edges, edges)
    assert np.array_equal(score.bin_means, means)
    assert (est, se) == reference_plugin(sample.f[ok & second], edges, means)

    edges, means = reference_fit(sample.f[ok], sample.h[ok], 64)
    whole = fit_score(sample)
    assert np.array_equal(whole.bin_edges, edges)
    assert np.array_equal(whole.bin_means, means)
    assert fisher_distance_plugin(sample, whole) == reference_plugin(
        sample.f[ok], edges, means)

    density = density_representation(sample, REFERENCE_GRID)
    values, ses = reference_density(sample.f[ok], sample.h[ok], REFERENCE_GRID)
    assert np.array_equal(density.values, values)
    assert np.array_equal(density.std_errors, ses)


def test_plugin_and_density_sort_f_once(monkeypatch):
    sample = synthetic_sample(guard_one=True)
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    plugin_split(sample)
    density_representation(sample, REFERENCE_GRID)
    assert calls == [{}]


def test_plugin_and_density_memory_per_draw():
    # 8 bytes a draw for the kept order of F and 16 transient (the
    # density's draw-order cells and h^2); the fixed 32 KiB holds the
    # arrays the size of the grid and the bins
    sample = gaussian_sum_sample(reps=200_000)
    tracemalloc.start()
    try:
        plugin_split(sample)
        density_representation(sample, REFERENCE_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * len(sample) + 32 * 1024


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [1_000, 30_000])
@pytest.mark.parametrize("estimator", [
    fit_score, plugin_split,
    lambda s: fisher_distance_plugin(s, fit_score(synthetic_sample(False))),
    lambda s: density_representation(s, REFERENCE_GRID),
])
def test_order_statistic_estimators_refuse_non_finite_f(estimator, where, bad):
    # draw 1_000 is in plugin_split's fitting half, draw 30_000 in its
    # held-out half; the guarded draw 123's F is never read
    sample = synthetic_sample(guard_one=True)
    f = sample.f.copy()
    f[123] = bad
    estimator(ScoreSample(f, sample.h, sample.aux, sample.guarded))
    f[where] = bad
    with pytest.raises(InvalidInput, match="finite F"):
        estimator(ScoreSample(f, sample.h, sample.aux, sample.guarded))


def test_upper_gaussian_fixed_point_and_adversarial():
    sample = gaussian_sum_sample(reps=5000)
    est, se, gf = fisher_distance_upper(sample)
    assert est == 0.0 and se == 0.0 and gf == 0.0
    rng = np.random.default_rng(0)
    f = rng.standard_normal(50_000)
    adversarial = ScoreSample(f=f, h=np.zeros_like(f), aux=np.ones_like(f),
                              guarded=np.zeros_like(f, dtype=bool))
    est, se, _ = fisher_distance_upper(adversarial)
    assert est == pytest.approx(1.0, abs=4 * se)


def test_upper_requires_data_and_guard_limit():
    small = gaussian_sum_sample(reps=500)
    with pytest.raises(InsufficientData):
        fisher_distance_upper(small)
    f = np.zeros(10_000)
    guarded = np.zeros(10_000, dtype=bool)
    guarded[:200] = True  # 2 percent
    h = np.where(guarded, np.nan, 0.0)
    with pytest.raises(GuardDominated):
        fisher_distance_upper(ScoreSample(f=f, h=h, aux=f, guarded=guarded))


def test_merged_accumulators_match_two_pass_over_the_whole_sample():
    # Uneven shards, one of them all guarded and some with guarded draws.
    rng = np.random.default_rng(3)
    shards = []
    for size, n_guarded in ((16384, 0), (1, 0), (7, 7), (5000, 30), (333, 2)):
        f = rng.standard_normal(size)
        h = f + 0.3 * rng.standard_exponential(size) - 0.1
        guarded = np.zeros(size, dtype=bool)
        guarded[rng.choice(size, n_guarded, replace=False)] = True
        h[guarded] = np.nan
        shards.append(ScoreSample(f=f, h=h, aux=np.ones(size), guarded=guarded))
    merged = UpperAccumulator.of(shards[0])
    for shard in shards[1:]:
        merged = merged.merge(UpperAccumulator.of(shard))
    est, se, gf = merged.finish()
    whole = ScoreSample.concat(shards)
    ok = ~whole.guarded
    values = (whole.h[ok] - whole.f[ok]) ** 2
    assert est == pytest.approx(values.mean(), rel=1e-12, abs=0.0)
    assert se == pytest.approx(values.std(ddof=1) / math.sqrt(values.size),
                               rel=1e-12, abs=0.0)
    assert gf == 39 / len(whole)
    # one block gives numpy's two-pass bits
    assert fisher_distance_upper(whole)[:2] == (
        float(values.mean()),
        float(values.std(ddof=1) / math.sqrt(values.size)))


@pytest.mark.parametrize("family", ["samplemean", "quadform"])
def test_one_readout_reduces_the_plain_draw(family):
    # A draw read out at its own model is the plain draw's accumulator:
    # to the bit over one block, and merged in order over several.
    law, n = catalog_get("exponential_centered"), 24
    if family == "samplemean":
        model = sample_mean_model(identity_link(), [law] * n, n)
        draw, block = draw_score_pairs_sm, CHUNK
    else:
        model = QuadFormModel(banded_coefficients(n), [law] * n)
        draw, block = draw_score_pairs, _draw_block(n)
    for reps in (block, 3 * block + 777):
        [got] = draw(model, substream(12, "one", family, reps), reps,
                     readouts=[model])
        want = UpperAccumulator.of(draw(model,
                                        substream(12, "one", family, reps),
                                        reps))
        if reps == block:
            assert got == want
        else:
            assert (got.draws, got.guarded) == (want.draws, want.guarded)
            assert got.mean == pytest.approx(want.mean, rel=1e-12)
            assert got.m2 == pytest.approx(want.m2, rel=1e-12)


def test_draw_counts_are_checked_once_merged():
    # A 100-draw shard with 5 guarded draws is refused on its own, on
    # either count, and passes once merged with a clean full shard.
    f = np.zeros(100)
    guarded = np.zeros(100, dtype=bool)
    guarded[:5] = True
    short = UpperAccumulator.of(ScoreSample(
        f=f, h=np.where(guarded, np.nan, 0.5), aux=f, guarded=guarded))
    with pytest.raises(GuardDominated):
        short.finish()
    clean = UpperAccumulator(draws=100, guarded=0, mean=0.25, m2=0.0)
    with pytest.raises(InsufficientData, match="have 100"):
        clean.finish()
    f = np.zeros(16384)
    full = UpperAccumulator.of(ScoreSample(
        f=f, h=f + 0.5, aux=np.ones_like(f), guarded=np.zeros(16384, bool)))
    est, se, gf = full.merge(short).finish()
    assert (est, se, gf) == (0.25, 0.0, 5 / 16484)


@pytest.mark.parametrize("column", ["f", "h"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_upper_refuses_non_finite_draws(column, bad):
    # one unguarded draw with a non-finite F or H once gave (nan, nan, 0.0)
    rng = np.random.default_rng(58)
    f = rng.standard_normal(40_000)
    cols = {"f": f, "h": -f + 0.1 * rng.standard_normal(f.size)}
    cols[column][25_000] = bad
    ones, clear = np.ones_like(f), np.zeros(f.size, dtype=bool)
    with pytest.raises(InvalidInput, match="finite"):
        fisher_distance_upper(ScoreSample(cols["f"], cols["h"], ones, clear))
    # four 10 000-draw blocks, the bad draw in the third, merged either way
    accs = [UpperAccumulator.of(ScoreSample(*(c[a:a + 10_000] for c in
                                              (cols["f"], cols["h"], ones, clear))))
            for a in range(0, f.size, 10_000)]
    for order in (accs, accs[::-1]):
        with pytest.raises(InvalidInput, match="finite"):
            functools.reduce(UpperAccumulator.merge, order).finish()


def test_upper_refuses_an_overflowing_square():
    f = np.zeros(2000)
    h = np.full(2000, 0.5)
    h[7] = 1e200  # (H - F)^2 overflows though H is finite
    sample = ScoreSample(f=f, h=h, aux=np.ones_like(f),
                         guarded=np.zeros(f.size, dtype=bool))
    with pytest.raises(InvalidInput, match="finite"):
        fisher_distance_upper(sample)


def test_fit_score_merges_undersized_bins():
    # more bins than the data can fill at MIN_BIN_COUNT are capped to fewer
    sample = gaussian_sum_sample(reps=10_250)
    score = fit_score(sample, BinConfig(bins=400))
    assert np.all(score.bin_counts >= MIN_BIN_COUNT)
    assert int(score.bin_counts.sum()) == len(sample)
    assert np.all(np.diff(score.bin_edges) > 0)


def test_fit_score_recovers_gaussian_score():
    sample = gaussian_sum_sample(reps=100_000)
    score = fit_score(sample)
    assert np.all(np.diff(score.bin_edges) > 0)
    assert np.all(score.bin_counts >= MIN_BIN_COUNT)
    centers = 0.5 * (score.bin_edges[1:] + score.bin_edges[:-1])
    central = np.abs(centers) <= norm.ppf(0.95)
    assert np.max(np.abs(score.bin_means[central] + centers[central])) <= 0.05


@pytest.mark.parametrize("name", ["uniform", "student_t(20)"])
def test_fit_score_single_coordinate_against_true_score(name):
    d = catalog_get(name)
    model = sample_mean_model(identity_link(), [d], 1)
    sample = draw_score_pairs_sm(model, substream(11, "one", name), 100_000)
    score = fit_score(sample)
    centers = 0.5 * (score.bin_edges[1:] + score.bin_edges[:-1])
    lo, hi = np.quantile(sample.f, [0.05, 0.95])
    central = (centers >= lo) & (centers <= hi)
    truth = d.log_density_derivative(centers[central])
    assert np.max(np.abs(score.bin_means[central] - truth)) <= 0.1


def test_plugin_gaussian_noise_floor_and_split_discipline():
    sample = gaussian_sum_sample(reps=100_000)
    est, se, score = plugin_split(sample)
    assert est <= 0.01
    # the fitted score must come from the first half only
    mid = len(sample) // 2
    first = ScoreSample(sample.f[:mid], sample.h[:mid], sample.aux[:mid],
                        sample.guarded[:mid])
    refit = fit_score(first)
    assert np.array_equal(refit.bin_edges, score.bin_edges)
    assert np.array_equal(refit.bin_means, score.bin_means)


def test_plugin_split_halves_never_share_draws():
    # disjoint f-ranges across halves expose any leakage immediately
    m = 30_000
    f = np.concatenate([np.linspace(0, 1, m), np.linspace(10, 11, m)])
    h = -f
    sample = ScoreSample(f=f, h=h, aux=np.ones_like(f),
                         guarded=np.zeros_like(f, dtype=bool))
    _, _, score = plugin_split(sample)
    assert score.bin_edges[0] >= 0.0 and score.bin_edges[-1] <= 1.0


def test_plugin_monotone_in_n_for_uniform_sums():
    # the n-differential of the true distance is tiny for a symmetric law,
    # so this needs fine bins and many draws to rise above the binning floor
    u = catalog_get("uniform")
    results = {}
    for n in (32, 128):
        sample, _ = linear_sum_pairs([u] * n, n, substream(0, "m3", n), 400_000)
        results[n], _, _ = plugin_split(sample, BinConfig(bins=256))
    assert results[128] < results[32]


def test_density_representation_gaussian():
    sample = gaussian_sum_sample(n=32, reps=100_000, seed=9)
    grid = np.linspace(-3.5, 3.5, 71)
    de = density_representation(sample, grid)
    assert np.max(np.abs(de.values - norm.pdf(grid))) <= 0.02
    assert np.trapezoid(de.values, grid) == pytest.approx(1.0, abs=0.02)
    # a histogram of the same draws on cells centred at the grid points
    mids = 0.5 * (grid[1:] + grid[:-1])
    edges = np.concatenate(([2.0 * grid[0] - mids[0]], mids,
                            [2.0 * grid[-1] - mids[-1]]))
    f, _ = sample.unguarded()
    counts, _ = np.histogram(f, bins=edges)
    scale = f.size * np.diff(edges)
    hist, hist_se = counts / scale, np.sqrt(np.maximum(counts, 1.0)) / scale
    gap = np.abs(de.values - hist)
    bars = 3.0 * np.maximum(de.std_errors, hist_se)
    assert np.all(gap <= bars)


def test_density_representation_matches_per_point_definition():
    # the brute-force definition, one pass per grid point, against the
    # bucketed estimator: draws sit exactly on grid points (strict >), the
    # grid overhangs both ends of the draws, and a few draws are guarded
    rng = np.random.default_rng(5)
    m = 20_000
    grid = np.linspace(-6.0, 6.0, 61)
    f = np.clip(rng.standard_normal(m), -4.5, 4.5)
    f[:2000] = grid[rng.integers(10, 51, size=2000)]
    h = -f + 0.3 * rng.standard_normal(m)
    guarded = np.zeros(m, dtype=bool)
    guarded[rng.choice(m, size=60, replace=False)] = True
    h[guarded] = np.nan
    sample = ScoreSample(f=f, h=h, aux=np.ones(m), guarded=guarded)
    de = density_representation(sample, grid)

    fu, hu = f[~guarded], h[~guarded]
    want_values = np.empty(grid.size)
    want_ses = np.empty(grid.size)
    assert np.isin(fu, grid).sum() >= 1000
    for j, x in enumerate(grid):
        w = np.where(fu > x, hu, 0.0)
        want_values[j] = w.mean()
        want_ses[j] = w.std(ddof=1) / math.sqrt(w.size)
    assert np.max(np.abs(de.values - want_values)) <= 1e-12
    np.testing.assert_allclose(de.std_errors, want_ses, rtol=1e-12, atol=0.0)
    # past the largest draw no indicator is on
    assert grid[0] < fu.min() and grid[-1] > fu.max()
    assert de.values[-1] == 0.0 and de.std_errors[-1] == 0.0


@pytest.mark.parametrize("grid", [
    [], [0.0], [1.0, 0.0], [0.0, 0.0, 1.0], [0.0, np.nan, 1.0],
    [0.0, np.inf], [[0.0, 1.0], [2.0, 3.0]],
])
def test_density_representation_rejects_bad_grids(grid):
    sample = gaussian_sum_sample(reps=20_000)
    with pytest.raises(InvalidInput):
        density_representation(sample, grid)


def irwin_hall_sum_density(s, n):
    """Exact density of sum(X_i) / sqrt(n) for standardized uniform X_i."""
    s = np.asarray(s, dtype=float)
    # map to T = sum(U_i), U ~ U(0, 1): S = 2 sqrt(3/n) (T - n / 2)
    scale = 2.0 * math.sqrt(3.0 / n)
    t = s / scale + n / 2.0
    val = np.zeros_like(t)
    for k in range(n + 1):
        val += (-1.0) ** k * math.comb(n, k) * np.clip(t - k, 0.0, None) ** (n - 1)
    return val / math.factorial(n - 1) / scale


def test_density_representation_uniform_sum():
    # n = 1 is outside the representation's hypotheses for this law (the
    # kernel vanishes at the support edges), but small sums are covered and
    # have an exact piecewise-polynomial density to compare against
    u = catalog_get("uniform")
    n = 4
    sample, _ = linear_sum_pairs([u] * n, n, substream(23, "du"), 100_000)
    grid = np.linspace(-3.6, 3.6, 73)  # support is +-2 sqrt(3)
    de = density_representation(sample, grid)
    truth = irwin_hall_sum_density(grid, n)
    assert np.max(np.abs(de.values - truth)) <= 0.05
    assert np.trapezoid(de.values, grid) == pytest.approx(1.0, abs=0.02)


def test_fit_rate_synthetic_and_validation():
    ns = [8, 16, 32, 64, 128]
    exact = fit_rate(ns, [3.0 / n for n in ns])
    assert exact.slope == pytest.approx(-1.0, abs=1e-12)
    assert exact.r_squared == pytest.approx(1.0, abs=1e-12)
    half = fit_rate(ns, [2.0 / math.sqrt(n) for n in ns])
    assert half.slope == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(InvalidInput):
        fit_rate(ns, [1.0, -1.0, 0.5, 0.25, 0.1])
    with pytest.raises(InvalidInput):
        fit_rate([8, 16, 32], [1, 2, 3])


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.floats(-2.0, -0.1), st.floats(0.1, 50.0))
def test_fit_rate_recovers_any_power_law(slope, scale):
    ns = np.array([8.0, 16.0, 32.0, 64.0])
    fit = fit_rate(ns, scale * ns ** slope)
    assert fit.slope == pytest.approx(slope, rel=1e-9, abs=1e-9)
    assert fit.r_squared >= 1.0 - 1e-12


def test_estimates_bit_identical_across_runs():
    a = gaussian_sum_sample(n=8, reps=20_000, seed=77)
    b = gaussian_sum_sample(n=8, reps=20_000, seed=77)
    ua, ub = fisher_distance_upper(a), fisher_distance_upper(b)
    assert ua == ub
    pa, pb = plugin_split(a)[0], plugin_split(b)[0]
    assert pa == pb
