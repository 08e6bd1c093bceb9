import math
import tracemalloc

import numpy as np
import pytest

from steinfisher import samplemean
from steinfisher.distributions import (CHUNK, catalog_get, chunk_sizes,
                                       sample_columns)
from steinfisher.errors import DegenerateVariance, InvalidInput
from steinfisher.estimate import (ScoreSample, UpperAccumulator,
                                  fisher_distance_upper)
from steinfisher.samplemean import (SampleMeanModel, SmoothLink,
                                    _unit_scaled, affine_sin_link,
                                    draw_score_pairs_sm,
                                    identity_link, linear_sum_pairs,
                                    link_by_name,
                                    pre_pass, sample_mean_model, sin_link,
                                    tanh_link)
from steinfisher.streams import substream

from conftest import (CATALOG_NAMES, assert_block_layouts_agree,
                      assert_cross_term_matches_finite_differences,
                      assert_stein_identity, counting_spec, sample_mean_g)


def test_link_parsing_and_bounds():
    for name in ("identity", "sin", "tanh"):
        link = link_by_name(name)
        assert link.name == name
    aff = link_by_name("affine_sin(1.0,0.5)")
    assert aff.h_prime_at_0 == pytest.approx(1.5)
    with pytest.raises(InvalidInput):
        link_by_name("cosine")
    with pytest.raises(InvalidInput):
        affine_sin_link(1.0, -1.0)  # H'(0) = 0


def test_model_scales_the_link_by_a_power_of_two():
    u = catalog_get("uniform")
    models = [sample_mean_model(affine_sin_link(a, b), [u] * 8, 8,
                                stream=substream(13, "pp"), prepass_reps=10 ** 4)
              for a, b in ((1.0, 0.5), (4.0, 2.0), (2.0 ** -600, 2.0 ** -601))]
    # H'(0) = 1.5 times 2^0, 2^2 and 2^-600, all brought to 0.75
    assert [m.link.h_prime_at_0 for m in models] == [0.75] * 3
    assert models[0].link.name == "affine_sin(1,0.5)"
    x = sample_columns([u] * 8, substream(13, "x"), 3000)
    first = models[0].evaluate(x)
    for other in models[1:]:
        assert (other.mu_h, other.sigma) == (models[0].mu_h, models[0].sigma)
        sample = other.evaluate(x)
        for a, b in ((first.f, sample.f), (first.h, sample.h),
                     (first.aux, sample.aux)):
            assert np.array_equal(a, b)
    # unit links are left as they are
    link = sin_link()
    assert sample_mean_model(link, [u] * 8, 8, stream=substream(13, "pp"),
                             prepass_reps=10 ** 4).link is link


def test_model_needs_a_coordinate():
    with pytest.raises(InvalidInput):
        sample_mean_model(identity_link(), [])


def _unit_affine_sin_link():
    return _unit_scaled(affine_sin_link(2.0 ** -600, 2.0 ** -601))


LINKS = {
    "identity": identity_link,
    "sin": sin_link,
    "tanh": tanh_link,
    "affine_sin(1,0.5)": lambda: affine_sin_link(1.0, 0.5),
    "unit affine_sin(2**-600,2**-601)": _unit_affine_sin_link,
}


@pytest.mark.parametrize("link_fn", LINKS.values())
def test_link_derivative_bounds_on_grid(link_fn):
    # H' and H'' against central differences of H and H' on [-4, 4]
    link = link_fn()
    x = np.linspace(-4.0, 4.0, 161)
    step = 2.0 ** -16
    h, hp, h2 = link.jet(x)
    up, down = link.jet(x + step), link.jet(x - step)
    for i, d in ((0, hp), (1, h2)):
        diff = (up[i] - down[i]) / (2.0 * step)
        assert np.max(np.abs(diff - d)) <= 1e-8
    assert np.all(np.abs(hp) <= 2.0) and np.all(np.abs(h2) <= 2.0)
    assert link.h_prime_at_0 == hp[80] and 0.5 < abs(hp[80]) <= 2.0


def _tanh_closed_forms(x):
    # 1 / cosh(x)^2 and -2 tanh(x) / cosh(x)^2, in the operation order of
    # the separate closed forms each jet must reproduce
    c = np.cosh(np.asarray(x, dtype=float))
    c = np.square(c)
    return np.tanh(x), 1.0 / c, np.tanh(x) * -2.0 / c


def _affine_sin_closed_forms(a, b):
    def closed_forms(x):
        x = np.asarray(x, dtype=float)
        return a * x + b * np.sin(x), np.cos(x) * b + a, np.sin(x) * -b
    return closed_forms


def _unit_affine_closed_forms(x):
    # 2**-600 + 2**-601 = 1.5 * 2**-600, which the model scales by 2**599
    return tuple(np.ldexp(v, 599)
                 for v in _affine_sin_closed_forms(2.0 ** -600, 2.0 ** -601)(x))


CLOSED_FORMS = {
    "identity": lambda x: (np.asarray(x, dtype=float),
                           np.ones_like(np.asarray(x, dtype=float)),
                           np.zeros_like(np.asarray(x, dtype=float))),
    "sin": lambda x: (np.sin(x), np.cos(x), -np.sin(x)),
    "tanh": _tanh_closed_forms,
    "affine_sin(1,0.5)": _affine_sin_closed_forms(1.0, 0.5),
    "unit affine_sin(2**-600,2**-601)": _unit_affine_closed_forms,
}


@pytest.mark.parametrize("name", LINKS)
def test_link_jet_is_the_closed_forms_to_the_bit(name):
    jet = LINKS[name]().jet
    tiny = 1e-300
    points = [np.array([0.0, tiny, -tiny, 1.0, -1.0, 20.0, -20.0, 711.0,
                        -711.0, np.nan]), np.linspace(-4.0, 4.0, 101),
              np.asarray(0.5), 0.5]
    for x in points:
        with np.errstate(over="ignore"):  # cosh(711) is inf
            got, want = jet(x), CLOSED_FORMS[name](x)
        for u, v in zip(got, want, strict=True):
            assert np.shape(u) == np.shape(v)
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes()
    # the identity's H is its input; every other value is a new array
    x = np.array([0.25, -2.0])
    h, hp, h2 = jet(x)
    assert (h is x) == (name == "identity")
    assert not (np.shares_memory(hp, x) or np.shares_memory(h2, x)
                or np.shares_memory(hp, h2) or np.shares_memory(h, hp))


def test_finish_reads_each_readout_jet_once():
    u = catalog_get("uniform")
    calls = []
    tanh = tanh_link()

    def jet(x):
        calls.append(np.shape(x))
        return tanh.jet(x)

    link = SmoothLink("counted", jet)
    models = [SampleMeanModel(link=link, dists=(u,) * k, mu_h=0.01, sigma=0.9,
                              pre_pass_se=(0.0, 0.0)) for k in (2, 5, 8)]
    calls.clear()  # h_prime_at_0 was read when the link was built
    draw_score_pairs_sm(models[-1], substream(9, "jet"), CHUNK + 7, models)
    assert calls == [(CHUNK,)] * 3 + [(7,)] * 3


def test_tanh_jet_evaluates_tanh_and_cosh_once(monkeypatch):
    tanh = tanh_link()
    counts = {"tanh": 0, "cosh": 0}

    class CountingNumpy:
        def __getattr__(self, attr):
            fn = getattr(np, attr)
            if attr not in counts:
                return fn

            def counted(*args, **kwargs):
                counts[attr] += 1
                return fn(*args, **kwargs)
            return counted

    monkeypatch.setattr(samplemean, "np", CountingNumpy())
    for x in (np.linspace(-3.0, 3.0, 7), 0.5):
        counts.update(tanh=0, cosh=0)
        tanh.jet(x)
        assert counts == {"tanh": 1, "cosh": 1}


@pytest.mark.parametrize("link_fn", [identity_link, sin_link, tanh_link])
def test_evaluate_agrees_across_block_layouts(link_fn):
    dists = tuple(catalog_get(name) for name in CATALOG_NAMES * 2)
    model = SampleMeanModel(link=link_fn(), dists=dists, mu_h=0.01,
                            sigma=0.9, pre_pass_se=(0.0, 0.0))
    assert_block_layouts_agree(model, seed=3)


def test_identity_link_reduces_to_normalized_sum():
    u = catalog_get("uniform")
    n = 9
    model = sample_mean_model(identity_link(), [u] * n, n)
    sample = draw_score_pairs_sm(model, substream(2, "lin"), 4000)
    draws_again = draw_score_pairs_sm(model, substream(2, "lin"), 4000)
    assert np.array_equal(sample.f, draws_again.f)
    # reproduce S_n and mean(tau) from the raw draws
    x = sample_columns(model.dists, substream(2, "lin"), 4000)
    s_n = x.sum(axis=1) / math.sqrt(n)
    assert np.max(np.abs(sample.f - s_n)) <= 1e-12
    assert np.max(np.abs(sample.aux - u.tau(x).mean(axis=1))) == 0.0


def test_gaussian_identity_fixed_point_exact():
    g = catalog_get("gaussian")
    model = sample_mean_model(identity_link(), [g] * 25, 25)
    sample = draw_score_pairs_sm(model, substream(3, "fix"), 20_000)
    assert np.all(sample.h == sample.f)
    est, se, gf = fisher_distance_upper(sample)
    assert est == 0.0 and se == 0.0 and gf == 0.0


def test_uniform_n1_closed_form():
    u = catalog_get("uniform")
    model = sample_mean_model(identity_link(), [u], 1)
    s = draw_score_pairs_sm(model, substream(4, "one"), 200)
    x = s.f  # F = X_1 for the identity link at n = 1
    expect = x / u.tau(x) + u.tau_prime(x) / u.tau(x)
    assert np.max(np.abs(s.h - expect)) <= 1e-12
    # at the origin both terms vanish
    assert model.evaluate(np.array([[0.0]])).h[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("name,link_fn,n", [
    ("gaussian", sin_link, 5),
    ("uniform", tanh_link, 4),
    ("student_t(20)", lambda: affine_sin_link(1.0, 0.5), 6),
    ("exponential_centered", tanh_link, 16),
])
def test_nabla_cross_term_matches_finite_differences(name, link_fn, n):
    d = catalog_get(name)
    model = sample_mean_model(link_fn(), [d] * n, n,
                              stream=substream(5, "pp", name), prepass_reps=10 ** 4)
    stream = substream(6, "fd", name)
    for _ in range(25):
        x = np.array([dist.sampler(stream) for dist in model.dists])
        assert_cross_term_matches_finite_differences(model, x, sample_mean_g)


@pytest.mark.parametrize("link_fn,name,n", [
    (tanh_link, "exponential_centered", 16),
    (identity_link, "uniform", 8),
])
def test_stein_identity_of_h(link_fn, name, n):
    model = sample_mean_model(link_fn(), [catalog_get(name)] * n, n,
                              stream=substream(1, "pp", name))
    assert_stein_identity(draw_score_pairs_sm(
        model, substream(1, "stein", name), 2 * 10 ** 5))


def test_pre_pass_identity_moments():
    u = catalog_get("uniform")
    mu, sigma, (se_mu, se_sigma) = pre_pass(identity_link(), [u] * 8, 8,
                                            2 * 10 ** 4, substream(7, "pp"))
    assert abs(mu) <= 3 * se_mu
    assert abs(sigma - 1.0) <= 3 * se_sigma + 0.02


def test_pre_pass_sigma_trend_examples():
    g = catalog_get("gaussian")
    _, sigma, _ = pre_pass(sin_link(), [g] * 25, 25, 10 ** 4, substream(8, "pp"))
    assert abs(sigma ** 2 - 1.0) <= 0.5
    u = catalog_get("uniform")
    _, sigma_u, _ = pre_pass(tanh_link(), [u] * 25, 25, 10 ** 4, substream(9, "pp"))
    assert abs(sigma_u ** 2 - 1.0) <= 0.5


def test_pre_pass_rejects_tiny_reps_and_degenerate_variance():
    g = catalog_get("gaussian")
    with pytest.raises(InvalidInput):
        pre_pass(identity_link(), [g] * 4, 4, 100, substream(10, "pp"))
    # slope small enough that the sample variance underflows to zero
    flat = affine_sin_link(1e-200, 0.0)
    with pytest.raises(DegenerateVariance):
        pre_pass(flat, [g] * 4, 4, 10 ** 4, substream(11, "pp"))


def test_mean_nabla_approaches_squared_slope():
    g = catalog_get("gaussian")
    values = []
    for n in (8, 16, 32, 64):
        model = sample_mean_model(sin_link(), [g] * n, n,
                                  stream=substream(12, "pp", n),
                                  prepass_reps=2 * 10 ** 4)
        sample = draw_score_pairs_sm(model, substream(12, "main", n), 20_000)
        values.append(sample.aux.mean())
    gaps = np.abs(np.array(values) - 1.0)
    assert gaps[-1] <= 0.05
    assert gaps[-1] <= gaps[0] + 0.02  # shrinking trend toward H'(0)^2 = 1


def test_linear_sum_sign_conventions():
    g = catalog_get("gaussian")
    sample, h_classic = linear_sum_pairs([g] * 4, 4, substream(13, "sign"), 1)
    assert sample.h[0] == pytest.approx(sample.f[0], abs=1e-12)
    assert h_classic[0] == pytest.approx(-sample.f[0], abs=1e-12)


@pytest.mark.parametrize("name", ["uniform", "student_t(20)"])
def test_classic_representation_does_not_vanish(name):
    d = catalog_get(name)
    from steinfisher.quadrature import integrate
    rho_limit = integrate(
        lambda x: (d.log_density_derivative(x) + x) ** 2 * d.density(x),
        *d.quad_window, tol=1e-10)
    sample16, classic16 = linear_sum_pairs([d] * 16, 16, substream(14, name), 50_000)
    stein16 = float(((sample16.h - sample16.f) ** 2).mean())
    classic_sq16 = float(((classic16 + sample16.f) ** 2).mean())
    sample64, classic64 = linear_sum_pairs([d] * 64, 64, substream(15, name), 50_000)
    stein64 = float(((sample64.h - sample64.f) ** 2).mean())
    classic_sq64 = float(((classic64 + sample64.f) ** 2).mean())
    # the classic bound stalls at its n-independent limit
    assert classic_sq16 == pytest.approx(rho_limit, rel=0.1)
    assert classic_sq64 == pytest.approx(rho_limit, rel=0.1)
    # while the kernel representation keeps improving
    assert stein64 < stein16 / 2.5
    assert stein16 < classic_sq16


def test_score_identity_expectation_nonlinear_link():
    # E[f'(F)] = E[f(F) H] must hold for bounded smooth f; this pins the
    # whole representation (normalizer, gradient term, standardization)
    u = catalog_get("uniform")
    model = sample_mean_model(sin_link(), [u] * 12, 12,
                              stream=substream(18, "pp"), prepass_reps=10 ** 5)
    sample = draw_score_pairs_sm(model, substream(19, "ibp"), 400_000)
    diff = 1.0 / np.cosh(sample.f) ** 2 - np.tanh(sample.f) * sample.h
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.5 * se


@pytest.mark.parametrize("link_fn", [identity_link, sin_link, tanh_link])
def test_streamed_draw_matches_block_evaluate(link_fn):
    # student_t(20) draws twice per column, so a column drawn out of
    # turn would shift every later draw.
    dists = tuple(catalog_get(name) for name in CATALOG_NAMES * 3)
    model = SampleMeanModel(link=link_fn(), dists=dists, mu_h=0.01,
                            sigma=0.9, pre_pass_se=(0.0, 0.0))
    reps = 2 * CHUNK + 777
    streamed = draw_score_pairs_sm(model, substream(20, "stream"), reps)
    replay = substream(20, "stream")
    block = ScoreSample.concat([model.evaluate(sample_columns(dists, replay, m))
                                for m in chunk_sizes(reps)])
    assert np.array_equal(streamed.f, block.f)
    assert np.array_equal(streamed.h, block.h, equal_nan=True)
    assert np.array_equal(streamed.aux, block.aux)
    assert np.array_equal(streamed.guarded, block.guarded)


def _grid_models(law, link_fn):
    """A rate grid's models up to n = 40, each with its own pre-pass."""
    dist = catalog_get(law)
    return [sample_mean_model(link_fn(), [dist] * n, n,
                              stream=substream(30, "prepass", n),
                              prepass_reps=10 ** 4) for n in (1, 3, 8, 16, 40)]


@pytest.mark.parametrize("law", ["uniform", "exponential_centered"])
@pytest.mark.parametrize("link_fn", [identity_link, tanh_link])
def test_readouts_match_the_prefix_columns(law, link_fn):
    # F at n reads its first n coordinates only through their running sums,
    # so one pass over n_max columns, finished at n, is n's own evaluation.
    models = _grid_models(law, link_fn)
    x = sample_columns(models[-1].dists, substream(30, "readout", law), 777)
    readout = models[-1].evaluate(x, models)
    assert len(readout) == len(models)
    for model, got in zip(models, readout):
        want = model.evaluate(x[:, :model.n])
        assert np.array_equal(got.f, want.f)
        assert np.array_equal(got.h, want.h, equal_nan=True)
        assert np.array_equal(got.aux, want.aux)
        assert np.array_equal(got.guarded, want.guarded)
    # readouts come back in the order they are given
    backwards = models[-1].evaluate(x, models[::-1])
    assert all(np.array_equal(u.f, v.f)
               for u, v in zip(backwards, readout[::-1]))


@pytest.mark.parametrize("law", ["uniform", "exponential_centered"])
@pytest.mark.parametrize("link_fn", [identity_link, tanh_link])
def test_nested_draw_reduces_each_grid_point(law, link_fn):
    # One shard is at most one chunk, so the draws at n are the first n
    # columns of the nested draw's n_max, and each accumulator is that of
    # n's own draw from the same stream.
    models = _grid_models(law, link_fn)
    for shard, size in enumerate((CHUNK, 777)):
        nested = draw_score_pairs_sm(models[-1],
                                     substream(30, "main", 40, shard), size,
                                     readouts=models)
        assert len(nested) == len(models)
        for model, got in zip(models, nested):
            want = draw_score_pairs_sm(model, substream(30, "main", 40, shard),
                                       size)
            assert got == UpperAccumulator.of(want)


def test_draw_memory_is_bounded_by_columns():
    # One m x n float64 block at n = 128 is 16.8 MB; the streamed draw
    # holds a few length-m columns instead.
    n = 128
    model = sample_mean_model(identity_link(), [catalog_get("uniform")] * n, n)
    tracemalloc.start()
    try:
        draw_score_pairs_sm(model, substream(21, "mem"), CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * CHUNK * n * 8


def test_reduce_columns_drops_each_spent_column(monkeypatch):
    # When the sums are finished, the fold holds five length-m arrays: the
    # three running sums, the last column and its tau, and no earlier column.
    m, n = CHUNK, 4
    u = catalog_get("uniform")
    model = sample_mean_model(identity_link(), [u] * n, n)
    finish, held = SampleMeanModel.finish, []

    def spy(self, *sums):
        held.append(tracemalloc.get_traced_memory()[0])
        return finish(self, *sums)

    monkeypatch.setattr(SampleMeanModel, "finish", spy)
    stream = substream(26, "mem")
    tracemalloc.start()
    try:
        model.reduce_columns(u.sampler(stream, m) for _ in range(n))
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < 5.5 * m * 8


def _per_column_fold(columns, readouts):
    """The readouts' samples from one running ``(Σx, Στ, Στ'τ)``, with
    ``tau`` and ``tau_prime`` evaluated on every column in coordinate
    order, whatever the law."""
    x_sum = tau_sum = tt_sum = 0.0
    samples = []
    for k, (dist, col) in enumerate(zip(readouts[-1].dists, columns), 1):
        tau = dist.tau(col)
        x_sum = x_sum + col
        tau_sum = tau_sum + tau
        tt_sum = tt_sum + dist.tau_prime(col) * tau
        samples += [r.finish(x_sum, tau_sum, tt_sum)
                    for r in readouts if r.n == k]
    return samples


def _readouts(link, dists, grid):
    return [SampleMeanModel(link=link, dists=dists[:n], mu_h=0.01,
                            sigma=0.9, pre_pass_se=(0.0, 0.0)) for n in grid]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_reduce_columns_is_the_per_column_fold_to_the_bit(name):
    # Gaussian columns evaluate no kernel and exponential ones no tau';
    # a model of one law keeps every bit of the per-column fold.
    d = catalog_get(name)
    x = sample_columns([d] * 9, substream(32, "fold", name), 3000)
    for link in (identity_link(), tanh_link(), sin_link()):
        readouts = _readouts(link, (d,) * 9, (1, 2, 9))
        got = readouts[-1].reduce_columns(x.T, readouts)
        for a, b in zip(got, _per_column_fold(x.T, readouts)):
            for u, v in ((a.f, b.f), (a.h, b.h), (a.aux, b.aux),
                         (a.guarded, b.guarded)):
                assert u.tobytes() == v.tobytes()


def test_reduce_columns_of_interleaved_laws_is_the_fold_within_ulps():
    # Each kernel kind keeps its own sums, added at the readout, so a
    # model of interleaved laws reassociates Στ (12 nonnegative terms) and
    # Στ'τ.  F keeps its bits; the normalizer stays within 16 ulp, H
    # within 256 ulp of max(|H|, 1).  Seeds 0-39 gave at most 5 and 48.
    dists = tuple(catalog_get(name) for name in CATALOG_NAMES * 3)
    x = sample_columns(dists, substream(33, "fold"), 20000)
    for link in (identity_link(), tanh_link(), sin_link()):
        readouts = _readouts(link, dists, (3, 7, 12))
        got = readouts[-1].reduce_columns(x.T, readouts)
        for a, b in zip(got, _per_column_fold(x.T, readouts)):
            assert a.f.tobytes() == b.f.tobytes()
            assert not (a.guarded.any() or b.guarded.any())
            assert np.all(np.abs(a.aux - b.aux)
                          <= 16 * np.spacing(np.abs(b.aux)))
            assert np.all(np.abs(a.h - b.h)
                          <= 256 * np.spacing(np.maximum(np.abs(b.h), 1.0)))


def test_reduce_columns_evaluates_the_kernels_each_kind_needs():
    calls = []
    g, u, e = (counting_spec(catalog_get(name), calls)
               for name in ("gaussian", "uniform", "exponential_centered"))
    dists = (g, u, e, g, e)
    model = SampleMeanModel(link=identity_link(), dists=dists, mu_h=0.0,
                            sigma=1.0, pre_pass_se=(0.0, 0.0))
    x = sample_columns([catalog_get(d.name) for d in dists],
                       substream(34, "fold"), 100)
    model.reduce_columns(x.T)
    assert [call[:2] for call in calls] == [
        ("uniform", "tau"), ("uniform", "tau_prime"),
        ("exponential_centered", "tau"), ("exponential_centered", "tau")]


def test_draw_score_pair_sm_single():
    g = catalog_get("gaussian")
    model = sample_mean_model(sin_link(), [g] * 6, 6,
                              stream=substream(16, "pp"), prepass_reps=10 ** 4)
    s1 = draw_score_pairs_sm(model, substream(17, "draw"), 1)
    s2 = draw_score_pairs_sm(model, substream(17, "draw"), 1)
    assert len(s1) == 1 and not s1.guarded[0]
    assert (s1.f[0], s1.h[0], s1.aux[0]) == (s2.f[0], s2.h[0], s2.aux[0])


def test_prepass_and_linear_sum_stream_match_block():
    # The pre-pass and the classic score fold each column as it is drawn;
    # a block drawn from a replayed stream gives the same bits.
    # student_t(20) draws twice per column.
    dists = tuple(catalog_get(name) for name in CATALOG_NAMES * 3)
    n = len(dists)
    reps = 65536 + 4321
    for link in (sin_link(), tanh_link()):
        streamed = pre_pass(link, dists, n, reps, substream(22, "pp"))
        replay = substream(22, "pp")
        hv = np.concatenate([
            link.jet(sample_columns(dists, replay, m).mean(axis=1))[0]
            for m in chunk_sizes(reps, 65536)])
        assert streamed[:2] == (float(hv.mean()),
                                math.sqrt(n * float(hv.var(ddof=1))))
    reps = CHUNK + 999
    sample, classic = linear_sum_pairs(dists, n, substream(23, "ls"), reps)
    model = sample_mean_model(identity_link(), dists)
    replay = substream(23, "ls")
    blocks, rho_sums = [], []
    for m in chunk_sizes(reps):
        x = sample_columns(dists, replay, m)
        blocks.append(model.evaluate(x))
        rho = np.empty_like(x)  # coordinate-major, like x
        for k, d in enumerate(dists):
            rho[:, k] = d.log_density_derivative(x[:, k])
        rho_sums.append(rho.sum(axis=1))
    block = ScoreSample.concat(blocks)
    for u, v in ((sample.f, block.f), (sample.h, block.h),
                 (sample.aux, block.aux), (sample.guarded, block.guarded),
                 (classic, np.concatenate(rho_sums) / math.sqrt(n))):
        assert u.tobytes() == v.tobytes()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prepass_and_linear_sum_memory_is_bounded_by_columns():
    # A 16384 x 128 block is 16.8 MB and a 65536 x 128 one 67 MB; both
    # calls hold a few length-m columns instead.
    n = 128
    u = catalog_get("uniform")
    assert _peak_bytes(lambda: linear_sum_pairs(
        [u] * n, n, substream(24, "mem"), CHUNK)) < 8e6
    assert _peak_bytes(lambda: pre_pass(
        sin_link(), [u] * n, n, 65536, substream(25, "mem"))) < 8e6
