import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinfisher
from steinfisher.distributions import (CHUNK, catalog_get, chunk_sizes,
                                       column_runs, kernel_columns, ndtr,
                                       sample_columns)
from steinfisher.errors import (InvalidInput, MomentConditionViolated,
                                NotInCatalog)
from steinfisher.quadrature import integrate
from steinfisher.stein_core import tau_by_quadrature
from steinfisher.streams import substream

from conftest import CATALOG_NAMES, counting_spec, ks_statistic

SQRT3 = math.sqrt(3.0)


def test_catalog_tau_examples():
    assert catalog_get("gaussian").tau(0.7) == 1.0
    assert catalog_get("student_t(20)").tau(0.0) == pytest.approx(18.0 / 19.0, abs=1e-15)
    # derived by quadrature of the defining tail integral, frozen here
    assert catalog_get("uniform").tau(0.0) == pytest.approx(1.5, abs=1e-12)
    assert catalog_get("exponential_centered").tau(0.0) == pytest.approx(1.0, abs=1e-12)


def test_catalog_rejects_unknown_and_low_dof():
    with pytest.raises(NotInCatalog):
        catalog_get("cauchy")
    with pytest.raises(MomentConditionViolated):
        catalog_get("student_t(16)")
    with pytest.raises(MomentConditionViolated):
        catalog_get("student_t(10)")
    with pytest.raises(MomentConditionViolated):  # beta = inf
        catalog_get("student_t(1e309)")


def test_density_normalization_and_moments(catalog_dist):
    d = catalog_dist
    wlo, whi = d.quad_window
    mass = integrate(d.density, wlo, whi, tol=1e-12)
    mean = integrate(lambda x: x * d.density(x), wlo, whi, tol=1e-12)
    var = integrate(lambda x: x * x * d.density(x), wlo, whi, tol=1e-12)
    assert abs(mass - 1.0) <= 1e-8
    assert abs(mean) <= 1e-8
    assert abs(var - 1.0) <= 1e-8


# E|X|^8 of each law: 105 for the gaussian, 9 for the uniform, the 8th
# derangement number for exponential - 1, and 105 (b-2)^3 / ((b-4)(b-6)(b-8))
# for the standardized student_t(b)
MOMENT8 = {"gaussian": 105.0, "uniform": 9.0, "exponential_centered": 14833.0,
           "student_t(20)": 105.0 * 18.0 ** 3 / (16.0 * 14.0 * 12.0)}


def test_moment8_matches_quadrature(catalog_dist):
    d = catalog_dist
    m8 = integrate(lambda x: np.abs(x) ** 8 * d.density(x), *d.quad_window,
                   tol=1e-10)
    # the x^8 weight amplifies the truncated density tail; allow 1e-6 rel
    assert m8 == pytest.approx(MOMENT8[d.name], rel=1e-6)


def test_sampler_matches_cdf(catalog_dist):
    d = catalog_dist
    n = 10 ** 5
    draws = d.sampler(substream(1234, "ks", d.name), n)
    thresh = 3.0 * math.sqrt(math.log(2.0) / (2.0 * n))
    assert ks_statistic(draws, d.cdf) < thresh


def test_kernel_nonnegative_and_unit_mean(catalog_dist):
    d = catalog_dist
    draws = d.sampler(substream(99, "tau", d.name), 200_000)
    tau = d.tau(draws)
    assert np.all(tau >= 0.0)
    se = tau.std(ddof=1) / math.sqrt(tau.size)
    assert abs(tau.mean() - 1.0) <= 3.0 * se
    etau = integrate(lambda x: d.tau(x) * d.density(x), *d.quad_window, tol=1e-12)
    assert abs(etau - 1.0) <= 1e-8


def test_closed_form_kernels_match_quadrature(catalog_dist):
    d = catalog_dist
    qs = np.linspace(0.05, 0.95, 19)
    # interior grid; the oracle integral loses no accuracy away from edges
    grid = np.quantile(d.sampler(substream(5, "grid", d.name), 50_000), qs)
    for x in grid:
        assert abs(float(d.tau(x)) - tau_by_quadrature(d, float(x))) <= 1e-8


def test_pearson_ode(catalog_dist):
    # Stein-Pearson ODE: (tau p)' = -x p, so rho = -(x + tau') / tau, with
    # tau a quadratic for every catalog law
    d = catalog_dist
    lo, hi = d.quad_window
    span = hi - lo
    xs = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 25)
    tau = d.tau(xs)
    lhs = d.log_density_derivative(xs)
    assert np.max(np.abs(lhs + (xs + d.tau_prime(xs)) / tau)) <= 1e-6
    quadratic = np.polynomial.Polynomial.fit(xs, tau, 2)
    assert np.max(np.abs(quadratic(xs) - tau)) <= 1e-10
    # the stored Pearson pair is that quadratic: tau = 1 + b x + c (x^2 - 1),
    # within 4 ulp of its largest term
    b, c = d.kernel_form.pearson
    pearson = 1.0 + b * xs + c * (xs * xs - 1.0)
    scale = 1.0 + abs(b) * np.abs(xs) + abs(c) * (xs * xs + 1.0)
    assert np.all(np.abs(pearson - tau) <= 4 * np.spacing(scale))
    slope = abs(b) + 2.0 * abs(c) * np.abs(xs)
    assert np.all(np.abs(b + 2.0 * c * xs - d.tau_prime(xs))
                  <= 4 * np.spacing(slope))


# Each sampler's closed form, as a fresh expression of the stream's draws
SAMPLER_FORMS = {
    "uniform": lambda s, size: -SQRT3 + (SQRT3 - -SQRT3) * s.random(size),
    "exponential_centered":
        lambda s, size: -np.log1p(-s.random(size)) - 1.0,
    "student_t(20)": lambda s, size: s.standard_normal(size) * np.sqrt(
        (20.0 - 2.0) / s.chisquare(20.0, size)),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_FORMS))
def test_sampler_is_its_closed_form_to_the_bit(name):
    # The samplers work in the generator's buffer; the draws keep the bits
    # of the closed form, and a draw of size None stays a scalar.
    d, form = catalog_get(name), SAMPLER_FORMS[name]
    for size in (1000, (3, 257), None):
        got = d.sampler(substream(14, "pin", name), size)
        want = form(substream(14, "pin", name), size)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    scalar = d.sampler(substream(14, "pin", name))
    assert np.isscalar(scalar) and isinstance(scalar, float)


def test_sample_columns_is_deterministic():
    dists = [catalog_get(n) for n in CATALOG_NAMES]
    a = sample_columns(dists, substream(7, "cols"), 64)
    b = sample_columns(dists, substream(7, "cols"), 64)
    assert a.shape == (64, 4)
    assert np.array_equal(a, b)


def test_sample_columns_is_coordinate_major_in_stream_order():
    # student_t draws twice per column (normal, then chi-square), so the
    # replay pins the order in which the stream is consumed.
    dists = [catalog_get(n) for n in CATALOG_NAMES]
    m = 257
    x = sample_columns(dists, substream(8, "cols"), m)
    assert x.shape == (m, len(dists)) and x.T.flags.c_contiguous
    replay = substream(8, "cols")
    for k, dist in enumerate(dists):
        assert np.array_equal(x[:, k], dist.sampler(replay, m))


def test_sample_columns_draws_each_run_of_identical_specs_at_once():
    m = 211
    t = catalog_get("student_t(20)")
    x = sample_columns([t] * 3, substream(9, "runs"), m)
    assert np.array_equal(x.T, t.sampler(substream(9, "runs"), (3, m)))
    # these samplers take one stream value per draw in C order, so a run
    # drawn at once is the column-by-column draw
    names = ("uniform", "exponential_centered", "gaussian")
    dists = [catalog_get(name) for name in names for _ in range(3)]
    x = sample_columns(dists, substream(10, "runs"), m)
    replay = substream(10, "runs")
    for k, dist in enumerate(dists):
        assert np.array_equal(x[:, k], dist.sampler(replay, m))


def spying_spec(spec, returned):
    """A copy of ``spec`` whose sampler and kernels append what they return
    to ``returned``."""
    def spied(fn):
        def wrapped(*args):
            returned.append(fn(*args))
            return returned[-1]
        return wrapped

    kf = spec.kernel_form
    return dataclasses.replace(
        spec, sampler=spied(spec.sampler),
        kernel_form=dataclasses.replace(kf, tau=spied(kf.tau),
                                        tau_prime=spied(kf.tau_prime)))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sample_columns_of_one_run_is_the_samplers_block(name):
    returned = []
    law = spying_spec(catalog_get(name), returned)
    m = 300
    x = sample_columns([law] * 5, substream(13, "one-run", name), m)
    (block,) = returned
    assert x.shape == (m, 5) and np.shares_memory(x, block)
    assert x.T.flags.c_contiguous
    assert np.array_equal(x.T, catalog_get(name).sampler(
        substream(13, "one-run", name), (5, m)))
    if name != "student_t(20)":
        # one stream value per draw in C order: the column-by-column draw
        replay = substream(13, "one-run", name)
        for k in range(5):
            assert np.array_equal(x[:, k], law.sampler(replay, m))


def test_sample_columns_of_mixed_runs_keeps_the_stream_order():
    # a student_t run takes its normals, then its chi-squares, between the
    # other runs' draws
    names = ["uniform", "student_t(20)", "student_t(20)", "gaussian",
             "student_t(20)", "exponential_centered", "exponential_centered"]
    dists = [catalog_get(name) for name in names]
    m = 129
    x = sample_columns(dists, substream(14, "mixed"), m)
    assert x.T.flags.c_contiguous
    runs = ((0, 1), (1, 3), (3, 4), (4, 5), (5, 7))
    assert column_runs(dists) == runs
    assert np.array_equal(
        sample_columns(dists, substream(14, "mixed"), m, runs=runs), x)
    replay = substream(14, "mixed")
    for start, stop in runs:
        want = dists[start].sampler(replay, (stop - start, m))
        assert np.array_equal(x[:, start:stop].T, want)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_kernel_columns_of_one_run_are_the_laws_arrays(name):
    returned = []
    law = spying_spec(catalog_get(name), returned)
    x = sample_columns([catalog_get(name)] * 4, substream(15, "k", name),
                       50).T
    tau, taup = kernel_columns([law] * 4, x)
    assert len(returned) == 2
    assert returned[0] is tau and returned[1] is taup
    # every catalog kernel returns a new float array shaped like its
    # argument, so the caller may write it
    for v in (tau, taup):
        assert v.shape == x.shape and v.dtype == float
        assert v.flags.writeable and not np.shares_memory(v, x)
    assert not np.shares_memory(tau, taup)
    assert np.array_equal(tau, catalog_get(name).tau(x))
    assert np.array_equal(taup, catalog_get(name).tau_prime(x))


def test_kernel_columns_calls_each_run_of_identical_specs_once():
    calls = []
    u, g, e = (counting_spec(catalog_get(name), calls)
               for name in ("uniform", "gaussian", "exponential_centered"))
    dists = [u, u, u, g, g, u, e, e]
    plain = [catalog_get(d.name) for d in dists]
    x = sample_columns(plain, substream(12, "runs"), 300).T
    tau, taup = kernel_columns(dists, x)
    # runs u*3, g*2, u*1, e*2: one tau and one tau' call each, on 2-D slices
    assert calls == [(name, kernel, (width, 300))
                     for name, width in (("uniform", 3), ("gaussian", 2),
                                         ("uniform", 1),
                                         ("exponential_centered", 2))
                     for kernel in ("tau", "tau_prime")]
    runs = column_runs(dists)
    assert runs == ((0, 3), (3, 5), (5, 6), (6, 8))
    given = kernel_columns(dists, x, runs=runs)
    assert np.array_equal(given[0], tau) and np.array_equal(given[1], taup)
    for k, d in enumerate(plain):
        assert np.array_equal(tau[k], d.tau(x[k]))
        assert np.array_equal(taup[k], d.tau_prime(x[k]))
    assert tau.flags.c_contiguous and taup.flags.c_contiguous


def test_student_t_cdf_matches_scipy_stats():
    from scipy import stats
    scale = math.sqrt(18.0 / 20.0)
    grid = np.linspace(-8.0, 8.0, 4001)
    assert np.array_equal(catalog_get("student_t(20)").cdf(grid),
                          stats.t.cdf(grid / scale, 20.0))


def test_student_t_density_matches_scipy_betaln_to_the_bit():
    # scipy is imported inside _student_t; the CDF is checked against
    # scipy.stats above, and the normalizer is betaln's, which at beta = 20
    # is the gammaln difference's up to rounding.
    from scipy import special
    beta = 20.0
    scale = math.sqrt((beta - 2.0) / beta)
    log_norm = -special.betaln(beta / 2.0, 0.5) - 0.5 * math.log(beta)
    by_gammaln = (special.gammaln((beta + 1.0) / 2.0) - special.gammaln(beta / 2.0)
                  - 0.5 * math.log(beta * math.pi))
    assert log_norm == pytest.approx(by_gammaln, rel=1e-15)
    x = np.linspace(-8.0, 8.0, 801)
    t = x / scale
    expected = np.exp(log_norm - 0.5 * (beta + 1.0) * np.log1p(t * t / beta)) / scale
    assert np.array_equal(catalog_get("student_t(20)").density(x), expected)


def test_student_t_far_beta_is_the_gaussian_law():
    # A gammaln difference lost every digit of the normalizer by beta = 1e17
    # and failed to build at 1e100.
    d, g = catalog_get("student_t(1e100)"), catalog_get("gaussian")
    assert d.quad_window == pytest.approx(g.quad_window, abs=1e-6)
    assert integrate(d.density, *d.quad_window, tol=1e-13) == pytest.approx(
        1.0, abs=1e-12)


def test_ndtr_matches_scipy_special():
    from scipy import special
    grid = np.linspace(-40.0, 40.0, 400_001)
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array([np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 1e-310,
                      -1e-310, 2.2e-308, np.sqrt(2.0), -np.sqrt(2.0),
                      8.0 * np.sqrt(2.0), -8.0 * np.sqrt(2.0), 1e300, -1e300])
    x = np.concatenate([grid, np.nextafter(grid, np.inf), edges])
    got, want = ndtr(x), special.ndtr(x)
    # 1e-15 relative, or one ulp where the value is subnormal.  Below
    # a = -8 sqrt2 (erfc past 8) each side is 2-3 ulp from exp(-z^2) erfcx(z)
    # at the rounded z^2, so the two may differ by 5 ulp there.
    far = x < -8.0 * np.sqrt(2.0)
    np.testing.assert_allclose(got[~far], want[~far], rtol=1e-15, atol=tiny)
    np.testing.assert_allclose(got[far], want[far], rtol=1.2e-15, atol=tiny)
    assert np.isnan(ndtr(np.nan)) and np.isnan(ndtr(np.array([np.nan, 1.0]))[0])
    assert np.signbit(ndtr(-0.0)) == np.signbit(special.ndtr(-0.0))


def test_ndtr_cutoff_is_exact_and_scalars_stay_scalars():
    from scipy import special
    # erfc(z) is exactly 0 once z^2 > MAXLOG, that is |a| > 37.677...
    far = np.array([37.68, 38.0, 40.0, 1e10, 1e300, np.inf])
    assert np.all(ndtr(far) == 1.0) and np.all(ndtr(-far) == 0.0)
    assert np.array_equal(special.ndtr(-far), ndtr(-far))
    assert ndtr(-37.6) > 0.0
    assert isinstance(ndtr(0.3), float) and ndtr(0.3) == special.ndtr(0.3)
    assert ndtr(np.zeros((2, 3))).shape == (2, 3)


def test_cli_import_leaves_scipy_stats_unloaded():
    # No scipy module at all: only a student_t law imports scipy.special.
    src = str(Path(steinfisher.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy')); "
            "import steinfisher; print(loaded()); "
            "import steinfisher.cli; print(loaded())")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "[]"]


@pytest.mark.parametrize("reps,size,expected", [
    (3 * CHUNK, CHUNK, [CHUNK] * 3),          # exact multiple
    (2 * CHUNK + 5, CHUNK, [CHUNK, CHUNK, 5]),  # remainder last
    (1000, CHUNK, [1000]),                    # below one chunk
    (150_000, 65536, [65536, 65536, 18928]),
])
def test_chunk_sizes(reps, size, expected):
    assert chunk_sizes(reps, size) == expected
    assert sum(chunk_sizes(reps, size)) == reps
    assert chunk_sizes(np.int64(reps), size) == expected


# 2.5 and True are among tests/test_preconditions.py's bad values
@pytest.mark.parametrize("reps", [3.0, np.True_, "3", None])
def test_chunk_sizes_refuses_what_is_not_an_integer(reps):
    with pytest.raises(InvalidInput, match="integer"):
        chunk_sizes(reps)
