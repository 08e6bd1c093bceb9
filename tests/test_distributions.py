import math

import numpy as np
import pytest

from steinfisher.distributions import (CHUNK, catalog_get, chunk_sizes,
                                       kernel_of_transformed, sample_columns)
from steinfisher.errors import (MomentConditionViolated, NotCentered,
                                NotInCatalog)
from steinfisher.quadrature import integrate
from steinfisher.stein_core import tau_by_quadrature
from steinfisher.streams import substream

from conftest import CATALOG_NAMES, ks_statistic

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


def test_density_normalization_and_moments(catalog_dist):
    d = catalog_dist
    wlo, whi = d.quad_window
    mass = integrate(d.density, wlo, whi, tol=1e-12)
    mean = integrate(lambda x: x * d.density(x), wlo, whi, tol=1e-12)
    var = integrate(lambda x: x * x * d.density(x), wlo, whi, tol=1e-12)
    assert abs(mass - 1.0) <= 1e-8
    assert abs(mean) <= 1e-8
    assert abs(var - 1.0) <= 1e-8


def test_moment8_matches_quadrature(catalog_dist):
    d = catalog_dist
    assert d.moment8_finite
    m8 = integrate(lambda x: np.abs(x) ** 8 * d.density(x), *d.quad_window,
                   tol=1e-10)
    # the x^8 weight amplifies the truncated density tail; allow 1e-6 rel
    assert m8 == pytest.approx(d.moment8, rel=1e-6)


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
    assert d.kernel_form.variant == "closed_form"
    qs = np.linspace(0.05, 0.95, 19)
    # interior grid; the oracle integral loses no accuracy away from edges
    grid = np.quantile(d.sampler(substream(5, "grid", d.name), 50_000), qs)
    for x in grid:
        assert abs(float(d.tau(x)) - tau_by_quadrature(d, float(x))) <= 1e-8


def test_pearson_ode(catalog_dist):
    d = catalog_dist
    m, k, a1, a2, a3 = d.pearson
    lo, hi = d.quad_window
    span = hi - lo
    xs = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 25)
    denom = a1 * xs ** 2 + a2 * xs + a3
    lhs = d.log_density_derivative(xs)
    assert np.max(np.abs(lhs + (m * xs + k) / denom)) <= 1e-6
    # the Stein formula's coefficient constraints
    assert m == pytest.approx(2 * a1 + 1, abs=1e-12)
    assert k == pytest.approx(a2, abs=1e-12)
    tau_grid = d.tau(xs)
    assert np.max(np.abs(tau_grid - denom)) <= 1e-10


def test_transformed_kernel_identity_map():
    g = catalog_get("gaussian")
    form = kernel_of_transformed(g, lambda y: y, lambda x: x,
                                 lambda y: np.ones_like(np.asarray(y, float)))
    assert form.variant == "numeric"
    for x in (-1.3, 0.0, 0.4, 2.1):
        assert form.tau(x) == pytest.approx(1.0, abs=1e-9)


def test_transformed_kernel_scaling():
    g = catalog_get("gaussian")
    sigma = 2.0
    form = kernel_of_transformed(
        g, lambda y: sigma * np.asarray(y, float), lambda x: x / sigma,
        lambda y: np.full_like(np.asarray(y, float), sigma))
    # scaling multiplies the kernel by sigma^2 (quadrature oracle)
    assert form.tau(0.0) == pytest.approx(4.0, abs=1e-8)


def test_transformed_kernel_exponential_identity():
    e = catalog_get("exponential_centered")
    form = kernel_of_transformed(e, lambda y: np.asarray(y, float), lambda x: x,
                                 lambda y: np.ones_like(np.asarray(y, float)))
    assert form.tau(1.0) == pytest.approx(2.0, abs=1e-8)
    # numeric derivative should track tau' = 1
    assert form.tau_prime(0.5) == pytest.approx(1.0, abs=1e-4)


def test_transformed_kernel_rejects_uncentered():
    g = catalog_get("gaussian")
    with pytest.raises(NotCentered):
        kernel_of_transformed(g, lambda y: np.asarray(y, float) + 0.5,
                              lambda x: x - 0.5,
                              lambda y: np.ones_like(np.asarray(y, float)))


def test_sample_columns_is_deterministic():
    dists = [catalog_get(n) for n in CATALOG_NAMES]
    a = sample_columns(dists, substream(7, "cols"), 64)
    b = sample_columns(dists, substream(7, "cols"), 64)
    assert a.shape == (64, 4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("reps,size,expected", [
    (3 * CHUNK, CHUNK, [CHUNK] * 3),          # exact multiple
    (2 * CHUNK + 5, CHUNK, [CHUNK, CHUNK, 5]),  # remainder last
    (1000, CHUNK, [1000]),                    # below one chunk
    (150_000, 65536, [65536, 65536, 18928]),
])
def test_chunk_sizes(reps, size, expected):
    assert chunk_sizes(reps, size) == expected
    assert sum(chunk_sizes(reps, size)) == reps
