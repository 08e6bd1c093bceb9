import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinfisher
from steinfisher.distributions import (CHUNK, catalog_get, chunk_sizes,
                                       kernel_columns, sample_columns)
from steinfisher.errors import MomentConditionViolated, NotInCatalog
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


def test_kernel_columns_calls_each_run_of_identical_specs_once():
    calls = []
    u, g, e = (counting_spec(catalog_get(name), calls)
               for name in ("uniform", "gaussian", "exponential_centered"))
    dists = [u, u, u, g, g, u, e, e]
    plain = [catalog_get(d.name) for d in dists]
    x = sample_columns(plain, substream(12, "runs"), 300)
    tau, taup = kernel_columns(dists, x)
    # runs u*3, g*2, u*1, e*2: one tau and one tau' call each, on 2-D slices
    assert calls == [(name, kernel, (300, width))
                     for name, width in (("uniform", 3), ("gaussian", 2),
                                         ("uniform", 1),
                                         ("exponential_centered", 2))
                     for kernel in ("tau", "tau_prime")]
    for k, d in enumerate(plain):
        assert np.array_equal(tau[:, k], d.tau(x[:, k]))
        assert np.array_equal(taup[:, k], d.tau_prime(x[:, k]))
    assert tau.T.flags.c_contiguous and taup.T.flags.c_contiguous


def test_student_t_cdf_matches_scipy_stats():
    from scipy import stats
    scale = math.sqrt(18.0 / 20.0)
    grid = np.linspace(-8.0, 8.0, 4001)
    assert np.array_equal(catalog_get("student_t(20)").cdf(grid),
                          stats.t.cdf(grid / scale, 20.0))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(steinfisher.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import steinfisher.cli; print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("reps,size,expected", [
    (3 * CHUNK, CHUNK, [CHUNK] * 3),          # exact multiple
    (2 * CHUNK + 5, CHUNK, [CHUNK, CHUNK, 5]),  # remainder last
    (1000, CHUNK, [1000]),                    # below one chunk
    (150_000, 65536, [65536, 65536, 18928]),
])
def test_chunk_sizes(reps, size, expected):
    assert chunk_sizes(reps, size) == expected
    assert sum(chunk_sizes(reps, size)) == reps
