"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The method bounds the
Fisher information distance by ``E|H - F|^2 = O(1/n)``; criteria 5 and 9
check the rate that bound takes for their inputs, not a bare 1/n:

- Criterion 5 (sin link, gaussian inputs): an odd link on symmetric
  inputs cancels the 1/sqrt(n) term of ``H - F``, so the error decays like
  1/n^2.  ``cos`` vanishes on the gaussian support, so ``E|H - F|^2`` is
  infinite at every n; at n = 8 one draw near that zero carries most of
  the sum.  The test asserts that n = 8 is single-draw dominated, that
  n >= 16 is not, and fits the 1/n^2 window over n >= 16.
- Criterion 9 (uniform law, n = 16 and 64): the classic score sum stalls
  at a constant, while ``E|H - F|^2 = Var(tau)/n + O(1/n^2)``.  The test
  asserts the 16-to-64 ratio in criterion 4's window and
  ``64 E|H - F|^2`` within 10% of ``Var(tau)``.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from steinfisher.cli import ExperimentConfig, run
from steinfisher.distances import convert, kolmogorov_empirical
from steinfisher.distributions import catalog_get
from steinfisher.estimate import fisher_distance_upper, fit_rate, plugin_split
from steinfisher.moments import (NegMomentQuery, NonnegativeLaw,
                                 mgf_bound_check, negative_moment, ujmld_trend)
from steinfisher.quadform import (CoefficientMatrix, QuadFormModel,
                                  gaussian_negative_moment_norm,
                                  gaussian_negative_moment_norm_mc)
from steinfisher.quadrature import integrate
from steinfisher.samplemean import (draw_score_pairs_sm, identity_link,
                                    linear_sum_pairs, sample_mean_model,
                                    sin_link, tanh_link)
from steinfisher.stein_core import covariance_formula_check, tau_by_quadrature
from steinfisher.streams import substream

from conftest import (assert_cross_term_matches_finite_differences,
                      quadform_g, sample_mean_g)
from test_stein_core import clipped_poly

N_GRID = (8, 16, 32, 64, 128)
# Generic 1/n window for a log-log slope of E|H - F|^2 against n.
SLOPE_WINDOW = (-1.35, -0.65)
# Odd link on symmetric inputs: the 1/sqrt(n) term of H - F cancels, so 1/n^2.
ODD_LINK_WINDOW = (-2.35, -1.65)


@contextmanager
def criterion(num, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d}: FAIL - {description} "
              f"[{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {num:02d}: PASS - {description} "
          f"[{time.time() - start:.1f}s]")


def central_grid(dist, mass=0.999, points=50):
    lo, hi = dist.quad_window

    def quantile(q):
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if float(dist.cdf(mid)) < q:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    edge = (1.0 - mass) / 2.0
    return np.linspace(quantile(edge), quantile(1.0 - edge), points)


def test_criterion_01_kernel_oracles():
    with criterion(1, "closed-form kernels match the defining integral"):
        for name in ("gaussian", "uniform", "exponential_centered",
                     "student_t(20)"):
            d = catalog_get(name)
            for x in central_grid(d):
                gap = abs(float(d.tau(x)) - tau_by_quadrature(d, float(x)))
                assert gap <= 1e-8, f"{name} at {x}: gap {gap:.2e}"
            etau = integrate(lambda y: d.tau(y) * d.density(y),
                             *d.quad_window, tol=1e-12)
            assert abs(etau - 1.0) <= 1e-8, f"{name}: E tau = {etau}"


def test_criterion_02_covariance_formula():
    with criterion(2, "covariance identity, 20 random pairs per law"):
        for name in ("gaussian", "uniform", "exponential_centered",
                     "student_t(20)"):
            d = catalog_get(name)
            rng = np.random.default_rng(202)
            for _ in range(20):
                alpha, alpha_prime = clipped_poly(rng.uniform(-1, 1, 4))
                beta = np.polynomial.Polynomial(rng.uniform(-1, 1, 5))
                rep = covariance_formula_check(d, alpha, alpha_prime, beta)
                assert rep.abs_diff <= 1e-7, (
                    f"{name}: |lhs-rhs| = {rep.abs_diff:.2e}")


def test_criterion_03_gaussian_fixed_points():
    with criterion(3, "gaussian identity statistics are exact fixed points"):
        g = catalog_get("gaussian")
        model = sample_mean_model(identity_link(), [g] * 32, 32)
        sample = draw_score_pairs_sm(model, substream(303, "fixed"), 10 ** 5)
        assert np.all(sample.h == sample.f)
        est, se, gf = fisher_distance_upper(sample)
        assert est == 0.0 and se == 0.0 and gf == 0.0
        plugin, _, _ = plugin_split(sample)
        assert plugin <= 0.01, f"plugin {plugin}"


@pytest.mark.parametrize("name", ["uniform", "student_t(20)"])
def test_criterion_04_linear_rate(name):
    with criterion(4, f"linear-statistic rate window for {name}"):
        errors = []
        for n in N_GRID:
            sample, _ = linear_sum_pairs([catalog_get(name)] * n, n,
                                         substream(404, "rate", name, n),
                                         10 ** 5)
            est, _, _ = fisher_distance_upper(sample)
            errors.append(est)
        fit = fit_rate(N_GRID, errors)
        print(f"  {name}: errors {['%.3e' % e for e in errors]} "
              f"slope {fit.slope:.3f} r2 {fit.r_squared:.4f}")
        assert SLOPE_WINDOW[0] <= fit.slope <= SLOPE_WINDOW[1], fit
        assert fit.r_squared >= 0.9, fit


def test_criterion_05_samplemean_rate_sin_gaussian():
    with criterion(5, "smooth-link rate window, sin link with gaussian inputs"):
        g = catalog_get("gaussian")
        link = sin_link()
        errors, shares = [], []
        for n in N_GRID:
            model = sample_mean_model(link, [g] * n, n,
                                      stream=substream(505, "prepass", n),
                                      prepass_reps=10 ** 5)
            sample = draw_score_pairs_sm(model, substream(505, "main", n),
                                         10 ** 5)
            est, _, _ = fisher_distance_upper(sample)
            f, h = sample.unguarded()
            sq = (h - f) ** 2
            errors.append(est)
            shares.append(float(sq.max() / sq.sum()))
        fit = fit_rate(N_GRID[1:], errors[1:])
        print(f"  sin/gaussian: errors {['%.3e' % e for e in errors]} "
              f"largest-draw shares {['%.3f' % s for s in shares]}; "
              f"n>={N_GRID[1]} slope {fit.slope:.3f} r2 {fit.r_squared:.4f}")
        assert shares[0] > 0.5, (
            f"n={N_GRID[0]}: largest draw carries {shares[0]:.3f} of "
            f"sum (H-F)^2; E|H - F|^2 is infinite (cos vanishes on the "
            f"gaussian support), so the smallest n should be dominated")
        assert max(shares[1:]) < 0.1, (
            f"n>={N_GRID[1]}: largest-draw shares "
            f"{['%.3f' % s for s in shares[1:]]} should stay under 0.1")
        assert ODD_LINK_WINDOW[0] <= fit.slope <= ODD_LINK_WINDOW[1] \
            and fit.r_squared >= 0.9, (
            f"n>={N_GRID[1]}: slope {fit.slope:.3f}, r2 {fit.r_squared:.3f}; "
            f"an odd link with symmetric inputs should decay like 1/n^2, "
            f"slope in {ODD_LINK_WINDOW} with r2 >= 0.9")


def test_criterion_06_quadform_algebra():
    with criterion(6, "evaluate's cross term matches finite differences"):
        rng_mat = substream(606, "matrix")
        mat = CoefficientMatrix(np.triu(rng_mat.uniform(-1, 1, (8, 8)), 1))
        dists = [catalog_get("uniform")] * 4 + [catalog_get("student_t(20)")] * 4
        model = QuadFormModel(mat, dists)
        stream = substream(606, "draws")
        for _ in range(100):
            x = np.array([d.sampler(stream) for d in dists])
            assert_cross_term_matches_finite_differences(model, x, quadform_g)
            # decomposition identity: sum_k M_k F = F exactly
            a = mat.entries
            f_val = 0.5 * float(x @ (a @ x))
            parts = 0.5 * x * (a @ x)
            assert abs(parts.sum() - f_val) <= 1e-12 * max(1.0, abs(f_val))

        expo = QuadFormModel(mat, [catalog_get("exponential_centered")] * 8)
        sm = sample_mean_model(sin_link(), [catalog_get("uniform")] * 6, 6,
                               stream=substream(606, "pp"),
                               prepass_reps=10 ** 4)
        sm_expo = sample_mean_model(
            tanh_link(), [catalog_get("exponential_centered")] * 6, 6,
            stream=substream(606, "pp", "exponential_centered"),
            prepass_reps=10 ** 4)
        for m, g_terms, stream in (
                (expo, quadform_g, substream(606, "draws3")),
                (sm, sample_mean_g, substream(606, "draws2")),
                (sm_expo, sample_mean_g, substream(606, "draws4"))):
            for _ in range(100):
                x = np.array([d.sampler(stream) for d in m.dists])
                assert_cross_term_matches_finite_differences(m, x, g_terms)


def test_criterion_07_negative_moments():
    with criterion(7, "negative moments against the chi-square oracle"):
        law = NonnegativeLaw.square_of(catalog_get("gaussian"))
        value = negative_moment(NegMomentQuery(alpha=1.0,
                                               mgf_factors=(law.mgf,) * 4))
        assert abs(value - 0.5) <= 1e-9
        points = ujmld_trend(law, 1.0, (4, 8, 16, 32, 64))
        for p in points:
            assert p.value is not None
            assert abs(p.value - p.n / (p.n - 2.0)) <= 1e-8
            assert p.value >= 1.0


def test_criterion_08_gaussian_exact_expression():
    with criterion(8, "negative-moment norm: quadrature vs Monte Carlo"):
        gen = substream(196, "acceptance", "matrix")
        mat = CoefficientMatrix(np.triu(gen.uniform(-1, 1, (20, 20)), 1))
        quad_value = gaussian_negative_moment_norm(mat, 8.0)
        mc_value = gaussian_negative_moment_norm_mc(
            mat, 8.0, substream(808, "mc"), 10 ** 6)
        rel = abs(mc_value - quad_value) / quad_value
        print(f"  quad {quad_value:.6f} mc {mc_value:.6f} rel {rel:.4f}")
        assert rel <= 0.05


def test_criterion_09_classic_representation_stalls():
    with criterion(9, "classic score-sum stalls while the kernel form improves"):
        u = catalog_get("uniform")
        limit = integrate(
            lambda x: (u.log_density_derivative(x) + x) ** 2 * u.density(x),
            *u.quad_window, tol=1e-10)
        # E tau = 1 for a standardized law (criterion 1).
        var_tau = integrate(lambda x: (u.tau(x) - 1.0) ** 2 * u.density(x),
                            *u.quad_window, tol=1e-10)
        stein = {}
        for n in (16, 64):
            sample, classic = linear_sum_pairs(
                [u] * n, n, substream(909, "classic", n), 10 ** 5)
            classic_sq = float(((classic + sample.f) ** 2).mean())
            assert abs(classic_sq - limit) <= 0.1 * limit, (
                f"n={n}: classic {classic_sq} vs limit {limit}")
            stein[n], _, _ = fisher_distance_upper(sample)
        ratio = stein[16] / stein[64]
        # criterion 4's slope window for two points 4x apart in n
        lo, hi = 4.0 ** -SLOPE_WINDOW[1], 4.0 ** -SLOPE_WINDOW[0]
        print(f"  classic limit {limit:.4f}; stein n16 {stein[16]:.5f} "
              f"n64 {stein[64]:.5f} ratio {ratio:.3f}; "
              f"64*stein[64] {64 * stein[64]:.4f} vs Var(tau) {var_tau:.4f}")
        assert lo <= ratio <= hi, (
            f"ratio {ratio:.3f} outside [{lo:.3f}, {hi:.3f}]: "
            f"E|H - F|^2 = Var(tau)/n + O(1/n^2) should shrink about 4.7x "
            f"from n=16 to n=64")
        assert abs(64 * stein[64] - var_tau) <= 0.1 * var_tau, (
            f"64*stein[64] = {64 * stein[64]:.4f} not within 10% of "
            f"Var(tau) = {var_tau:.4f}, the 1/n constant")


def test_criterion_10_mgf_bound():
    with criterion(10, "kernel MGF bound on the uniform law"):
        points = mgf_bound_check(catalog_get("uniform"),
                                 [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        for p in points:
            assert p.ok, f"x={p.x}: lhs {p.lhs} > rhs {p.rhs}"


def test_criterion_11_conversions_and_kolmogorov():
    with criterion(11, "distance conversions and empirical Kolmogorov"):
        zero = convert(0.0)
        assert (zero.uniform_density, zero.kl, zero.wasserstein2,
                zero.total_variation) == (0.0, 0.0, 0.0, 0.0)
        r = convert(0.02)
        assert abs(r.kl - 0.01) <= 1e-6
        assert abs(r.wasserstein2 - 0.02) <= 1e-6
        assert abs(r.total_variation - 0.1414213562373095) <= 1e-6
        assert abs(r.uniform_density - 0.3368623609984775) <= 1e-6

        u = catalog_get("uniform")
        sample, _ = linear_sum_pairs([u] * 32, 32, substream(1111, "k"), 10 ** 5)
        upper, _, _ = fisher_distance_upper(sample)
        kol = kolmogorov_empirical(sample.f)
        print(f"  kolmogorov {kol:.4f} vs sqrt(upper)+0.01 "
              f"{math.sqrt(upper) + 0.01:.4f}")
        assert kol <= math.sqrt(upper) + 0.01


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "repeated runs emit byte-identical CSV"):
        base = dict(experiment="sum_rate", dist="uniform", n_grid=N_GRID,
                    reps=2 * 10 ** 4, seed=1212)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(ExperimentConfig(out_path=p1, **base))
        run(ExperimentConfig(out_path=p2, **base))
        b1, b2 = Path(p1).read_bytes(), Path(p2).read_bytes()
        assert b1 == b2 and len(b1) > 0
