import math

import numpy as np
import pytest

from steinfisher.distributions import catalog_get
from steinfisher.errors import DegenerateVariance, InvalidInput
from steinfisher.estimate import fisher_distance_upper
from steinfisher.samplemean import (affine_sin_link, draw_score_pair_sm,
                                    draw_score_pairs_sm, identity_link,
                                    linear_sum_pairs, linear_sum_score,
                                    link_by_name, nabla_gradient, nabla_value,
                                    pre_pass, sample_mean_model, sin_link,
                                    tanh_link)
from steinfisher.streams import substream


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


@pytest.mark.parametrize("link_fn", [sin_link, tanh_link,
                                     lambda: affine_sin_link(1.0, 0.5)])
def test_link_derivative_bounds_on_grid(link_fn):
    link = link_fn()
    xs = np.linspace(-10, 10, 2001)
    assert np.all(np.abs(link.h_prime(xs)) <= link.sup_h_prime + 1e-12)
    assert np.all(np.abs(link.h_second(xs)) <= link.sup_h_second + 1e-12)
    assert link.h_prime(0.0) == pytest.approx(link.h_prime_at_0)


def test_identity_link_reduces_to_normalized_sum():
    u = catalog_get("uniform")
    n = 9
    model = sample_mean_model(identity_link(), [u] * n, n)
    sample = draw_score_pairs_sm(model, substream(2, "lin"), 4000)
    draws_again = draw_score_pairs_sm(model, substream(2, "lin"), 4000)
    assert np.array_equal(sample.f, draws_again.f)
    # reproduce S_n and mean(tau) from the raw draws
    from steinfisher.distributions import sample_columns
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
])
def test_nabla_gradient_matches_finite_differences(name, link_fn, n):
    d = catalog_get(name)
    model = sample_mean_model(link_fn(), [d] * n, n,
                              stream=substream(5, "pp", name), prepass_reps=10 ** 4)
    stream = substream(6, "fd", name)
    step = 1e-5
    for _ in range(25):
        x = np.array([dist.sampler(stream) for dist in model.dists])
        grad = nabla_gradient(model, x)
        fd = np.empty_like(grad)
        for k in range(n):
            xp, xm = x.copy(), x.copy()
            xp[k] += step
            xm[k] -= step
            fd[k] = (nabla_value(model, xp) - nabla_value(model, xm)) / (2 * step)
        denom = np.maximum(np.abs(grad), 1e-8)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-6


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
    pair, h_classic = linear_sum_score([g] * 4, 4, substream(13, "sign"))
    assert pair.h_value == pytest.approx(pair.f_value, abs=1e-12)
    assert h_classic == pytest.approx(-pair.f_value, abs=1e-12)


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


def test_draw_score_pair_sm_single():
    g = catalog_get("gaussian")
    model = sample_mean_model(sin_link(), [g] * 6, 6,
                              stream=substream(16, "pp"), prepass_reps=10 ** 4)
    p1 = draw_score_pair_sm(model, substream(17, "draw"))
    p2 = draw_score_pair_sm(model, substream(17, "draw"))
    assert p1 == p2 and not p1.guarded
