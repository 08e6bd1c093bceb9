import math

import numpy as np
import pytest

from steinfisher.distributions import catalog_get
from steinfisher.errors import DensityUnderflow
from steinfisher.quadrature import integrate
from steinfisher.stein_core import tau_by_quadrature

SQRT3 = math.sqrt(3.0)


def smooth_bump(flat: float, zero: float):
    """C2 plateau function: 1 on [-flat, flat], 0 outside [-zero, zero]."""
    width = zero - flat

    def bump(x):
        x = np.abs(np.asarray(x, dtype=float))
        t = np.clip((x - flat) / width, 0.0, 1.0)
        return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)

    def bump_prime(x):
        x = np.asarray(x, dtype=float)
        t = np.clip((np.abs(x) - flat) / width, 0.0, 1.0)
        mag = -30.0 * t ** 2 * (1.0 - t) ** 2 / width
        return np.sign(x) * mag

    return bump, bump_prime


def clipped_poly(coeffs, flat=10.0, zero=14.0):
    bump, bump_prime = smooth_bump(flat, zero)
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()

    def alpha(x):
        return poly(np.asarray(x, dtype=float)) * bump(x)

    def alpha_prime(x):
        x = np.asarray(x, dtype=float)
        return dpoly(x) * bump(x) + poly(x) * bump_prime(x)

    return alpha, alpha_prime


def covariance_formula_check(dist, alpha, alpha_prime, beta):
    """Both sides of ``Cov(alpha(X), beta(X)) = E[alpha'(X) L beta(X)]``.

    ``lhs`` integrates ``alpha * (beta - E beta) * p`` directly; ``rhs``
    integrates ``alpha'(x)`` against the tail integral of the centered
    ``beta``, each by independent adaptive quadrature.
    """
    wlo, whi = dist.quad_window
    p, tol = dist.density, 1e-10
    e_beta = integrate(lambda y: beta(y) * p(y), wlo, whi, tol=tol)
    lhs = integrate(lambda x: alpha(x) * (beta(x) - e_beta) * p(x),
                    wlo, whi, tol=tol)

    def outer(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        tails = [0.0 if v >= whi else integrate(
                     lambda y: (beta(y) - e_beta) * p(y), v, whi, tol=tol)
                 for v in xs.tolist()]
        return alpha_prime(xs) * np.array(tails)

    return lhs, integrate(outer, wlo, whi, tol=tol)


def test_covariance_identity_cov_xx_gaussian():
    g = catalog_get("gaussian")
    alpha, alpha_prime = clipped_poly([0.0, 1.0])
    lhs, rhs = covariance_formula_check(g, alpha, alpha_prime, lambda x: x)
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert abs(lhs - rhs) <= 1e-8


def test_covariance_identity_sin_xsq_gaussian():
    g = catalog_get("gaussian")
    lhs, rhs = covariance_formula_check(g, np.sin, np.cos, lambda x: x * x)
    assert abs(lhs - rhs) <= 1e-8


def test_covariance_identity_uniform_fourth_moment():
    u = catalog_get("uniform")
    alpha, alpha_prime = clipped_poly([0.0, 0.0, 0.0, 1.0])
    lhs, rhs = covariance_formula_check(u, alpha, alpha_prime, lambda x: x)
    # Cov(X^3, X) = E[X^4] = 9/5 for the unit-variance uniform law
    assert lhs == pytest.approx(9.0 / 5.0, abs=1e-9)
    assert abs(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("name", ["gaussian", "uniform",
                                  "exponential_centered", "student_t(20)"])
def test_covariance_identity_randomized(name):
    dist = catalog_get(name)
    rng = np.random.default_rng(101)
    for _ in range(5):
        alpha, alpha_prime = clipped_poly(rng.uniform(-1, 1, size=4))
        beta_coeffs = rng.uniform(-1, 1, size=5)
        beta = np.polynomial.Polynomial(beta_coeffs)
        lhs, rhs = covariance_formula_check(dist, alpha, alpha_prime, beta)
        assert abs(lhs - rhs) <= 1e-7


def test_boundary_decay_of_tail_integral(catalog_dist):
    d = catalog_dist
    wlo, whi = d.quad_window
    span = whi - wlo
    e_beta = integrate(lambda y: y * d.density(y), wlo, whi, tol=1e-12)
    tails = [
        abs(integrate(lambda y: (y - e_beta) * d.density(y),
                      whi - frac * span, whi, tol=1e-12))
        for frac in (1e-2, 1e-4, 1e-6)
    ]
    assert tails[0] > tails[1] > tails[2]
    assert tails[2] <= 1e-5


def test_tau_by_quadrature_examples():
    # the tail transform L applied to the identity: tau(0) = 1 for gaussian,
    # (3 - 1) / 2 = 1 at x = 1 for uniform, x + 1 = 3 at x = 2 for exponential
    g = catalog_get("gaussian")
    u = catalog_get("uniform")
    e = catalog_get("exponential_centered")
    assert tau_by_quadrature(g, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert tau_by_quadrature(u, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert tau_by_quadrature(e, 2.0) == pytest.approx(3.0, abs=1e-9)


def test_tau_by_quadrature_guards():
    g = catalog_get("gaussian")
    with pytest.raises(DensityUnderflow):
        tau_by_quadrature(g, 60.0)
