import dataclasses
import math

import numpy as np
import pytest

from steinfisher.distributions import catalog_get, sample_columns
from steinfisher.streams import substream

CATALOG_NAMES = ("gaussian", "uniform", "exponential_centered", "student_t(20)")


@pytest.fixture(params=CATALOG_NAMES)
def catalog_dist(request):
    return catalog_get(request.param)


def ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    c = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - c),
               np.max(c - np.arange(0, n) / n))


def assert_block_layouts_agree(model, seed):
    """``model.evaluate`` on a coordinate-major draw block and on its C-order
    copy agree to 1e-14 relative to the largest value."""
    view = sample_columns(model.dists, substream(seed, "layout"), 5000)
    copy = np.ascontiguousarray(view)
    assert view.T.flags.c_contiguous and copy.flags.c_contiguous
    a, b = model.evaluate(view), model.evaluate(copy)
    assert np.array_equal(a.guarded, b.guarded)
    keep = ~a.guarded
    for u, v in ((a.f, b.f), (a.h, b.h), (a.aux, b.aux)):
        u, v = u[keep], v[keep]
        assert np.max(np.abs(u - v)) <= 1e-14 * np.max(np.abs(v))


def counting_spec(spec, calls):
    """A copy of ``spec`` whose ``tau`` and ``tau_prime`` append
    ``(spec.name, kernel, argument shape)`` to ``calls`` on every call."""
    kf = spec.kernel_form

    def counted(kernel, fn):
        def wrapped(x):
            calls.append((spec.name, kernel, np.shape(x)))
            return fn(x)
        return wrapped

    return dataclasses.replace(spec, kernel_form=dataclasses.replace(
        kf, tau=counted("tau", kf.tau),
        tau_prime=counted("tau_prime", kf.tau_prime)))


def _tau(dists, x):
    return np.array([d.tau(v) for d, v in zip(dists, x)])


def sample_mean_g(model, x):
    """``G`` and ``(L_k G)_k`` of a sample-mean model at one draw ``x``:
    ``G = H'(0) sum_k x_k / (sigma sqrt(n))`` and ``L_k G = tau_k dG/dx_k``."""
    dg = model.link.h_prime_at_0 / (model.sigma * math.sqrt(model.n))
    return dg * x.sum(), dg * _tau(model.dists, x)


def quadform_g(model, x):
    """``G = F = x.Ax / (2 sigma)`` and ``L_k G = tau_k (dF/dx_k) / 2`` of a
    quadratic-form model at one draw ``x``."""
    grad_f = model.matrix.entries @ x / model.sigma
    return 0.5 * x @ grad_f, 0.5 * _tau(model.dists, x) * grad_f


def assert_cross_term_matches_finite_differences(model, x, g_terms,
                                                 step=1e-5):
    """The cross term ``Gamma_{Gamma,G}`` that ``model.evaluate`` builds
    into ``H`` at the one draw ``x``, recovered as ``Gamma^2 (H - G/Gamma)``,
    equals ``sum_k (d_k Gamma) L_k G`` to 1e-6 relative, with ``d_k Gamma``
    a central difference of ``evaluate(...).aux``.  ``g_terms(model, x)``
    gives ``G`` and the vector ``L_k G`` of the model's family."""
    def one(point):
        sample = model.evaluate(point[None, :])
        assert not sample.guarded[0]
        return sample

    at_x = one(x)
    gamma, h = at_x.aux[0], at_x.h[0]
    g, lg = g_terms(model, x)
    cross = gamma ** 2 * (h - g / gamma)
    d_gamma = np.empty_like(x)
    for k, e in enumerate(step * np.eye(x.size)):
        d_gamma[k] = (one(x + e).aux[0] - one(x - e).aux[0]) / (2 * step)
    expect = d_gamma @ lg
    assert abs(cross - expect) <= 1e-6 * max(abs(expect), 1e-8)


def assert_stein_identity(sample, z=5.0):
    """``E[H sin F] = E[cos F]`` and ``E[H F] = 1``, each within ``z``
    standard errors of the per-draw difference: ``E[H phi(F)] =
    E[phi'(F)]`` is what makes ``-H`` a representation of the score of F."""
    assert not sample.guarded.any()
    f, h = sample.f, sample.h
    for diff in (h * np.sin(f) - np.cos(f), h * f - 1.0):
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= z * se, (diff.mean(), se)
