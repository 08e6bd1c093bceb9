import dataclasses

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
