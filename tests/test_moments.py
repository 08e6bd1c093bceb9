import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinfisher import moments
from steinfisher.distributions import catalog_get
from steinfisher.errors import (InvalidInput, MissingKernelDerivativeBound,
                                NotIntegrable)
from steinfisher.moments import (MgfCheckPoint, NegMomentQuery, NonnegativeLaw,
                                 mgf_bound_check, negative_moment, ujmld_trend)
from steinfisher.streams import substream

GAUSS_SQ = NonnegativeLaw.square_of(catalog_get("gaussian"))


def test_negative_moment_four_gaussian_squares():
    query = NegMomentQuery(alpha=1.0, mgf_factors=(GAUSS_SQ.mgf,) * 4)
    # chi-square oracle: E[(chi2_4)^-1] = 1 / (4 - 2)
    assert negative_moment(query) == pytest.approx(0.5, abs=1e-9)


def test_negative_moment_constant_law():
    one = NonnegativeLaw.constant(1.0)
    query = NegMomentQuery(alpha=1.0, mgf_factors=(one.mgf,))
    assert negative_moment(query) == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(st.floats(0.2, 5.0), st.floats(0.5, 4.0))
def test_negative_moment_deterministic_scaling(mu, alpha):
    law = NonnegativeLaw.constant(mu)
    query = NegMomentQuery(alpha=alpha, mgf_factors=(law.mgf,))
    assert negative_moment(query) == pytest.approx(mu ** -alpha,
                                                   rel=1e-9, abs=1e-9)


def test_negative_moment_17_squares_order8():
    # 17 factors is the smallest count making order 8 integrable; the exact
    # inverse-moment of a chi-square is the oracle.  (A plain Monte Carlo
    # average cannot certify this value: the integrand's tail index is
    # 17/16, so even 1e7 draws sit far below the truth.)
    query = NegMomentQuery(alpha=8.0, mgf_factors=(GAUSS_SQ.mgf,) * 17)
    value = negative_moment(query)
    exact = 2.0 ** -8.0 * math.gamma(17 / 2 - 8) / math.gamma(17 / 2)
    assert value == pytest.approx(exact, rel=1e-8)
    stream = substream(37, "mc17")
    total, reps = 0.0, 2_000_000
    for _ in range(10):
        x = stream.standard_normal((reps // 10, 17))
        total += ((x ** 2).sum(axis=1) ** -8.0).sum()
    mc = total / reps
    print(f"heavy-tail demo: exact {exact:.3e} vs naive MC {mc:.3e}")
    assert mc < exact  # the naive average undershoots, as expected


def test_negative_moment_rejects_divergent():
    query = NegMomentQuery(alpha=8.0, mgf_factors=(GAUSS_SQ.mgf,) * 4)
    with pytest.raises(NotIntegrable):
        negative_moment(query)


def test_query_validates_factors():
    with pytest.raises(InvalidInput):
        NegMomentQuery(alpha=1.0, mgf_factors=(lambda x: 0.5 + 0.0 * np.asarray(x),))
    with pytest.raises(InvalidInput):
        NegMomentQuery(alpha=-1.0, mgf_factors=(GAUSS_SQ.mgf,))


def test_mgf_integrates_each_abscissa_once(monkeypatch):
    calls = []
    integrate = moments.integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(moments, "integrate", counted)
    law = NonnegativeLaw.square_of(catalog_get("uniform"))
    seen = []

    def recorded(x):
        seen.append(np.array(x, dtype=float))
        return law.mgf(x)

    negative_moment(NegMomentQuery(alpha=1.0, mgf_factors=(recorded,) * 32))
    query_calls = len(calls)
    distinct = {a.tobytes(): a for a in seen}
    assert len(seen) == 32 * len(distinct)
    # one evaluation of each distinct abscissa array on a fresh law does the
    # same quadrature work as the whole 32-factor query
    calls.clear()
    fresh = NonnegativeLaw.square_of(catalog_get("uniform"))
    for a in distinct.values():
        fresh.mgf(a)
    assert query_calls == len(calls)
    abscissae = sum(a.size for a in distinct.values())
    assert abscissae <= query_calls <= 4 * abscissae  # at most 4 pieces each


@pytest.mark.parametrize("make", [NonnegativeLaw.square_of,
                                  NonnegativeLaw.kernel_of])
def test_mgf_cache_is_transparent(make):
    law = make(catalog_get("exponential_centered"))
    xs = np.array([0.0, 0.5, 2.0, 1e3, 1e6])
    first = law.mgf(xs)
    np.testing.assert_array_equal(law.mgf(xs.copy()), first)
    assert [law.mgf(float(x)) for x in xs] == list(first)
    # a fresh law has an empty cache
    fresh = make(catalog_get("exponential_centered"))
    np.testing.assert_array_equal(fresh.mgf(xs), first)
    with pytest.raises(ValueError):
        first[0] = 0.5
    # the cache keys on a copy of the abscissae, not on the caller's array
    xs[1] = 7.0
    assert law.mgf(xs)[1] == law.mgf(7.0)
    assert law.mgf(np.array([0.5]))[0] == first[1]


def test_square_mgf_resolves_peak_at_zero():
    # E[exp(-v X^2)] ~ p(0) sqrt(pi / v) for large v; a single window
    # integral places no node in the peak of width 1/sqrt(v) at 0
    for name in ("uniform", "exponential_centered", "student_t(20)"):
        dist = catalog_get(name)
        law = NonnegativeLaw.square_of(dist)
        for v in (1e3, 1e6):
            approx = float(dist.density(np.array([0.0]))[0]) * math.sqrt(math.pi / v)
            assert law.mgf(v) == pytest.approx(approx, rel=2e-3)


def test_uniform_negative_moments_pinned():
    # CLI negmoment, uniform, alpha = 1; the values were recorded before the
    # MGF cache existed
    law = NonnegativeLaw.square_of(catalog_get("uniform"))
    values = [negative_moment(NegMomentQuery(alpha=1.0,
                                             mgf_factors=(law.mgf,) * n))
              for n in (8, 16, 32)]
    np.testing.assert_allclose(
        values, [0.1416641543324312, 0.06604669615055195, 0.0320795291552325],
        rtol=1e-12)


@pytest.mark.parametrize("name", ["gaussian", "uniform", "exponential_centered",
                                  "student_t(20)"])
@pytest.mark.parametrize("alpha", [1e-9, 8.9e-71])
def test_negative_moment_small_alpha_tends_to_one(name, alpha):
    # E[S^-alpha] -> 1 as alpha -> 0; 1/Gamma(alpha) once scaled the
    # integrand below the tolerance and returned about alpha instead
    law = NonnegativeLaw.square_of(catalog_get(name))
    value = negative_moment(NegMomentQuery(alpha=alpha, mgf_factors=(law.mgf,) * 3))
    assert abs(value - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [3, 7])
@pytest.mark.parametrize("alpha", [0.1, 0.5])
def test_negative_moment_chi_square_closed_form_below_one(n, alpha):
    # E[(chi2_n)^-alpha] = Gamma(n/2 - alpha) / (2^alpha Gamma(n/2))
    value = negative_moment(NegMomentQuery(alpha=alpha,
                                           mgf_factors=(GAUSS_SQ.mgf,) * n))
    exact = math.exp(math.lgamma(n / 2 - alpha) - alpha * math.log(2.0)
                     - math.lgamma(n / 2))
    assert value == pytest.approx(exact, rel=1e-9)


def test_trend_gaussian_squares_matches_chi_square():
    points = ujmld_trend(GAUSS_SQ, 1.0, [4, 8, 16, 32, 64])
    for p in points:
        assert p.value == pytest.approx(p.n / (p.n - 2.0), abs=1e-8)
    values = [p.value for p in points]
    assert all(a > b for a, b in zip(values, values[1:]))  # decreasing to 1
    assert all(v >= 1.0 - 1e-9 for v in values)


def test_trend_constant_law_is_one():
    one = NonnegativeLaw.constant(1.0)
    for p in ujmld_trend(one, 1.0, [2, 8, 32]):
        assert p.value == pytest.approx(1.0, abs=1e-8)


def test_trend_uniform_kernel_order8():
    law = NonnegativeLaw.kernel_of(catalog_get("uniform"))
    points = ujmld_trend(law, 8.0, [16, 32, 64], quadrature_tol=1e-11)
    values = [p.value for p in points]
    assert all(v is not None for v in values)
    assert all(v >= 1.0 - 1e-9 for v in values)
    assert values[0] > values[1] > values[2]  # decreasing toward 1


def test_trend_skips_divergent_points():
    points = ujmld_trend(GAUSS_SQ, 8.0, [4, 32])
    assert points[0].value is None and "decays" in points[0].note
    assert points[1].value is not None


def test_mgf_bound_uniform_grid():
    u = catalog_get("uniform")
    points = mgf_bound_check(u, [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    assert all(p.ok for p in points)
    at1 = [p for p in points if p.x == 1.0][0]
    assert at1.rhs == pytest.approx(4.0 ** (-1.0 / 3.0), abs=1e-12)
    assert at1.lhs <= at1.rhs


def test_mgf_bound_at_zero_is_trivial():
    u = catalog_get("uniform")
    p = mgf_bound_check(u, [0.0])[0]
    assert p.lhs == pytest.approx(1.0, abs=1e-9)
    assert p.rhs == pytest.approx(1.0, abs=1e-12)


def test_mgf_bound_gaussian_needs_supplied_bound():
    g = catalog_get("gaussian")
    with pytest.raises(MissingKernelDerivativeBound):
        mgf_bound_check(g, [1.0])
    # a caller-supplied c > 0 still satisfies the inequality here, since
    # exp(-x) <= (1 + x c^2)^(-1/c^2) for every positive c; report only
    points = mgf_bound_check(g, [0.5, 5.0, 50.0], c=0.1)
    assert [p.ok for p in points] == [True, True, True]


def test_mgf_bound_reports_violations_for_understated_c():
    # uniform needs c = sqrt(3); an understated bound fails and is reported
    u = catalog_get("uniform")
    points = mgf_bound_check(u, [1.0, 5.0, 10.0], c=0.5)
    assert [p.ok for p in points] == [False, False, False]
    assert all(p.lhs > p.rhs for p in points)
