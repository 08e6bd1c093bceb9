import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinfisher.distances import (UNIFORM_DENSITY_COEFF, convert,
                                   kolmogorov_empirical)
from steinfisher.errors import InsufficientData, InvalidInput
from steinfisher.estimate import fisher_distance_upper
from steinfisher.samplemean import linear_sum_pairs
from steinfisher.distributions import CHUNK, catalog_get, ndtr
from steinfisher.streams import substream


def test_convert_zero_is_gaussian_fixed_point():
    r = convert(0.0)
    assert (r.uniform_density, r.kl, r.wasserstein2, r.total_variation) == (
        0.0, 0.0, 0.0, 0.0)
    assert r.cap_notes == ()


def test_convert_tabulated_example():
    r = convert(0.02)
    assert r.kl == pytest.approx(0.01, abs=1e-12)
    assert r.wasserstein2 == pytest.approx(0.02, abs=1e-12)
    assert r.total_variation == pytest.approx(0.1414213562373095, abs=1e-6)
    # direct arithmetic: (1 + sqrt(6 / pi)) * sqrt(0.02)
    assert r.uniform_density == pytest.approx(0.3368623609984775, abs=1e-6)


def test_convert_flags_vacuous_tv():
    # total_variation bounds ||p - q||_1, whose trivial cap is 2
    r = convert(4.5)
    assert r.kl == pytest.approx(2.25)
    assert r.total_variation == pytest.approx(math.sqrt(4.5))
    assert any("total_variation" in note for note in r.cap_notes)
    assert convert(3.0).cap_notes == ()


def test_convert_carries_a_kolmogorov_distance_in_range():
    for ks in (None, 0.0, 0.25, 1.0):
        assert convert(0.02, kolmogorov_empirical=ks).kolmogorov_empirical == ks


def test_convert_rejects_negative():
    with pytest.raises(InvalidInput):
        convert(-1e-9)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_convert_monotone_and_chain_consistent(a, b):
    lo, hi = sorted((a, b))
    r_lo, r_hi = convert(lo), convert(hi)
    for field in ("uniform_density", "kl", "wasserstein2", "total_variation"):
        assert getattr(r_lo, field) <= getattr(r_hi, field) + 1e-15
    for r in (r_lo, r_hi):
        assert r.kl <= r.fisher / 2.0 + 1e-15
        assert r.total_variation <= math.sqrt(2.0 * r.kl) + 1e-15
        assert r.wasserstein2 <= 2.0 * r.kl + 1e-15
        assert r.uniform_density == pytest.approx(
            UNIFORM_DENSITY_COEFF * math.sqrt(r.fisher), rel=1e-12, abs=1e-15)


def test_kolmogorov_gaussian_draws():
    g = catalog_get("gaussian")
    draws = g.sampler(substream(3, "kol"), 10 ** 5)
    assert kolmogorov_empirical(draws) <= 0.01


def _kolmogorov_whole_array(samples, cdf):
    x = np.sort(samples)
    n = x.size
    c = cdf(x)
    return float(max(np.max(np.arange(1, n + 1) / n - c),
                     np.max(c - np.arange(0, n) / n)))


@pytest.mark.parametrize("n", [10 ** 4, 3 * CHUNK, 3 * CHUNK + 1])
def test_kolmogorov_chunks_equal_the_whole_array_formula(n):
    from scipy import special
    # slightly off the standard normal, so the sup sits inside the sample
    draws = 1.1 * catalog_get("gaussian").sampler(substream(4, "kol", n), n) + 0.05
    got = kolmogorov_empirical(draws)
    assert got == _kolmogorov_whole_array(draws, ndtr)
    assert got == pytest.approx(_kolmogorov_whole_array(draws, special.ndtr),
                                rel=0, abs=1e-15)


def test_kolmogorov_constant_samples():
    assert kolmogorov_empirical(np.zeros(10 ** 4)) == pytest.approx(0.5)


def test_kolmogorov_requires_data():
    with pytest.raises(InsufficientData):
        kolmogorov_empirical(np.zeros(999))


def test_kolmogorov_below_sqrt_fisher_upper_for_uniform_sums():
    u = catalog_get("uniform")
    sample, _ = linear_sum_pairs([u] * 32, 32, substream(5, "k32"), 10 ** 5)
    upper, _, _ = fisher_distance_upper(sample)
    assert kolmogorov_empirical(sample.f) <= math.sqrt(upper) + 0.01
