import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinfisher.distributions import (CHUNK, catalog_get, chunk_sizes,
                                       sample_columns)
from steinfisher.errors import (ContractViolation, DegenerateModel,
                                InvalidInput, NotIntegrable)
from steinfisher.estimate import (ScoreSample, fisher_distance_upper,
                                  plugin_split)
from steinfisher.quadform import (CoefficientMatrix, QuadFormModel,
                                  _block_draws,
                                  banded_coefficients, draw_score_pairs,
                                  fisher_bound_factor,
                                  gaussian_negative_moment_norm,
                                  gaussian_negative_moment_norm_mc,
                                  matrix_functionals)
from steinfisher.streams import substream

from conftest import (CATALOG_NAMES, assert_block_layouts_agree,
                      assert_cross_term_matches_finite_differences,
                      assert_stein_identity, counting_spec,
                      quadform_g)


def two_by_two():
    return CoefficientMatrix([[0.0, 1.0], [1.0, 0.0]])


def gauss_pair_model():
    g = catalog_get("gaussian")
    return QuadFormModel(two_by_two(), [g, g])


def random_model(n, name, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = CoefficientMatrix(np.triu(rng.uniform(-scale, scale, (n, n)), 1))
    d = catalog_get(name)
    return QuadFormModel(m, [d] * n)


def test_hand_evaluated_draws():
    model = gauss_pair_model()
    s = model.evaluate(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert s.f[0] == pytest.approx(1.0) and s.aux[0] == pytest.approx(1.0)
    assert s.h[0] == pytest.approx(2.0, abs=1e-14)
    # At (1, -1) the closed-form algebra, cross-checked by finite
    # differences below, gives grad Theta = (1, -1), Theta_{Theta,F} = -1,
    # hence H = -1 + (-1) = -2.
    assert s.f[1] == pytest.approx(-1.0) and s.aux[1] == pytest.approx(1.0)
    assert s.h[1] == pytest.approx(-2.0, abs=1e-14)


@pytest.mark.parametrize("name", ["gaussian", "uniform", "student_t(20)",
                                  "exponential_centered"])
def test_grad_theta_matches_finite_differences(name):
    model = random_model(6, name, seed=11)
    stream = substream(21, "fd", name)
    for _ in range(25):
        x = np.array([d.sampler(stream) for d in model.dists])
        assert_cross_term_matches_finite_differences(model, x, quadform_g)


@pytest.mark.parametrize("name", ["uniform", "exponential_centered"])
def test_stein_identity_of_h(name):
    model = QuadFormModel(banded_coefficients(16, 2), [catalog_get(name)] * 16)
    assert_stein_identity(draw_score_pairs(
        model, substream(1, "stein", name), 2 * 10 ** 5))


def test_decomposition_identity_per_draw():
    model = random_model(8, "uniform", seed=13)
    stream = substream(31, "dec")
    for _ in range(50):
        x = np.array([d.sampler(stream) for d in model.dists])
        a = model.matrix.entries
        f = 0.5 * float(x @ (a @ x))
        parts = 0.5 * x * (a @ x)
        assert abs(parts.sum() - f) <= 1e-12 * max(1.0, abs(f))


def test_theta_mean_equals_sigma2():
    # E[Theta] = sigma^2, so the standardized normalizer Theta / sigma^2
    # has unit mean
    model = random_model(5, "uniform", seed=17)
    sample = draw_score_pairs(model, substream(41, "mean"), 100_000)
    se = sample.aux.std(ddof=1) / math.sqrt(len(sample))
    assert abs(sample.aux.mean() - 1.0) <= 3 * se
    std_sample = draw_score_pairs(model, substream(41, "mean"), 50_000)
    se2 = std_sample.aux.std(ddof=1) / math.sqrt(len(std_sample))
    assert abs(std_sample.aux.mean() - 1.0) <= 3 * se2


def test_evaluate_agrees_across_block_layouts():
    dists = [catalog_get(name) for name in CATALOG_NAMES * 3]
    model = QuadFormModel(banded_coefficients(len(dists), 2), dists)
    assert_block_layouts_agree(model, seed=4)


def whole_block_reference(model, x):
    """The whole-block formula: every temporary is a full (n, m) block."""
    a = model.matrix.entries
    xt = x.T
    r = a @ xt
    f = 0.5 * (xt * r).sum(axis=0)
    tau = np.array([d.tau(col) for d, col in zip(model.dists, xt)])
    taup = np.array([d.tau_prime(col) for d, col in zip(model.dists, xt)])
    r2 = r * r
    tau_r = tau * r
    theta = 0.5 * (r2 * tau).sum(axis=0)
    grad_theta = a @ tau_r + 0.5 * taup * r2
    theta_theta_f = 0.5 * (grad_theta * tau_r).sum(axis=0)
    f = f / model.sigma
    return ScoreSample.represent(f, f, theta / model.sigma2,
                                 theta_theta_f / (model.sigma2 * model.sigma))


def mixed_laws(n):
    """Runs of every catalog law, each law recurring after the others."""
    names = []
    for k in range(n):
        names += [CATALOG_NAMES[k % 4]] * (k % 3 + 1)
    return [catalog_get(name) for name in names[:n]]


@pytest.mark.parametrize("n", [2, 37, 130])
def test_evaluate_sub_blocks_match_whole_block(n):
    rng = np.random.default_rng(n)
    model = QuadFormModel(CoefficientMatrix(rng.normal(size=(n, n))),
                          mixed_laws(n))
    s = _block_draws(n)
    for m in sorted({0, 1, s - 1, s, s + 1, 1696, 16384}):
        view = sample_columns(model.dists, substream(91, "sub", n, m), m)
        ref = whole_block_reference(model, view)
        for x in (view, np.ascontiguousarray(view)):
            got = model.evaluate(x)
            assert np.array_equal(got.guarded, ref.guarded)
            # exact but for a one-draw remainder, which BLAS evaluates
            # as a matrix-vector product
            for u, v in ((got.f, ref.f), (got.h, ref.h), (got.aux, ref.aux)):
                assert np.all(np.abs(u - v)
                              <= 1e-14 * np.max(np.abs(v), initial=0.0))


def test_evaluate_calls_kernels_once_per_run_and_sub_block():
    calls = []
    u, g = (counting_spec(catalog_get(name), calls)
            for name in ("uniform", "gaussian"))
    n = 64
    model = QuadFormModel(banded_coefficients(n), [u] * 40 + [g] * 24)
    m = 3 * _block_draws(n) + 5
    model.evaluate(sample_columns(model.dists, substream(92, "count"), m))
    per_block = [(name, kernel) for name in ("uniform", "gaussian")
                 for kernel in ("tau", "tau_prime")]
    assert [c[:2] for c in calls] == per_block * 4


def test_evaluate_memory_stays_bounded():
    n = 128
    model = QuadFormModel(banded_coefficients(n),
                          [catalog_get("uniform")] * n)
    x = sample_columns(model.dists, substream(93, "memory"), 16384)
    tracemalloc.start()
    try:
        model.evaluate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-block evaluation holds about seven 16 MB (n, m) temporaries
    assert peak < 16e6


def test_draw_score_pairs_memory_stays_bounded():
    n = 128
    model = QuadFormModel(banded_coefficients(n),
                          [catalog_get("uniform")] * n)
    tracemalloc.start()
    try:
        draw_score_pairs(model, substream(94, "draw-memory"), CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (m, n) chunk of coordinates alone is 16.8 MB; a draw
    # block of eight sub-blocks is about 2 MB
    assert peak < 6e6


@pytest.mark.parametrize("n", [8, 16, 37, 130])
def test_draw_score_pairs_replays_draw_blocks(n):
    rng = np.random.default_rng(n)
    model = QuadFormModel(CoefficientMatrix(rng.normal(size=(n, n))),
                          mixed_laws(n))
    reps = CHUNK + 777
    got = draw_score_pairs(model, substream(95, "blocks", n), reps)
    replay = substream(95, "blocks", n)
    sizes = chunk_sizes(reps, 8 * _block_draws(n))
    want = ScoreSample.concat([model.evaluate(sample_columns(model.dists,
                                                             replay, m))
                               for m in sizes])
    for u, v in ((got.f, want.f), (got.h, want.h), (got.aux, want.aux),
                 (got.guarded, want.guarded)):
        assert np.array_equal(u, v, equal_nan=True)
    # up to n = 16 a block holds a whole CHUNK, so those draws are the
    # ones a whole-chunk draw gives
    assert (sizes[0] >= CHUNK) == (n <= 16)


@pytest.mark.parametrize("laws", ["uniform", "exponential_centered", "mixed"])
@pytest.mark.parametrize("bandwidth", [1, 2])
def test_readouts_match_the_prefix_blocks(laws, bandwidth):
    # One pass over n_max = 64 coordinates, read out at every n, against
    # each n's own model on the first n columns.  The block ends in a short
    # sub-block; at n = 2, and at n = 3 for bandwidth 2, every row is
    # recomputed.
    dists = (mixed_laws(64) if laws == "mixed"
             else [catalog_get(laws)] * 64)
    models = [QuadFormModel(banded_coefficients(n, bandwidth), dists[:n])
              for n in (2, 3, 8, 37, 64)]
    x = sample_columns(dists, substream(96, "readout", laws, bandwidth),
                       2 * _block_draws(64) + 77)
    for model, got in zip(models, models[-1].evaluate(x, models)):
        want = model.evaluate(x[:, :model.n])
        assert np.array_equal(got.guarded, want.guarded)
        keep = ~want.guarded
        for u, v in ((got.f, want.f), (got.h, want.h), (got.aux, want.aux)):
            assert np.max(np.abs(u[keep] - v[keep])) <= 1e-12 * np.max(
                np.abs(v[keep]))


def test_theta_nonnegative_and_lower_bound():
    # tau >= tau0 > 0 holds for gaussian (tau0 = 1) and student (18/19)
    for name, tau0 in (("gaussian", 1.0), ("student_t(20)", 18.0 / 19.0)):
        model = random_model(6, name, seed=23)
        a = model.matrix.entries
        lam_min = np.linalg.eigvalsh(a.T @ a)[0]
        stream = substream(51, "bound", name)
        x = np.column_stack([d.sampler(stream, 2000) for d in model.dists])
        sample = model.evaluate(x)
        assert np.all(sample.aux >= 0.0)
        # the draws carry Theta / sigma^2, so the bound is scaled alike
        lower = 0.5 * tau0 * lam_min * (x ** 2).sum(axis=1) / model.sigma2
        assert np.all(sample.aux >= lower - 1e-12)


def test_matrix_functionals_examples():
    mf = matrix_functionals(two_by_two())
    assert mf.sum_row4 == pytest.approx(2.0)
    assert mf.trace4 == pytest.approx(2.0)
    assert mf.structural_factor == pytest.approx(4.0)

    n3 = CoefficientMatrix(np.full((3, 3), 1.0 / math.sqrt(3.0)))
    assert n3.sigma2 == pytest.approx(1.0)
    mf3 = matrix_functionals(n3)
    gram = n3.entries.T @ n3.entries
    brute = sum(
        (sum(n3.entries[k, u] * n3.entries[k, v] for k in range(3))) ** 2
        for u in range(3) for v in range(3)
    )
    assert mf3.trace4 == pytest.approx(brute, rel=1e-12)
    eig_sq = (np.linalg.eigvalsh(gram) ** 2).sum()
    assert mf3.trace4 == pytest.approx(eig_sq, rel=1e-10)


@pytest.mark.parametrize("scale", [1e-170, 0.75, 3.0, 1e110])
def test_functionals_and_draws_of_a_scaled_matrix(scale):
    base = random_model(6, "uniform", seed=23)
    scaled = QuadFormModel(CoefficientMatrix(scale * base.matrix.entries),
                           base.dists)
    x = sample_columns(base.dists, substream(52, "scale"), 500)
    a, b = base.evaluate(x), scaled.evaluate(x)
    assert np.array_equal(a.guarded, b.guarded)
    for u, v in ((a.f, b.f), (a.h, b.h), (a.aux, b.aux)):
        assert np.max(np.abs(u - v)) <= 1e-12 * np.max(np.abs(v))
    mf, mf_scaled = (matrix_functionals(m.matrix) for m in (base, scaled))
    assert mf_scaled.structural_factor == pytest.approx(mf.structural_factor,
                                                        rel=1e-12)
    # the other functionals are reported for A itself, so trace4 scales by
    # scale^4: inf at 1e110 and 0 at 1e-170 on both sides
    raw = matrix_functionals(CoefficientMatrix(scale * base.matrix.entries))
    assert raw.trace4 == pytest.approx(scale ** 2 * scale ** 2 * mf.trace4,
                                       rel=1e-12)
    assert raw.structural_factor == pytest.approx(mf.structural_factor, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 128])
def test_banded_family_matches_diagonal_fill(n):
    # reference: fill each superdiagonal in turn with 1 / sqrt(entries)
    for bandwidth in sorted({1, 2, n - 1, n + 3}):
        diagonals = range(1, min(bandwidth, n - 1) + 1)
        value = 1.0 / math.sqrt(sum(n - d for d in diagonals))
        want = np.zeros((n, n))
        for d in diagonals:
            want[np.arange(n - d), np.arange(d, n)] = value
        got = banded_coefficients(n, bandwidth)
        assert np.array_equal(got.entries, want + want.T)
        assert got.sigma2 == pytest.approx(1.0, rel=1e-14)
    for bad in ((1, 1), (n, 0)):
        with pytest.raises(InvalidInput):
            banded_coefficients(*bad)


def test_zero_matrix_rejected():
    with pytest.raises(DegenerateModel):
        QuadFormModel(CoefficientMatrix(np.zeros((3, 3))),
                      [catalog_get("gaussian")] * 3)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_coefficient_matrix_construction(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    m = CoefficientMatrix(raw)
    assert np.array_equal(m.entries, m.entries.T)
    assert np.all(np.diag(m.entries) == 0.0)
    upper = np.triu(raw, 1)
    assert m.sigma2 == pytest.approx(float((upper ** 2).sum()))


def test_gaussian_negative_moment_norm_chisquare_oracle():
    # two disjoint pairs: A^T A = I_4, Theta = chi2_4 / 2, order 1
    a = np.zeros((4, 4))
    a[0, 1] = 1.0
    a[2, 3] = 1.0
    m = CoefficientMatrix(a)
    value = gaussian_negative_moment_norm(m, 1.0)
    # sigma^2 * E[Theta^-1] = sigma^2 * 2 * E[(chi2_4)^-1] = sigma^2 = 2
    assert value == pytest.approx(2.0, abs=1e-9)


def test_gaussian_negative_moment_norm_below_order_one():
    # the same two pairs at order 1/2: sigma^2 E[Theta^-1/2]^2
    # = 4 E[(chi2_4)^-1/2]^2 = 4 (Gamma(3/2) / (sqrt(2) Gamma(2)))^2 = pi / 2
    a = np.zeros((4, 4))
    a[0, 1] = 1.0
    a[2, 3] = 1.0
    value = gaussian_negative_moment_norm(CoefficientMatrix(a), 0.5)
    assert value == pytest.approx(math.pi / 2.0, rel=2e-14, abs=0.0)


def test_gaussian_negative_moment_norm_with_slowly_decaying_factors():
    # nine disjoint pairs, one of them with coefficient 1e-4: Gram
    # eigenvalues 1 (16 times) and 1e-8 (twice), so the order-8 norm exists
    # though the product of the eigenvalue factors decays like x^-8 up to
    # x ~ 1e8; reference value from mpmath at 40 digits
    a = np.zeros((18, 18))
    for i in range(9):
        a[2 * i, 2 * i + 1] = 1.0
    a[16, 17] = 1e-4
    value = gaussian_negative_moment_norm(CoefficientMatrix(a), 8.0)
    assert value == pytest.approx(3.8923673885360305, rel=1e-13, abs=0.0)


def test_gaussian_negative_moment_norm_not_integrable():
    with pytest.raises(NotIntegrable):
        gaussian_negative_moment_norm(two_by_two(), 8.0)


def test_gaussian_negative_moment_norm_mc_agrees():
    rng = np.random.default_rng(1712)
    m = CoefficientMatrix(np.triu(rng.uniform(-1, 1, (20, 20)), 1))
    quad_value = gaussian_negative_moment_norm(m, 8.0)
    mc_value = gaussian_negative_moment_norm_mc(m, 8.0, substream(8, "mc"),
                                                200_000)
    assert mc_value == pytest.approx(quad_value, rel=0.05)


@pytest.mark.parametrize("scale", [1e-170, 0.75, 3.0, 1e110])
def test_gaussian_negative_moment_norms_are_scale_free(scale):
    rng = np.random.default_rng(1712)
    a = np.triu(rng.uniform(-1, 1, (20, 20)), 1)
    base, scaled = CoefficientMatrix(a), CoefficientMatrix(scale * a)
    assert gaussian_negative_moment_norm(scaled, 4.0) == pytest.approx(
        gaussian_negative_moment_norm(base, 4.0), rel=1e-12)
    mc_base, mc_scaled = (
        gaussian_negative_moment_norm_mc(m, 4.0, substream(9, "mc-scale"),
                                         20_000)
        for m in (base, scaled))
    assert mc_scaled == pytest.approx(mc_base, rel=1e-12)


def test_gaussian_negative_moment_norm_mc_memory_stays_bounded():
    tracemalloc.start()
    try:
        gaussian_negative_moment_norm_mc(banded_coefficients(64), 8.0,
                                         substream(3, "mc-memory"), 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 4096-draw block holds a few 2 MB (m, 64) arrays; one
    # 100 000-draw block held about 200 MB
    assert peak < 48e6


def test_fisher_bound_factor():
    model = gauss_pair_model()
    assert fisher_bound_factor(model, 1.0) == pytest.approx(4.0)
    with pytest.raises(ContractViolation):
        fisher_bound_factor(model, 0.9)


def test_fisher_bound_factor_banded_trend():
    # reported, not asserted: the factor shrinks as banded n grows
    values = []
    for n in (8, 16, 32):
        model = QuadFormModel(banded_coefficients(n),
                              [catalog_get("gaussian")] * n)
        values.append(fisher_bound_factor(model, 1.0))
    print("banded structural factors:", values)
    assert all(v > 0 for v in values)


def test_draw_score_pair_deterministic():
    model = gauss_pair_model()
    s1 = draw_score_pairs(model, substream(6, "one"), 1)
    s2 = draw_score_pairs(model, substream(6, "one"), 1)
    assert len(s1) == 1 and not s1.guarded[0]
    assert (s1.f[0], s1.h[0], s1.aux[0]) == (s2.f[0], s2.h[0], s2.aux[0])


def test_score_identity_expectation():
    # E[f'(F)] = E[f(F) H] for bounded smooth f; MC check at 3.5 SE
    model = random_model(4, "gaussian", seed=29)
    sample = draw_score_pairs(model, substream(61, "ibp"), 200_000)
    lhs = 1.0 / np.cosh(sample.f) ** 2
    rhs = np.tanh(sample.f) * sample.h
    diff = lhs - rhs
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.5 * se


def test_product_law_plugin_strictly_positive():
    # X1 X2 with gaussian factors is not normal: plug-in beats 3 SE of zero
    model = gauss_pair_model()
    sample = draw_score_pairs(model, substream(71, "prod"), 100_000)
    est, se, _ = plugin_split(sample)
    assert est > 3 * se
    upper, _, gf = fisher_distance_upper(sample)
    assert upper > 0 and gf <= 0.01
