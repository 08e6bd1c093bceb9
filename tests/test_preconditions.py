"""Every documented precondition refuses its input with the package's error,
not with a numpy or Python one, and without a numpy warning first."""

import math

import numpy as np
import pytest

from steinfisher.distances import convert, kolmogorov_empirical
from steinfisher.distributions import catalog_get, chunk_sizes
from steinfisher.errors import (DegenerateVariance, InsufficientData,
                                InvalidInput, NotIntegrable, QuadratureFailure)
from steinfisher.estimate import (ScoreSample, fisher_distance_upper, fit_rate,
                                  fit_score)
from steinfisher.moments import NegMomentQuery, NonnegativeLaw
from steinfisher.quadform import (CoefficientMatrix, QuadFormModel,
                                  banded_coefficients, draw_score_pairs,
                                  gaussian_negative_moment_norm,
                                  gaussian_negative_moment_norm_mc)
from steinfisher.quadrature import integrate
from steinfisher.samplemean import (SmoothLink, affine_sin_link,
                                    draw_score_pairs_sm, identity_link,
                                    linear_sum_pairs, pre_pass,
                                    sample_mean_model, sin_link)
from steinfisher.streams import substream

GAUSSIAN = catalog_get("gaussian")
PAIR = CoefficientMatrix([[0.0, 1.0], [1.0, 0.0]])
ONE = NonnegativeLaw.constant(1.0).mgf


def _quadform_readout(matrix, law=GAUSSIAN):
    """Reads a banded n = 4 model's draws out at a 3-coordinate model."""
    model = QuadFormModel(banded_coefficients(4), [GAUSSIAN] * 4)
    readout = QuadFormModel(matrix, [law] * 3)
    return lambda: model.evaluate(np.ones((1, 4)), readouts=[readout])


def _norm_mc(order):
    return lambda: gaussian_negative_moment_norm_mc(PAIR, order, substream(5),
                                                    1000)


def _draw(reps, family="samplemean", readouts=False):
    """A draw of ``reps`` score pairs from a four-coordinate model."""
    if family == "samplemean":
        model = sample_mean_model(identity_link(), [GAUSSIAN] * 4)
        draw = draw_score_pairs_sm
    else:
        model = QuadFormModel(banded_coefficients(4), [GAUSSIAN] * 4)
        draw = draw_score_pairs
    kwargs = {"readouts": [model]} if readouts else {}
    return lambda: draw(model, substream(9), reps, **kwargs)


PRECONDITIONS = [
    pytest.param(lambda: ScoreSample([0.0, 1.0], [0.0], [1.0], [False]),
                 InvalidInput, "share one shape", id="score-sample-shapes"),
    # an empty sample has guarded fraction 0 and too few pairs
    pytest.param(lambda: fisher_distance_upper(ScoreSample([], [], [], [])),
                 InsufficientData, "have 0", id="empty-score-sample"),
    pytest.param(lambda: fit_rate([8, 16, 32, 64], [1.0, 0.5, 0.25]),
                 InvalidInput, "align", id="fit-rate-lengths"),
    pytest.param(lambda: NegMomentQuery(alpha=1.0, mgf_factors=()),
                 InvalidInput, "at least one", id="query-without-factors"),
    pytest.param(lambda: NonnegativeLaw.constant(0.0),
                 InvalidInput, "positive", id="constant-law-zero"),
    pytest.param(lambda: CoefficientMatrix([[0.0, 1.0, 2.0]]),
                 InvalidInput, "square", id="matrix-not-square"),
    pytest.param(lambda: QuadFormModel(PAIR, [GAUSSIAN]),
                 InvalidInput, "one distribution per", id="quadform-law-count"),
    # n = 2 draws cannot support order 1
    pytest.param(_norm_mc(1.0), NotIntegrable, "draws", id="mc-norm-divergent"),
    pytest.param(lambda: integrate(np.exp, 0.0, math.inf),
                 QuadratureFailure, "finite bounds", id="integrate-infinite"),
    pytest.param(lambda: integrate(lambda x: np.sin(1.0 / x), 1e-6, 1.0,
                                   limit=16),
                 QuadratureFailure, "stalled", id="integrate-stalls"),
    pytest.param(lambda: SmoothLink(
        "flat", lambda x: (np.cos(x), -np.sin(x), -np.cos(x))),
                 InvalidInput, "nonzero derivative", id="link-flat-at-zero"),
    pytest.param(lambda: sample_mean_model(identity_link(), [GAUSSIAN] * 3, 4),
                 InvalidInput, "need 4", id="sample-mean-law-count"),
    pytest.param(lambda: sample_mean_model(sin_link(), [GAUSSIAN] * 3),
                 InvalidInput, "pre-pass stream", id="link-without-stream"),
    pytest.param(lambda: draw_score_pairs_sm(
        sample_mean_model(identity_link(), [GAUSSIAN] * 4), substream(8), 10,
        readouts=[sample_mean_model(identity_link(), [catalog_get("uniform")])]),
                 InvalidInput, "first of the model", id="readout-laws"),
    pytest.param(_quadform_readout(banded_coefficients(3), catalog_get("uniform")),
                 InvalidInput, "first of the model", id="quadform-readout-laws"),
    pytest.param(_quadform_readout(banded_coefficients(3, 2)),
                 InvalidInput, "positive multiple", id="quadform-readout-matrix"),
    pytest.param(_quadform_readout(CoefficientMatrix(
        -banded_coefficients(3).entries)),
                 InvalidInput, "positive multiple", id="quadform-readout-sign"),
    # sample_mean_model scales a link to |H'(0)| near 1 first; pre_pass alone
    # does not, and the moments of this one overflow
    pytest.param(lambda: pre_pass(affine_sin_link(1e300, 0.0), [GAUSSIAN] * 4,
                                  4, 10 ** 4, substream(7)),
                 DegenerateVariance, "not finite", id="prepass-overflow"),
    pytest.param(lambda: substream(1, 1.5),
                 TypeError, "int or str", id="stream-path-float"),
    pytest.param(lambda: kolmogorov_empirical(np.r_[np.zeros(19_999), np.nan]),
                 InvalidInput, "finite draws", id="kolmogorov-nan-draw"),
]

# Orders and values that once came back as a number, a nan or a numpy error.
BAD_VALUES = [
    pytest.param(_norm_mc(-1.0), id="mc-norm-negative-order"),
    pytest.param(_norm_mc(0.0), id="mc-norm-zero-order"),
    pytest.param(_norm_mc(math.nan), id="mc-norm-nan-order"),
    pytest.param(lambda: gaussian_negative_moment_norm(PAIR, math.nan),
                 id="exact-norm-nan-order"),
    pytest.param(lambda: NegMomentQuery(alpha=math.nan, mgf_factors=(ONE,)),
                 id="query-nan-alpha"),
    pytest.param(lambda: fit_rate([8, 16, 32, 64], [1.0, math.nan, 0.25, 0.1]),
                 id="fit-rate-nan-error"),
    pytest.param(lambda: fit_rate([8, 16, 32, 64], [1.0, math.inf, 0.25, 0.1]),
                 id="fit-rate-inf-error"),
    pytest.param(lambda: fit_rate([8, math.nan, 32, 64], [1.0, 0.5, 0.25, 0.1]),
                 id="fit-rate-nan-n"),
    # every chunked draw splits its reps by chunk_sizes, which once gave a
    # negative count a whole chunk and zero a numpy or Python error
    pytest.param(lambda: chunk_sizes(-5), id="chunk-sizes-negative"),
    pytest.param(_draw(-5), id="samplemean-draw-negative-reps"),
    pytest.param(_draw(0), id="samplemean-draw-zero-reps"),
    pytest.param(_draw(0, readouts=True), id="samplemean-readout-zero-reps"),
    pytest.param(_draw(0, "quadform"), id="quadform-draw-zero-reps"),
    pytest.param(_draw(0, "quadform", readouts=True),
                 id="quadform-readout-zero-reps"),
    pytest.param(lambda: linear_sum_pairs([GAUSSIAN] * 4, 4, substream(9), -3),
                 id="linear-sum-negative-reps"),
    pytest.param(lambda: gaussian_negative_moment_norm_mc(
        banded_coefficients(40), 8.0, substream(5), -5),
                 id="mc-norm-negative-reps"),
    pytest.param(lambda: gaussian_negative_moment_norm_mc(
        banded_coefficients(40), 8.0, substream(5), 0),
                 id="mc-norm-zero-reps"),
    pytest.param(lambda: gaussian_negative_moment_norm_mc(
        banded_coefficients(40), 8.0, substream(5), 1),
                 id="mc-norm-one-rep"),
    # int() once truncated these to 2 and 1 draws
    pytest.param(lambda: chunk_sizes(2.5), id="chunk-sizes-fraction"),
    pytest.param(lambda: chunk_sizes(True), id="chunk-sizes-bool"),
    pytest.param(_draw(2.5), id="samplemean-draw-fraction-reps"),
    pytest.param(_draw(2.5, "quadform"), id="quadform-draw-fraction-reps"),
    pytest.param(lambda: pre_pass(identity_link(), [GAUSSIAN] * 4, 4,
                                  20_000.5, substream(7)),
                 id="prepass-fraction-reps"),
    pytest.param(lambda: pre_pass(identity_link(), [GAUSSIAN] * 4, 4, True,
                                  substream(7)),
                 id="prepass-bool-reps"),
    # a Kolmogorov distance lies in [0, 1]
    pytest.param(lambda: convert(0.02, kolmogorov_empirical=math.nan),
                 id="convert-nan-kolmogorov"),
    pytest.param(lambda: convert(0.02, kolmogorov_empirical=math.inf),
                 id="convert-inf-kolmogorov"),
    pytest.param(lambda: convert(0.02, kolmogorov_empirical=-3.0),
                 id="convert-negative-kolmogorov"),
    pytest.param(lambda: convert(0.02, kolmogorov_empirical=1.5),
                 id="convert-kolmogorov-above-one"),
]


@pytest.mark.parametrize("call, error, match", PRECONDITIONS)
def test_precondition_is_refused(call, error, match):
    with pytest.raises(error, match=match) as refused:
        call()
    if error is QuadratureFailure:
        # only a quadrature that ran has an achieved error to report
        assert (refused.value.achieved is not None) == (match == "stalled")


@pytest.mark.parametrize("call", BAD_VALUES)
def test_bad_order_or_value_is_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


def test_fit_score_separates_tied_edges():
    # f rounded to one decimal: equal-mass cuts land on tied draws, and the
    # tied edges are nudged apart
    f = np.round(substream(6, "ties").standard_normal(20_000), 1)
    sample = ScoreSample(f, -f, np.ones_like(f), np.zeros(f.size, dtype=bool))
    edges = fit_score(sample).bin_edges
    assert not np.isin(edges, f).all()
    assert np.all(np.diff(edges) > 0.0)
