"""Stein-kernel score representations and Monte Carlo estimation of the
Fisher information distance to the normal law for nonlinear statistics."""

from .distances import DistanceReport, convert, kolmogorov_empirical
from .distributions import DistributionSpec, SteinKernelForm, catalog_get
from .estimate import (BinConfig, BinnedScore, RateFit, ScoreSample,
                       density_representation, fisher_distance_plugin,
                       fisher_distance_upper, fit_rate, fit_score,
                       plugin_split)
from .moments import NegMomentQuery, NonnegativeLaw, negative_moment
from .quadform import (CoefficientMatrix, MatrixFunctionals, QuadFormModel,
                       banded_coefficients, draw_score_pairs,
                       fisher_bound_factor, gaussian_negative_moment_norm,
                       gaussian_negative_moment_norm_mc, matrix_functionals)
from .samplemean import (SampleMeanModel, SmoothLink, affine_sin_link,
                         draw_score_pairs_sm, identity_link, linear_sum_pairs,
                         link_by_name, pre_pass, sample_mean_model, sin_link,
                         tanh_link)
from .stein_core import tau_by_quadrature
from .streams import substream

__version__ = "0.1.0"
