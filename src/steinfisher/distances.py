"""Conversion ladder from a Fisher information distance to weaker metrics,
plus the empirical Kolmogorov distance used for sanity cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import CHUNK, ndtr
from .errors import InsufficientData, InvalidInput

UNIFORM_DENSITY_COEFF = 1.0 + math.sqrt(6.0 / math.pi)


@dataclass(frozen=True)
class DistanceReport:
    """Bounds implied by one Fisher information distance value.

    ``kl`` is half the Fisher distance (the log-Sobolev inequality).
    ``wasserstein2`` is ``2 * kl``, Talagrand's bound on the squared
    distance W2^2, not on W2.  ``total_variation`` is ``sqrt(2 * kl)``,
    Pinsker's bound on the L1 distance ``||p - q||_1``, which never
    exceeds 2.  Bounds are never clipped at their trivial caps; vacuous
    ones (for now only a total variation above 2) are flagged in
    ``cap_notes`` instead.
    """

    fisher: float
    uniform_density: float
    kl: float
    wasserstein2: float
    total_variation: float
    kolmogorov_empirical: Optional[float] = None
    cap_notes: tuple = ()


def convert(fisher_value: float, *,
            kolmogorov_empirical: Optional[float] = None) -> DistanceReport:
    """Populate every downstream bound from a Fisher distance value."""
    if fisher_value < 0.0 or not math.isfinite(fisher_value):
        raise InvalidInput(f"fisher distance must be a finite nonnegative real, "
                           f"got {fisher_value!r}")
    if kolmogorov_empirical is not None and not 0.0 <= kolmogorov_empirical <= 1.0:
        raise InvalidInput(f"a Kolmogorov distance lies in [0, 1], "
                           f"got {kolmogorov_empirical!r}")
    kl = fisher_value / 2.0
    tv = math.sqrt(2.0 * kl)
    notes = []
    if tv > 2.0:
        notes.append("total_variation bound exceeds the trivial L1 cap 2")
    return DistanceReport(
        fisher=fisher_value,
        uniform_density=UNIFORM_DENSITY_COEFF * math.sqrt(fisher_value),
        kl=kl,
        wasserstein2=2.0 * kl,
        total_variation=tv,
        kolmogorov_empirical=kolmogorov_empirical,
        cap_notes=tuple(notes),
    )


def kolmogorov_empirical(f_samples) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF.

    The sorted draws are walked in ``CHUNK``-sized slices, keeping each
    slice's two one-sided maxima, so no temporary spans all the draws
    but the sort; the result is the whole-array formula's, to the bit.
    Non-finite draws are refused.
    """
    x = np.sort(np.asarray(f_samples, dtype=float))
    n = x.size
    if n < 10 ** 4:
        raise InsufficientData(f"need at least 1e4 samples, have {n}")
    # sorted, so -inf comes first and inf, then nan, last
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise InvalidInput("the Kolmogorov distance needs finite draws")
    peaks = []
    for start in range(0, n, CHUNK):
        cdf = ndtr(x[start:start + CHUNK])
        i = np.arange(start, start + cdf.size)
        peaks += [np.max((i + 1) / n - cdf), np.max(cdf - i / n)]
    return float(np.max(peaks))
