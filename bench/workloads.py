"""The benchmark's workloads: what each one runs, at which size, and how its
output is checked.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in ``bench/README.md``.  This module
does not import steinfisher at module level, so the parent process of the
benchmark stays free of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# References are recorded from these seeds (``run.py --record-references``);
# each row stores the mean and the standard deviation over them.  The seeds
# are kept away from the small seeds a benchmark run is usually given.
REFERENCE_SEEDS = tuple(range(1001, 1025))
# A Monte Carlo row passes when it lies within this many combined standard
# errors of the reference mean.  The run's standard error is the larger of
# the one it reports and the spread over the reference seeds, because the
# reported one leaves out the pre-pass and the plug-in fit; the reference
# mean adds its own, spread / sqrt(len(REFERENCE_SEEDS)).
MC_SIGMAS = 6.0
# Rows that are deterministic functions of the config must match the
# reference to this relative tolerance.
DETERMINISTIC_RTOL = 1e-9
DETERMINISTIC = ("negative_moment", "normalized_trend", "structural_factor")

# The thread-count contract: quadform_rate writes the same bytes with 1 and 2
# shard workers.  Three full shards, so both workers get work.
THREAD_CHECK = dict(experiment="quadform_rate", dist="uniform",
                    n_grid=(8, 16, 32, 64), reps=3 * 16384)
THREAD_CHECK_ENV = {"OPENBLAS_NUM_THREADS": "1"}

# The library pipeline's density grid and the grid points it reports.
DENSITY_POINTS = 201
DENSITY_SPAN = 4.0
DENSITY_REPORTED = range(25, 200, 25)  # x = -3, -2, ..., 3

# Thread settings the benchmark controls; inherited values are dropped so a
# run does not depend on the caller's environment.
CONTROLLED_ENV = ("STEINFISHER_THREADS", "OPENBLAS_NUM_THREADS",
                  "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str          # CLI experiment, or "estimators" for the pipeline
    laws: tuple              # catalog names looked up during set-up
    full: dict               # parameters of the timed runs
    smoke: dict              # reduced parameters for --smoke
    env: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.experiment != "estimators"

    @property
    def rate(self) -> bool:
        return self.experiment.endswith("_rate")

    def params(self, size: str) -> dict:
        return self.full if size == "full" else self.smoke

    def coordinates(self, size: str) -> int:
        """Nominal coordinates drawn and evaluated by one run.

        ``reps * sum(n)`` plus pre-pass draws.  ``negmoment`` draws nothing;
        its rows carry ``reps = 1``, so the count is ``sum(n)``: one MGF
        factor per coordinate of each grid point.
        """
        p = self.params(size)
        if self.experiment == "estimators":
            return (p["reps"] + p["prepass_reps"]) * p["n"]
        return p.get("reps", 1) * sum(p["n_grid"])


GRID = (8, 16, 32, 64, 128)

WORKLOADS = {w.name: w for w in (
    Workload("sum_uniform", "sum_rate", ("uniform",),
             full=dict(dist="uniform", n_grid=GRID, reps=100_000),
             smoke=dict(dist="uniform", n_grid=(8, 16, 32, 64), reps=2_000)),
    Workload("quadform_banded", "quadform_rate", ("uniform",),
             full=dict(dist="uniform", n_grid=GRID, reps=100_000),
             smoke=dict(dist="uniform", n_grid=(8, 16, 32, 64), reps=20_000),
             env={"STEINFISHER_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}),
    Workload("negmoment_uniform", "negmoment", ("uniform",),
             full=dict(dist="uniform", n_grid=(8, 16, 32), alpha=1.0),
             smoke=dict(dist="uniform", n_grid=(4, 8), alpha=1.0)),
    Workload("estimators_tanh", "estimators", ("exponential_centered",),
             full=dict(n=16, reps=1_000_000, prepass_reps=100_000, bins=256),
             smoke=dict(n=16, reps=20_000, prepass_reps=10_000, bins=64)),
)}


def cli_argv(experiment: str, params: dict, seed: int, out_path: str) -> list:
    """Flags for ``steinfisher.cli.main``: the only input the program gets."""
    argv = ["run", "--experiment", experiment, "--dist", params["dist"],
            "--n-grid", ",".join(str(n) for n in params["n_grid"]),
            "--seed", str(seed), "--out-path", out_path]
    if "reps" in params:
        argv += ["--reps", str(params["reps"])]
    if "alpha" in params:
        argv += ["--alpha", repr(params["alpha"])]
    return argv


def run_estimators(params: dict, seed: int, out_path: str) -> None:
    """The library pipeline that the CLI never runs, written as CSV rows.

    Every function is looked up on its module at call time, so a traced run
    sees the tracer's wrappers.
    """
    import numpy as np
    from steinfisher import cli, distances, estimate, samplemean, streams

    n = params["n"]
    law = cli.catalog_get("exponential_centered")
    model = samplemean.sample_mean_model(
        samplemean.tanh_link(), [law] * n, n,
        stream=streams.substream(seed, "prepass", n),
        prepass_reps=params["prepass_reps"])
    sample = samplemean.draw_score_pairs_sm(
        model, streams.substream(seed, "main", n), params["reps"])
    upper, upper_se, guarded = estimate.fisher_distance_upper(sample)
    plugin, plugin_se, _ = estimate.plugin_split(
        sample, estimate.BinConfig(bins=params["bins"]))
    grid = np.linspace(-DENSITY_SPAN, DENSITY_SPAN, DENSITY_POINTS)
    density = estimate.density_representation(sample, grid)
    ks = distances.kolmogorov_empirical(sample.f)
    report = distances.convert(upper, kolmogorov_empirical=ks)

    def row(estimator, value, se=0.0):
        return cli.ResultRow(experiment="estimators", n=n, reps=params["reps"],
                             seed=seed, estimator=estimator,
                             estimate=float(value), standard_error=float(se),
                             guarded_fraction=guarded)

    rows = [row("prepass_mu", model.mu_h, model.pre_pass_se[0]),
            row("prepass_sigma", model.sigma, model.pre_pass_se[1]),
            row("fisher_upper", upper, upper_se),
            row("fisher_plugin", plugin, plugin_se)]
    rows += [row(f"density@{grid[j]:+.0f}", density.values[j],
                 density.std_errors[j]) for j in DENSITY_REPORTED]
    rows += [row("kolmogorov", ks), row("total_variation", report.total_variation)]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(cli.rows_to_csv(rows))


def check_rows(workload: Workload, rows, reference) -> list:
    """Problems found in one run's rows; an empty list means the output passed.

    ``reference`` holds ``[n, estimator, mean, sd]`` for each row, recorded
    at full size over ``REFERENCE_SEEDS``, or is None to check only what
    holds at any size.
    """
    problems = []
    by_key = {(r.n, r.estimator): r for r in rows}
    for r in rows:
        if not math.isfinite(r.estimate) or not math.isfinite(r.standard_error):
            problems.append(f"{r.estimator} at n={r.n} is not finite")
        if r.guarded_fraction != 0.0:
            problems.append(f"{r.estimator} at n={r.n} has guarded fraction "
                            f"{r.guarded_fraction!r}")
    if workload.rate:
        slope = by_key.get((0, "rate_fit_slope"))
        if slope is None or not slope.estimate < 0.0:
            problems.append(f"rate_fit_slope is not negative: {slope}")
    if workload.experiment == "estimators":
        n = workload.params("full")["n"]
        upper = by_key.get((n, "fisher_upper"))
        tv = by_key.get((n, "total_variation"))
        if upper is None or tv is None or not math.isclose(
                tv.estimate, math.sqrt(upper.estimate), rel_tol=1e-12):
            problems.append("total_variation is not sqrt(fisher_upper)")
    if reference is None:
        return problems

    ref = {(int(n), est): (mean, sd) for n, est, mean, sd in reference}
    if set(ref) != set(by_key):
        problems.append(f"rows {sorted(set(by_key) ^ set(ref))} differ from "
                        f"the reference rows")
        return problems
    inflate = math.sqrt(1.0 + 1.0 / len(REFERENCE_SEEDS))
    for key, (mean, sd) in ref.items():
        r = by_key[key]
        diff = abs(r.estimate - mean)
        if key[1] in DETERMINISTIC:
            tol = DETERMINISTIC_RTOL * abs(mean)
            bound = f"relative {DETERMINISTIC_RTOL:g}"
        else:
            tol = MC_SIGMAS * max(r.standard_error, sd) * inflate
            bound = f"{MC_SIGMAS:g} combined SE = {tol:.3g}"
        if diff > tol:
            problems.append(f"{key[1]} at n={key[0]}: {r.estimate!r} vs "
                            f"reference {mean!r}, off by {diff:.3g} > {bound}")
    return problems
