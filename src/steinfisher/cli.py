"""Batch front end: experiment configs, seed management, CSV/JSON emission.

Config files are flat ``key = value`` text; every field can be overridden
by a command-line flag.  Example::

    experiment = sum_rate
    dist = uniform
    n_grid = 8,16,32,64,128
    reps = 100000
    seed = 42
    out_path = sum_rate.csv
    format = csv

The three rate experiments share one runner: at each ``n`` a model is built
and drawn in shards of ``distributions.CHUNK`` pairs, each on its own
substream.  ``sum_rate`` is the identity-link sample-mean model (the
normalized sum), ``samplemean_rate`` takes its link from the config, and
``quadform_rate`` uses the banded family or a matrix file.

Output rows share one schema (header comment ``# stein-fisher v1``):
``experiment,n,reps,seed,estimator,estimate,standard_error,
guarded_fraction,wall_time_ms``.  Rate experiments append rows with
estimators ``rate_fit_slope``, ``rate_fit_intercept`` and ``rate_fit_r2``
when four or more grid points have a positive estimate.
Emitted files are byte-identical for a fixed config and seed; wall-clock
timings therefore go to stderr and the file column stays 0 unless
``--timing`` is passed.  ``STEINFISHER_THREADS`` caps shard-level worker
threads (shards merge in fixed order either way).

Exit codes: 0 success; 2 a config that cannot run, with field-level JSON on
stderr (this includes a divergent negative moment and an all-zero matrix,
found only once the run starts); 3 an estimate the program will not report:
guard-dominated draws, or a quadrature that missed its tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import distances, estimate, moments, quadform, samplemean
from .distributions import catalog_get, chunk_sizes
from .errors import (ConfigError, DegenerateModel, GuardDominated,
                     NotIntegrable, ParseError, QuadratureFailure,
                     SteinFisherError)
from .streams import substream

SCHEMA_VERSION = "stein-fisher v1"
CSV_COLUMNS = ("experiment", "n", "reps", "seed", "estimator", "estimate",
               "standard_error", "guarded_fraction", "wall_time_ms")
RATE_EXPERIMENTS = ("sum_rate", "samplemean_rate", "quadform_rate")
EXPERIMENTS = RATE_EXPERIMENTS + ("kernel_check", "negmoment", "convert")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = ""
    dist: str = "gaussian"
    link: Optional[str] = None
    matrix_path: Optional[str] = None
    n_grid: tuple = ()
    reps: int = 10 ** 4
    seed: int = 0
    out_path: str = "results.csv"
    format: str = "csv"
    alpha: float = 1.0
    fisher_value: Optional[float] = None


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    n: int
    reps: int
    seed: int
    estimator: str
    estimate: float
    standard_error: float
    guarded_fraction: float
    wall_time_ms: int = 0


def parse_config_file(path: str) -> dict:
    """Read the flat key=value format; '#' starts a comment."""
    values: dict = {}
    known = {f.name for f in fields(ExperimentConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {raw!r}", line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ParseError(f"unknown config key {key!r}", line=lineno)
            values[key] = value
    return values


def _coerce(values: dict) -> dict:
    out = dict(values)
    if "n_grid" in out and isinstance(out["n_grid"], str):
        out["n_grid"] = tuple(int(tok) for tok in out["n_grid"].split(",") if tok.strip())
    for key in ("reps", "seed"):
        if key in out and isinstance(out[key], str):
            out[key] = int(out[key])
    for key in ("alpha", "fisher_value"):
        if key in out and isinstance(out[key], str):
            out[key] = float(out[key])
    return out


def validate(config: ExperimentConfig) -> dict:
    """Field-level validation messages; empty means the config is runnable."""
    problems = {}
    if config.experiment not in EXPERIMENTS:
        problems["experiment"] = (
            f"must be one of {', '.join(EXPERIMENTS)}; got {config.experiment!r}")
        return problems
    try:
        catalog_get(config.dist)
    except SteinFisherError as exc:
        problems["dist"] = str(exc)
    if config.link is not None:
        try:
            samplemean.link_by_name(config.link)
        except SteinFisherError as exc:
            problems["link"] = str(exc)
    if config.experiment == "samplemean_rate" and config.link is None:
        problems["link"] = "samplemean_rate requires a link"
    if config.experiment == "convert":
        if config.fisher_value is None:
            problems["fisher_value"] = "convert requires fisher_value"
        elif config.fisher_value < 0:
            problems["fisher_value"] = "must be nonnegative"
    else:
        grid = config.n_grid
        if not grid:
            problems["n_grid"] = "at least one n is required"
        elif any(b <= a for a, b in zip(grid, grid[1:])):
            problems["n_grid"] = "must be strictly increasing"
        elif any(n < 1 for n in grid):
            problems["n_grid"] = "entries must be positive"
        elif (config.experiment == "quadform_rate"
              and config.matrix_path is None and grid[0] < 2):
            problems["n_grid"] = "the banded quadform family needs n >= 2"
    if config.reps < 1:
        problems["reps"] = "must be positive"
    if config.experiment in RATE_EXPERIMENTS and config.reps < 10 ** 3:
        problems["reps"] = "rate experiments need reps >= 1000"
    if not (0 <= config.seed < 2 ** 64):
        problems["seed"] = "seed must fit in 64 unsigned bits"
    if config.format not in ("csv", "json"):
        problems["format"] = "must be csv or json"
    out_dir = os.path.dirname(config.out_path) or "."
    if os.path.isdir(config.out_path):
        problems["out_path"] = f"is a directory: {config.out_path}"
    elif not os.path.isdir(out_dir):
        problems["out_path"] = f"no such directory: {out_dir}"
    elif not os.access(out_dir, os.W_OK):
        problems["out_path"] = f"directory is not writable: {out_dir}"
    if config.matrix_path is not None and not os.path.exists(config.matrix_path):
        problems["matrix_path"] = f"no such file: {config.matrix_path}"
    if config.alpha <= 0:
        problems["alpha"] = "must be positive"
    return problems


def parse_matrix(path: str) -> quadform.CoefficientMatrix:
    """Parse and strictly validate the plain-text matrix format.

    First line is the dimension ``n``; each of the next ``n`` lines holds
    ``n`` whitespace-separated reals.  Asymmetry, a nonzero diagonal, or a
    dimension mismatch raise :class:`ParseError` with the offending line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty matrix file", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"first line must be the dimension, got {lines[0]!r}",
                         line=1)
    if n < 1:
        raise ParseError("dimension must be positive", line=1)
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}",
                         line=len(lines))
    rows = []
    for i in range(n):
        lineno = i + 2
        toks = lines[i + 1].split()
        if len(toks) != n:
            raise ParseError(f"row has {len(toks)} entries, expected {n}",
                             line=lineno)
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ParseError(f"non-numeric entry in row: {lines[i + 1]!r}",
                             line=lineno)
    a = np.array(rows)
    for i in range(n):
        if a[i, i] != 0.0:
            raise ParseError(f"diagonal entry a[{i}][{i}] = {a[i, i]} must be 0",
                             line=i + 2)
        for j in range(i + 1, n):
            if a[i, j] != a[j, i]:
                raise ParseError(
                    f"asymmetric entries a[{i}][{j}] = {a[i, j]} vs "
                    f"a[{j}][{i}] = {a[j, i]}", line=j + 2)
    return quadform.CoefficientMatrix(a)


def _run_shards(draw, model, seed: int, n: int, reps: int) -> estimate.ScoreSample:
    """Draw shards on independent substreams and merge them in order."""
    def one(job):
        shard, size = job
        return draw(model, substream(seed, "main", n, shard), size)

    jobs = list(enumerate(chunk_sizes(reps)))
    threads = int(os.environ.get("STEINFISHER_THREADS", "1") or "1")
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(one, jobs))
    else:
        blocks = [one(job) for job in jobs]
    return estimate.ScoreSample.concat(blocks)


def _upper_row(config, n, sample) -> ResultRow:
    est, se, gf = estimate.fisher_distance_upper(sample)
    return ResultRow(experiment=config.experiment, n=n, reps=config.reps,
                     seed=config.seed, estimator="fisher_upper",
                     estimate=est, standard_error=se, guarded_fraction=gf)


def _rate_rows(config, upper_rows):
    fit = estimate.fit_rate([r.n for r in upper_rows],
                            [r.estimate for r in upper_rows])
    shared = dict(experiment=config.experiment, n=0, reps=config.reps,
                  seed=config.seed, standard_error=0.0, guarded_fraction=0.0)
    return [
        ResultRow(estimator="rate_fit_slope", estimate=fit.slope, **shared),
        ResultRow(estimator="rate_fit_intercept", estimate=fit.intercept, **shared),
        ResultRow(estimator="rate_fit_r2", estimate=fit.r_squared, **shared),
    ]


# Rate-experiment points: ``point(config, dist, n)`` returns the draw
# function, the model it draws from, and any rows reported next to the
# ``fisher_upper`` row at ``n``.  Draw functions are looked up on their
# modules at call time.

def _sum_point(config, dist, n):
    model = samplemean.sample_mean_model(samplemean.identity_link(),
                                         [dist] * n, n)
    return samplemean.draw_score_pairs_sm, model, []


def _samplemean_point(config, dist, n):
    model = samplemean.sample_mean_model(
        samplemean.link_by_name(config.link), [dist] * n, n,
        stream=substream(config.seed, "prepass", n),
        prepass_reps=max(10 ** 4, config.reps),
    )
    return samplemean.draw_score_pairs_sm, model, []


def _quadform_point(config, dist, n):
    if config.matrix_path is None:
        matrix = quadform.banded_coefficients(n)
    else:
        matrix = parse_matrix(config.matrix_path)
        if tuple(config.n_grid) != (matrix.n,):
            raise ConfigError({"n_grid": (
                f"with matrix_path the grid must equal ({matrix.n},)")})
    model = quadform.QuadFormModel(matrix, [dist] * n)
    factor = ResultRow(
        experiment=config.experiment, n=n, reps=config.reps, seed=config.seed,
        estimator="structural_factor",
        estimate=quadform.matrix_functionals(matrix).structural_factor,
        standard_error=0.0, guarded_fraction=0.0)
    return quadform.draw_score_pairs, model, [factor]


def _run_rate(config: ExperimentConfig, point):
    """``fisher_upper`` per grid point, then a rate fit when four or more
    of them are positive."""
    dist = catalog_get(config.dist)
    rows = []
    upper_rows = []
    for n in config.n_grid:
        draw, model, extra_rows = point(config, dist, n)
        row = _upper_row(config, n, _run_shards(draw, model, config.seed, n,
                                                config.reps))
        upper_rows.append(row)
        rows += [row] + extra_rows
    # log-log fit: a zero estimate (an exactly Gaussian statistic) has no rate
    positive = [row for row in upper_rows if row.estimate > 0.0]
    if len(positive) >= 4:
        rows += _rate_rows(config, positive)
    return rows


def _run_kernel_check(config: ExperimentConfig):
    from .quadrature import integrate
    from .stein_core import tau_by_quadrature

    dist = catalog_get(config.dist)
    lo = _quantile(dist, 0.0005)
    hi = _quantile(dist, 0.9995)
    grid = np.linspace(lo, hi, 50)
    diffs = [abs(float(dist.tau(x)) - tau_by_quadrature(dist, float(x)))
             for x in grid]
    wlo, whi = dist.quad_window
    etau = integrate(lambda y: dist.tau(y) * dist.density(y), wlo, whi, tol=1e-12)
    shared = dict(experiment=config.experiment, n=grid.size, reps=1,
                  seed=config.seed, standard_error=0.0, guarded_fraction=0.0)
    return [
        ResultRow(estimator="tau_max_abs_diff", estimate=float(max(diffs)), **shared),
        ResultRow(estimator="e_tau_minus_1", estimate=float(etau - 1.0), **shared),
    ]


def _quantile(dist, q: float) -> float:
    lo, hi = dist.quad_window
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(dist.cdf(mid)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _run_negmoment(config: ExperimentConfig):
    dist = catalog_get(config.dist)
    law = moments.NonnegativeLaw.square_of(dist)
    rows = []
    for n in config.n_grid:
        shared = dict(experiment=config.experiment, n=n, reps=1,
                      seed=config.seed, standard_error=0.0, guarded_fraction=0.0)
        query = moments.NegMomentQuery(alpha=config.alpha,
                                       mgf_factors=(law.mgf,) * n)
        value = moments.negative_moment(query)
        rows.append(ResultRow(estimator="negative_moment", estimate=value,
                              **shared))
        rows.append(ResultRow(estimator="normalized_trend",
                              estimate=value * float(n) ** config.alpha,
                              **shared))
    return rows


def _run_convert(config: ExperimentConfig):
    report = distances.convert(config.fisher_value)
    shared = dict(experiment=config.experiment, n=0, reps=1, seed=config.seed,
                  standard_error=0.0, guarded_fraction=0.0)
    return [
        ResultRow(estimator=name, estimate=getattr(report, name), **shared)
        for name in ("fisher", "uniform_density", "kl", "wasserstein2",
                     "total_variation")
    ]


_RUNNERS = {
    "sum_rate": lambda config: _run_rate(config, _sum_point),
    "samplemean_rate": lambda config: _run_rate(config, _samplemean_point),
    "quadform_rate": lambda config: _run_rate(config, _quadform_point),
    "kernel_check": _run_kernel_check,
    "negmoment": _run_negmoment,
    "convert": _run_convert,
}


def run(config: ExperimentConfig, *, emit_timing=False) -> list:
    """Validate, execute, and write one experiment; returns its rows.

    Emitted files are deterministic for a fixed config: the timing column
    stays 0 unless ``emit_timing`` asks for measured values.
    """
    problems = validate(config)
    if problems:
        raise ConfigError(problems)
    t0 = time.monotonic()
    rows = _RUNNERS[config.experiment](config)
    elapsed_ms = int(round((time.monotonic() - t0) * 1000.0))
    if emit_timing:
        per_row = max(1, elapsed_ms // max(1, len(rows)))
        rows = [replace(row, wall_time_ms=per_row) for row in rows]
    text = (rows_to_csv(rows) if config.format == "csv"
            else rows_to_json(rows))
    with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"{config.experiment}: wrote {len(rows)} rows to {config.out_path} "
          f"in {elapsed_ms} ms", file=sys.stderr)
    return rows


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain shortest round-trip repr
    return str(int(value)) if isinstance(value, (int, np.integer)) else str(value)


def rows_to_csv(rows) -> str:
    lines = [f"# {SCHEMA_VERSION}", ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, col))
                              for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ParseError(f"unexpected CSV header {header!r}", line=2)
    rows = []
    for ln in lines[1:]:
        toks = ln.split(",")
        rows.append(ResultRow(
            experiment=toks[0], n=int(toks[1]), reps=int(toks[2]),
            seed=int(toks[3]), estimator=toks[4], estimate=float(toks[5]),
            standard_error=float(toks[6]), guarded_fraction=float(toks[7]),
            wall_time_ms=int(toks[8])))
    return rows


def rows_to_json(rows) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "rows": [{col: getattr(row, col) for col in CSV_COLUMNS}
                 for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def rows_from_json(text: str) -> list:
    payload = json.loads(text)
    return [ResultRow(**row) for row in payload["rows"]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stein-fisher",
        description="Fisher-information-distance experiments at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("--config", help="path to a key=value config file")
    runp.add_argument("--experiment", choices=EXPERIMENTS)
    runp.add_argument("--dist")
    runp.add_argument("--link")
    runp.add_argument("--matrix-path", dest="matrix_path")
    runp.add_argument("--n-grid", dest="n_grid",
                      help="comma-separated sample sizes, e.g. 8,16,32")
    runp.add_argument("--reps", type=int)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--out-path", dest="out_path")
    runp.add_argument("--format", choices=("csv", "json"))
    runp.add_argument("--alpha", type=float)
    runp.add_argument("--fisher-value", dest="fisher_value", type=float)
    runp.add_argument("--timing", action="store_true",
                      help="emit measured wall times (breaks byte determinism)")
    return parser


def _error_object(kind: str, detail) -> str:
    return json.dumps({"error": kind, "detail": detail})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    values: dict = {}
    try:
        if args.config:
            values.update(parse_config_file(args.config))
        for f in fields(ExperimentConfig):
            cli_value = getattr(args, f.name, None)
            if cli_value is not None:
                values[f.name] = cli_value
        config = ExperimentConfig(**_coerce(values))
    except (ParseError, ValueError, TypeError) as exc:
        print(_error_object("config", str(exc)), file=sys.stderr)
        return 2
    try:
        run(config, emit_timing=args.timing)
    except ConfigError as exc:
        print(_error_object("config", exc.fields), file=sys.stderr)
        return 2
    except NotIntegrable as exc:
        print(_error_object("config", {"n_grid": str(exc)}), file=sys.stderr)
        return 2
    except DegenerateModel as exc:
        print(_error_object("config", {"matrix_path": str(exc)}),
              file=sys.stderr)
        return 2
    except GuardDominated as exc:
        print(_error_object("guard_dominated", str(exc)), file=sys.stderr)
        return 3
    except QuadratureFailure as exc:
        print(_error_object("quadrature", {"message": str(exc),
                                           "achieved": exc.achieved}),
              file=sys.stderr)
        return 3
    except ParseError as exc:
        print(_error_object("parse", {"message": str(exc), "line": exc.line}),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
