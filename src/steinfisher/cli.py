"""Batch front end: experiment configs, seed management, CSV/JSON emission.

Config files are flat ``key = value`` text; every field can be overridden
by the flag of the same name (``n_grid`` is ``--n-grid``); both are read
as text and converted by one table.  Example::

    experiment = sum_rate
    dist = uniform
    n_grid = 8,16,32,64,128
    reps = 100000
    seed = 42
    out_path = sum_rate.csv
    format = csv

The three rate experiments share one runner: a model is built at each
``n``, and draws come in shards of ``distributions.CHUNK`` pairs, each on
its own substream.  A shard draws the largest ``n``'s coordinates once,
keyed by that ``n``, and reads every grid point off the first ``n`` of
them: a sample-mean point finishes the running sums at its ``n``, and a
quadratic-form point sums the per-coordinate terms below its ``n`` and
recomputes the few next to it.  Each shard is reduced in its worker to one
accumulator per grid point, and the accumulators merge in shard order.
``sum_rate`` is the identity-link sample-mean model (the normalized sum),
``samplemean_rate`` takes its link from the config, and ``quadform_rate``
uses the banded family or a matrix file, whose grid is its one ``n``.

Output rows share one schema (header comment ``# stein-fisher v1``):
``experiment,n,reps,seed,estimator,estimate,standard_error,
guarded_fraction,wall_time_ms``.  Rate experiments append rows with
estimators ``rate_fit_slope``, ``rate_fit_intercept`` and ``rate_fit_r2``
when four or more grid points have a positive estimate.
Emitted files are byte-identical for a fixed config and seed; wall-clock
timings therefore go to stderr and the file column stays 0 unless
``--timing`` is passed; then each grid point's rows carry that point's
milliseconds (the shared draw's go to the largest ``n``), rate-fit
rows 0, and ``kernel_check`` and ``convert`` rows the whole run's.
``STEINFISHER_THREADS`` caps shard-level worker threads (shards merge in
fixed order either way).

Exit codes: 0 success; 2 a config that cannot run, with field-level JSON on
stderr (this includes a command line argparse cannot read, reported as
``argv``, a ``STEINFISHER_THREADS`` that is not a positive integer, text that
does not read as its field's type, a config or matrix file that cannot be
read, and, found only once the run starts, a
divergent negative moment, an all-zero matrix and a link whose pre-pass
variance is zero or not finite), or a config or matrix file that does not
parse, reported with its line; 3 an estimate the program will not report:
guard-dominated draws, or a quadrature that missed its tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Optional, get_type_hints

import numpy as np

from . import distances, estimate, moments, quadform, samplemean
from .distributions import catalog_get, chunk_sizes
from .errors import (ConfigError, DegenerateModel, DegenerateVariance,
                     GuardDominated, NotIntegrable, ParseError,
                     QuadratureFailure, SteinFisherError)
from .streams import substream

SCHEMA_VERSION = "stein-fisher v1"
RATE_EXPERIMENTS = ("sum_rate", "samplemean_rate", "quadform_rate")
GRID_EXPERIMENTS = RATE_EXPERIMENTS + ("negmoment",)  # those that read n_grid


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


# Each output column, in order, and the type its text is read back as.
_COLUMN_TYPES = get_type_hints(ResultRow)
CSV_COLUMNS = tuple(_COLUMN_TYPES)


def _read_lines(path: str, field: str) -> list:
    """The lines of a UTF-8 text file; one that cannot be read is a
    :class:`ConfigError` on ``field``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError({field: f"cannot read {path!r}: {reason}"})


def parse_config_file(path: str) -> dict:
    """Read the flat key=value format; '#' starts a comment."""
    values: dict = {}
    known = {f.name for f in fields(ExperimentConfig)}
    for lineno, raw in enumerate(_read_lines(path, "config"), start=1):
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


# Readers of the fields that are not text, with what each expects.
_READERS = {
    "n_grid": (lambda text: tuple(int(tok) for tok in text.split(",")
                                  if tok.strip()), "comma-separated integers"),
    "reps": (int, "an integer"),
    "seed": (int, "an integer"),
    "alpha": (float, "a number"),
    "fisher_value": (float, "a number"),
}


def _coerce(values: dict) -> dict:
    """Field values from their text, whether from a flag or a config file;
    text that does not read as its field's type is a :class:`ConfigError`."""
    out, problems = {}, {}
    for key, text in values.items():
        reader, expected = _READERS.get(key, (str, "text"))
        try:
            out[key] = reader(text)
        except ValueError:
            problems[key] = f"expected {expected}, got {text!r}"
    if problems:
        raise ConfigError(problems)
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
        elif not (math.isfinite(config.fisher_value)
                  and config.fisher_value >= 0):
            problems["fisher_value"] = "must be finite and nonnegative"
    if config.experiment in GRID_EXPERIMENTS:
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
    if not (math.isfinite(config.alpha) and config.alpha > 0):
        problems["alpha"] = "must be finite and positive"
    return problems


def parse_matrix(path: str) -> quadform.CoefficientMatrix:
    """Parse and strictly validate the plain-text matrix format.

    First line is the dimension ``n``; each of the next ``n`` lines holds
    ``n`` whitespace-separated finite reals, and only blank lines may follow.
    A non-finite entry, asymmetry, a nonzero diagonal, a dimension mismatch
    or a non-blank line after row ``n`` raise :class:`ParseError` with the
    offending line.
    """
    lines = _read_lines(path, "matrix_path")
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
        if not all(map(math.isfinite, rows[-1])):  # before any symmetry check
            raise ParseError(f"non-finite entry in row: {lines[i + 1]!r}", line=lineno)
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
    for lineno, extra in enumerate(lines[n + 1:], start=n + 2):
        if extra.strip():
            raise ParseError(f"line after the {n} matrix rows: {extra!r}",
                             line=lineno)
    return quadform.CoefficientMatrix(a)


def _shard_threads() -> int:
    """Shard workers: ``STEINFISHER_THREADS``, or 1 when unset or empty."""
    text = os.environ.get("STEINFISHER_THREADS") or "1"
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise ConfigError({"STEINFISHER_THREADS":
                           f"expected a positive integer, got {text!r}"})
    return int(text)


def _run_shards(draw, seed: int, n: int, reps: int, threads: int) -> list:
    """Draw shards on independent substreams keyed by ``n``, each reduced to
    accumulators in its worker, and merge those in shard order, so the
    result does not depend on ``threads``.

    ``draw(stream, size)`` returns a list of
    :class:`estimate.UpperAccumulator`; the result holds one merged
    accumulator per entry of that list.
    """
    def one(job):
        shard, size = job
        return draw(substream(seed, "main", n, shard), size)

    jobs = list(enumerate(chunk_sizes(reps)))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(one, jobs))
    else:
        shards = [one(job) for job in jobs]
    return [functools.reduce(estimate.UpperAccumulator.merge, accs)
            for accs in zip(*shards)]


def _ms_since(t0: float) -> int:
    return int(round((time.monotonic() - t0) * 1000.0))


def _rows(config, n, reps, wall_time_ms, values, standard_error=0.0,
          guarded_fraction=0.0) -> list:
    """One row per ``(estimator, estimate)`` pair in ``values``; the
    defaults fit estimates that are computed, not sampled."""
    return [ResultRow(experiment=config.experiment, n=n, reps=reps,
                      seed=config.seed, estimator=name, estimate=value,
                      standard_error=standard_error,
                      guarded_fraction=guarded_fraction,
                      wall_time_ms=wall_time_ms) for name, value in values]


# Rate-experiment families.  ``point(config, dist, n)`` builds the model
# at ``n`` and returns it with any ``(estimator, estimate)`` pairs reported
# next to its ``fisher_upper`` row.  ``draw(models, stream, size)`` draws one
# shard of the largest model, reads it out at every model and returns one
# accumulator per model.  Draw functions are looked up on their modules at
# call time.

def _samplemean_point(config, dist, n):
    model = samplemean.sample_mean_model(
        samplemean.link_by_name(config.link), [dist] * n, n,
        stream=substream(config.seed, "prepass", n),
        prepass_reps=max(10 ** 4, config.reps),
    )
    return model, []


def _samplemean_draw(models, stream, size):
    # F depends on its first n coordinates only through their running sums,
    # so one draw of the largest model is read out at every n.
    return [estimate.UpperAccumulator.of(sample) for sample in
            samplemean.draw_score_pairs_sm(models[-1], stream, size,
                                           readouts=models)]


def _quadform_point(config, dist, n):
    if config.matrix_path is None:
        matrix = quadform.banded_coefficients(n)
    else:
        matrix = parse_matrix(config.matrix_path)
        if tuple(config.n_grid) != (matrix.n,):
            raise ConfigError({"n_grid": (
                f"with matrix_path the grid must equal ({matrix.n},)")})
    model = quadform.QuadFormModel(matrix, [dist] * n)
    factor = quadform.matrix_functionals(matrix).structural_factor
    return model, [("structural_factor", factor)]


def _quadform_draw(models, stream, size):
    # Each banded matrix is a multiple of the next one's leading block, so
    # one draw of the largest model is read out at every n, recomputing
    # only the rows next to each cut.
    return quadform.draw_score_pairs(models[-1], stream, size,
                                     readouts=models)


def _run_rate(config: ExperimentConfig, point, draw):
    """``fisher_upper`` per grid point, then a rate fit when four or more
    of them are positive.

    Every model is built first; then one draw, keyed by the largest n,
    serves the whole grid.  A point's time is its model's build time, plus,
    at the largest n, the draw time.
    """
    threads = _shard_threads()
    dist = catalog_get(config.dist)
    grid = config.n_grid
    models, extras, seconds = {}, {}, {}
    for n in grid:
        t0 = time.monotonic()
        models[n], extras[n] = point(config, dist, n)
        seconds[n] = time.monotonic() - t0
    t0 = time.monotonic()
    accs = _run_shards(functools.partial(draw, [models[n] for n in grid]),
                       config.seed, grid[-1], config.reps, threads)
    uppers = {n: acc.finish() for n, acc in zip(grid, accs)}
    seconds[grid[-1]] += time.monotonic() - t0
    rows = []
    for n in grid:
        ms = int(round(seconds[n] * 1000.0))
        est, se, gf = uppers[n]
        rows += _rows(config, n, config.reps, ms, [("fisher_upper", est)], se, gf)
        rows += _rows(config, n, config.reps, ms, extras[n])
    # log-log fit: a zero estimate (an exactly Gaussian statistic) has no rate
    positive = [(n, uppers[n][0]) for n in grid if uppers[n][0] > 0.0]
    if len(positive) >= 4:
        fit = estimate.fit_rate(*zip(*positive))
        rows += _rows(config, 0, config.reps, 0, [
            ("rate_fit_slope", fit.slope), ("rate_fit_intercept", fit.intercept),
            ("rate_fit_r2", fit.r_squared)])
    return rows


def _run_kernel_check(config: ExperimentConfig):
    from .quadrature import integrate
    from .stein_core import tau_by_quadrature

    t0 = time.monotonic()
    dist = catalog_get(config.dist)
    # grid ends at the 0.05% and 99.95% quantiles, read off a tabulated CDF
    xs = np.linspace(*dist.quad_window, 4097)
    lo, hi = np.interp((0.0005, 0.9995), dist.cdf(xs), xs)
    grid = np.linspace(lo, hi, 50)
    diffs = [abs(float(dist.tau(x)) - tau_by_quadrature(dist, float(x)))
             for x in grid]
    wlo, whi = dist.quad_window
    etau = integrate(lambda y: dist.tau(y) * dist.density(y), wlo, whi, tol=1e-12)
    return _rows(config, grid.size, 1, _ms_since(t0), [
        ("tau_max_abs_diff", float(max(diffs))),
        ("e_tau_minus_1", float(etau - 1.0))])


def _run_negmoment(config: ExperimentConfig):
    dist = catalog_get(config.dist)
    law = moments.NonnegativeLaw.square_of(dist)
    rows = []
    for n in config.n_grid:
        t0 = time.monotonic()
        query = moments.NegMomentQuery(alpha=config.alpha,
                                       mgf_factors=(law.mgf,) * n)
        value = moments.negative_moment(query)
        rows += _rows(config, n, 1, _ms_since(t0), [
            ("negative_moment", value),
            ("normalized_trend", value * float(n) ** config.alpha)])
    return rows


def _run_convert(config: ExperimentConfig):
    t0 = time.monotonic()
    report = distances.convert(config.fisher_value)
    return _rows(config, 0, 1, _ms_since(t0), [
        (name, getattr(report, name)) for name in
        ("fisher", "uniform_density", "kl", "wasserstein2", "total_variation")])


_RUNNERS = {
    "sum_rate": lambda config: _run_rate(replace(config, link="identity"),
                                         _samplemean_point, _samplemean_draw),
    "samplemean_rate": lambda config: _run_rate(
        config, _samplemean_point, _samplemean_draw),
    "quadform_rate": lambda config: _run_rate(
        config, _quadform_point, _quadform_draw),
    "kernel_check": _run_kernel_check,
    "negmoment": _run_negmoment,
    "convert": _run_convert,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig, *, emit_timing=False) -> list:
    """Validate, execute, and write one experiment; returns its rows.

    Emitted files are deterministic for a fixed config: the timing column
    stays 0 unless ``emit_timing`` keeps the times the runners measured.
    """
    problems = validate(config)
    if problems:
        raise ConfigError(problems)
    t0 = time.monotonic()
    rows = _RUNNERS[config.experiment](config)
    elapsed_ms = _ms_since(t0)
    if not emit_timing:
        rows = [replace(row, wall_time_ms=0) for row in rows]
    text = (rows_to_csv(rows) if config.format == "csv"
            else rows_to_json(rows))
    try:
        with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError({"out_path": f"cannot write {config.out_path!r}: "
                                       f"{exc.strerror or exc}"})
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
    return [ResultRow(*(kind(tok) for kind, tok in
                        zip(_COLUMN_TYPES.values(), ln.split(","))))
            for ln in lines[1:]]


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


class _Parser(argparse.ArgumentParser):
    """Raises a command line it cannot read as a ConfigError on ``argv``."""

    def error(self, message):
        raise ConfigError({"argv": message})


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stein-fisher",
        description="Fisher-information-distance experiments at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("--config", help="path to a key=value config file")
    # One flag per config key, read as text and converted like the file's.
    for f in fields(ExperimentConfig):
        runp.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                          help=f"overrides the config key {f.name}")
    runp.add_argument("--timing", action="store_true",
                      help="emit measured wall times (breaks byte determinism)")
    return parser


def _error_object(kind: str, detail) -> str:
    return json.dumps({"error": kind, "detail": detail})


# Errors a run may raise, in the order they are matched: class, exit code,
# error kind and the ``detail`` written to stderr.
_EXIT_CODES = (
    (ConfigError, 2, "config", lambda exc: exc.fields),
    (NotIntegrable, 2, "config", lambda exc: {"n_grid": str(exc)}),
    (DegenerateModel, 2, "config", lambda exc: {"matrix_path": str(exc)}),
    (DegenerateVariance, 2, "config", lambda exc: {"link": str(exc)}),
    (GuardDominated, 3, "guard_dominated", str),
    (QuadratureFailure, 3, "quadrature",
     lambda exc: {"message": str(exc), "achieved": exc.achieved}),
    (ParseError, 2, "parse", lambda exc: {"message": str(exc), "line": exc.line}),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        values = parse_config_file(args.config) if args.config else {}
        values.update((f.name, getattr(args, f.name))
                      for f in fields(ExperimentConfig)
                      if getattr(args, f.name) is not None)
        run(ExperimentConfig(**_coerce(values)), emit_timing=args.timing)
    except SteinFisherError as exc:
        for cls, code, kind, detail in _EXIT_CODES:
            if isinstance(exc, cls):
                print(_error_object(kind, detail(exc)), file=sys.stderr)
                return code
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
