import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinfisher.cli import (EXPERIMENTS, ExperimentConfig, main,
                             parse_config_file,
                             parse_matrix, rows_from_csv, rows_from_json,
                             rows_to_csv, rows_to_json, run, validate)
from steinfisher.errors import ConfigError, ParseError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_matrix_examples(tmp_path):
    ok = parse_matrix(write(tmp_path, "ok.mat", "2\n0 1\n1 0\n"))
    assert ok.n == 2 and ok.entries[0, 1] == 1.0 and ok.sigma2 == 1.0
    with pytest.raises(ParseError) as err:
        parse_matrix(write(tmp_path, "asym.mat", "2\n0 1\n0.5 0\n"))
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_matrix(write(tmp_path, "diag.mat", "2\n1 0\n0 1\n"))
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_matrix(write(tmp_path, "short.mat", "3\n0 1 0\n1 0 0\n"))


def test_config_file_parsing(tmp_path):
    path = write(tmp_path, "c.txt", """
    # comment
    experiment = sum_rate
    dist = uniform
    n_grid = 8,16   # inline comment
    reps = 2000
    seed = 9
    """)
    values = parse_config_file(path)
    assert values["experiment"] == "sum_rate"
    assert values["n_grid"] == "8,16"
    with pytest.raises(ParseError):
        parse_config_file(write(tmp_path, "bad.txt", "nonsense line\n"))
    with pytest.raises(ParseError):
        parse_config_file(write(tmp_path, "unk.txt", "mystery = 1\n"))


def test_validate_field_messages():
    bad = ExperimentConfig(experiment="sum_rate", dist="cauchy",
                           n_grid=(16, 8), reps=10, format="xml")
    problems = validate(bad)
    assert set(problems) == {"dist", "n_grid", "reps", "format"}
    assert validate(ExperimentConfig(experiment="nope"))["experiment"]
    good = ExperimentConfig(experiment="sum_rate", dist="uniform",
                            n_grid=(8, 16), reps=2000, out_path="x.csv")
    assert validate(good) == {}


def test_run_rejects_bad_config(tmp_path):
    cfg = ExperimentConfig(experiment="samplemean_rate", dist="gaussian",
                           n_grid=(8, 16), reps=2000,
                           out_path=str(tmp_path / "o.csv"))
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert "link" in err.value.fields


def test_sum_rate_gaussian_fixed_point(tmp_path):
    cfg = ExperimentConfig(experiment="sum_rate", dist="gaussian",
                           n_grid=(4, 8, 16, 32), reps=10 ** 4, seed=3,
                           out_path=str(tmp_path / "g.csv"))
    rows = run(cfg)
    uppers = [r for r in rows if r.estimator == "fisher_upper"]
    assert len(uppers) == 4
    assert all(r.estimate <= 0.01 for r in uppers)
    # the distance is exactly 0, so there is no rate to fit
    assert not any(r.estimator.startswith("rate_fit") for r in rows)


def test_negmoment_rows(tmp_path):
    cfg = ExperimentConfig(experiment="negmoment", dist="gaussian",
                           n_grid=(4,), reps=1, alpha=1.0, seed=1,
                           out_path=str(tmp_path / "n.csv"))
    rows = run(cfg)
    value = [r for r in rows if r.estimator == "negative_moment"][0]
    assert value.estimate == pytest.approx(0.5, abs=1e-9)


def test_convert_rows(tmp_path):
    cfg = ExperimentConfig(experiment="convert", fisher_value=0.02,
                           out_path=str(tmp_path / "c.json"), format="json")
    rows = run(cfg)
    by_name = {r.estimator: r.estimate for r in rows}
    assert by_name["kl"] == pytest.approx(0.01)
    assert by_name["total_variation"] == pytest.approx(math.sqrt(0.02))
    payload = json.loads(open(cfg.out_path).read())
    assert payload["schema"] == "stein-fisher v1"


def test_kernel_check_rows(tmp_path):
    cfg = ExperimentConfig(experiment="kernel_check", dist="uniform",
                           n_grid=(1,), out_path=str(tmp_path / "k.csv"))
    rows = run(cfg)
    by_name = {r.estimator: r.estimate for r in rows}
    assert abs(by_name["tau_max_abs_diff"]) <= 1e-8
    assert abs(by_name["e_tau_minus_1"]) <= 1e-8


def test_quadform_rate_banded_family(tmp_path):
    cfg = ExperimentConfig(experiment="quadform_rate", dist="gaussian",
                           n_grid=(8, 16, 32, 64), reps=4000, seed=2,
                           out_path=str(tmp_path / "qb.csv"))
    rows = run(cfg)
    names = [r.estimator for r in rows]
    assert names.count("fisher_upper") == 4
    assert names.count("structural_factor") == 4
    assert "rate_fit_slope" in names
    factors = [r.estimate for r in rows if r.estimator == "structural_factor"]
    assert factors == sorted(factors, reverse=True)  # banded factor shrinks


def test_quadform_rate_with_matrix_file(tmp_path):
    mpath = write(tmp_path, "m.mat", "2\n0 1\n1 0\n")
    cfg = ExperimentConfig(experiment="quadform_rate", dist="gaussian",
                           matrix_path=mpath, n_grid=(2,), reps=2000,
                           out_path=str(tmp_path / "q.csv"))
    rows = run(cfg)
    names = {r.estimator for r in rows}
    assert names == {"fisher_upper", "structural_factor"}
    sf = [r for r in rows if r.estimator == "structural_factor"][0]
    assert sf.estimate == pytest.approx(4.0)
    bad = ExperimentConfig(experiment="quadform_rate", dist="gaussian",
                           matrix_path=mpath, n_grid=(2, 4), reps=2000,
                           out_path=str(tmp_path / "q2.csv"))
    with pytest.raises(ConfigError):
        run(bad)


def test_csv_json_round_trip(tmp_path):
    cfg = ExperimentConfig(experiment="sum_rate", dist="uniform",
                           n_grid=(8, 16, 32, 64), reps=2000, seed=11,
                           out_path=str(tmp_path / "r.csv"))
    rows = run(cfg)
    assert rows_from_csv(rows_to_csv(rows)) == rows
    assert rows_from_json(rows_to_json(rows)) == rows


def test_byte_identical_output(tmp_path):
    base = dict(experiment="sum_rate", dist="uniform", n_grid=(8, 16, 32, 64),
                reps=3000, seed=21)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(ExperimentConfig(out_path=p1, **base))
    run(ExperimentConfig(out_path=p2, **base))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_shard_merge_invariant_to_thread_count(tmp_path):
    base = dict(experiment="sum_rate", dist="uniform", n_grid=(8, 16, 32, 64),
                reps=40_000, seed=5)
    p1, p2 = str(tmp_path / "t1.csv"), str(tmp_path / "t4.csv")
    old = os.environ.get("STEINFISHER_THREADS")
    try:
        os.environ["STEINFISHER_THREADS"] = "1"
        run(ExperimentConfig(out_path=p1, **base))
        os.environ["STEINFISHER_THREADS"] = "4"
        run(ExperimentConfig(out_path=p2, **base))
    finally:
        if old is None:
            os.environ.pop("STEINFISHER_THREADS", None)
        else:
            os.environ["STEINFISHER_THREADS"] = old
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_main_exit_codes(tmp_path):
    cfg_path = write(tmp_path, "cfg.txt", "\n".join([
        "experiment = sum_rate",
        "dist = uniform",
        "n_grid = 8,16",
        "reps = 2000",
        f"out_path = {tmp_path / 'out.csv'}",
    ]) + "\n")
    assert main(["run", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path, "--reps", "10"]) == 2
    assert main(["run", "--config", cfg_path, "--dist", "cauchy"]) == 2


def test_cli_flag_overrides(tmp_path):
    out = str(tmp_path / "o.json")
    code = main(["run", "--experiment", "convert", "--fisher-value", "0.02",
                 "--format", "json", "--out-path", out])
    assert code == 0
    rows = rows_from_json(open(out).read())
    assert any(r.estimator == "kl" and abs(r.estimate - 0.01) < 1e-12
               for r in rows)


@pytest.mark.parametrize("argv,field", [
    (["--experiment", "quadform_rate", "--n-grid", "1"], "n_grid"),
    (["--experiment", "negmoment", "--dist", "gaussian", "--n-grid", "2"],
     "n_grid"),
    (["--experiment", "sum_rate", "--n-grid", "8",
      "--out-path", "/nonexistent/dir/x.csv"], "out_path"),
    (["--experiment", "quadform_rate", "--n-grid", "2",
      "--matrix-path", "{zero_matrix}"], "matrix_path"),
])
def test_runtime_errors_exit_2_with_field(tmp_path, capsys, argv, field):
    zero_matrix = write(tmp_path, "zero.mat", "2\n0 0\n0 0\n")
    argv = [a.format(zero_matrix=zero_matrix) for a in argv]
    base = ["run", "--dist", "uniform", "--reps", "1000",
            "--out-path", str(tmp_path / "o.csv")]
    assert main(base + argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "config" and field in payload["detail"]


# A zero pre-pass variance, an infinite coefficient and an infinite sigma:
# none of them has a finite estimate to report.
@pytest.mark.parametrize("link", ["affine_sin(1e-300,1e-300)",
                                  "affine_sin(1e999,1)",
                                  "affine_sin(1e200,1e200)"])
def test_extreme_affine_sin_links_exit_2_with_link(tmp_path, capsys, link):
    out = tmp_path / "o.csv"
    argv = ["run", "--experiment", "samplemean_rate", "--dist", "uniform",
            "--n-grid", "8", "--reps", "1000", "--link", link,
            "--out-path", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "config" and "link" in payload["detail"]
    assert not out.exists()


CATALOG_LAWS = ("gaussian", "uniform", "exponential_centered", "student_t(20)")


# A negative moment of a sum of n squares is finite iff n > 2 alpha for every
# catalog law, since each has a positive density at 0.  The boundary
# n = 2 alpha must be refused like the divergent side, not reported.
@pytest.mark.parametrize("dist", CATALOG_LAWS)
@pytest.mark.parametrize("n,alpha,code", [
    (2, 1.0, 2), (3, 1.5, 2), (8, 4.0, 2), (3, 4.0, 2), (3, 1.0, 0),
    (5, 2.0, 0),
])
def test_negmoment_integrability_boundary(tmp_path, capsys, dist, n, alpha,
                                          code):
    out = tmp_path / "o.csv"
    argv = ["run", "--experiment", "negmoment", "--dist", dist,
            "--n-grid", str(n), f"--alpha={alpha!r}", "--out-path", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "config" and "n_grid" in payload["detail"]
        assert not out.exists()
    else:
        values = [r.estimate for r in rows_from_csv(out.read_text())
                  if r.estimator == "negative_moment"]
        assert len(values) == 1 and 0.0 < values[0] < math.inf


@pytest.mark.parametrize("dist,n,alpha", [
    ("student_t(20)", 7, 8.88745422082022e-71), ("uniform", 2, 1e-9),
])
def test_negmoment_small_alpha(tmp_path, dist, n, alpha):
    # once 6.0e-70 with exit 0, and a 5 s stall before exit 3
    out = tmp_path / "o.csv"
    argv = ["run", "--experiment", "negmoment", "--dist", dist,
            "--n-grid", str(n), f"--alpha={alpha!r}", "--out-path", str(out)]
    t0 = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t0 < 2.0
    values = [r.estimate for r in rows_from_csv(out.read_text())
              if r.estimator == "negative_moment"]
    assert values == [pytest.approx(1.0, abs=1e-8)]


@pytest.mark.parametrize("argv", [
    ["--experiment", "quadform_rate", "--dist", "gaussian",
     "--n-grid", "4,8,16,32", "--reps", "20000"],
    ["--experiment", "negmoment", "--dist", "uniform", "--n-grid", "8,16,32"],
    ["--experiment", "kernel_check", "--dist", "uniform", "--n-grid", "1"],
])
def test_timing_is_measured_per_grid_point(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert main(["run", *argv, "--timing", "--out-path", str(out)]) == 0
    total_ms = int(capsys.readouterr().err.split(" in ")[-1].split()[0])
    rows = rows_from_csv(out.read_text())
    per_point = {}
    for r in rows:
        if r.estimator.startswith("rate_fit_"):
            assert r.wall_time_ms == 0
        else:
            per_point.setdefault(r.n, set()).add(r.wall_time_ms)
    assert all(len(times) == 1 for times in per_point.values())
    assert any(r.estimator.startswith("rate_fit_") for r in rows) == (
        "quadform_rate" in argv)
    times = [t for (t,) in per_point.values()]
    assert sum(times) <= total_ms + len(times)
    if "quadform_rate" in argv:
        assert min(times) > 0


def test_sum_rate_is_identity_link_samplemean(tmp_path):
    base = dict(dist="uniform", n_grid=(8, 16), reps=20_000, seed=17)
    by_experiment = {}
    for experiment, link in (("sum_rate", None),
                             ("samplemean_rate", "identity")):
        rows = run(ExperimentConfig(experiment=experiment, link=link,
                                    out_path=str(tmp_path / f"{experiment}.csv"),
                                    **base))
        by_experiment[experiment] = [
            (r.n, r.estimate, r.standard_error, r.guarded_fraction)
            for r in rows if r.estimator == "fisher_upper"]
    assert by_experiment["sum_rate"] == by_experiment["samplemean_rate"]


# fisher_upper per rate experiment at n = 8, 16 over uniform inputs with
# reps 20000 (two shards) and seed 31.  Any change to the stream order of
# the draws shows up here.
PINNED_UPPER = {
    "sum_rate": (0.03728334244836239, 0.016229917682039262),
    "samplemean_rate": (0.15671800934876712, 0.04380223437948173),
    "quadform_rate": (0.4322414576062821, 0.1431705887277595),
}


@pytest.mark.parametrize("experiment", sorted(PINNED_UPPER))
def test_rate_estimates_pinned(tmp_path, experiment):
    cfg = ExperimentConfig(
        experiment=experiment, dist="uniform", n_grid=(8, 16), reps=20_000,
        seed=31, link="sin" if experiment == "samplemean_rate" else None,
        out_path=str(tmp_path / "p.csv"))
    uppers = [r.estimate for r in run(cfg) if r.estimator == "fisher_upper"]
    np.testing.assert_allclose(uppers, PINNED_UPPER[experiment], rtol=1e-12)


# Derandomized so that tier-1 runs the same 30 configs, and takes the same
# time, on every run.  A negmoment grid point that converges costs well
# under a second of quadrature, but one whose integral stalls (alpha near
# 0, where the x^(alpha - 1) factor is barely integrable) runs to the panel
# limit for seconds before it exits 3; the 30 configs below take about 1 s.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(experiment=st.sampled_from(EXPERIMENTS),
       dist=st.sampled_from(("gaussian", "uniform", "exponential_centered",
                             "student_t(20)")),
       link=st.sampled_from(("identity", "sin", "tanh", "affine_sin(1,0.5)")),
       grid=st.lists(st.integers(1, 16), min_size=1, max_size=4,
                     unique=True).map(sorted),
       alpha=st.floats(-0.5, 4.0))
def test_main_exit_code_contract(tmp_path_factory, experiment, dist, link,
                                 grid, alpha):
    out = tmp_path_factory.mktemp("contract") / "o.csv"
    argv = ["run", "--experiment", experiment, "--dist", dist, "--link", link,
            "--n-grid", ",".join(str(n) for n in grid), "--reps", "1000",
            f"--alpha={alpha!r}", "--out-path", str(out)]
    assert main(argv) in (0, 2, 3)
