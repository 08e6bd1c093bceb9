"""One benchmark sample in a fresh process.

Run by ``bench/run.py``; not meant to be called by hand.  The process imports
steinfisher and looks up the workload's catalog laws (set-up), runs the
workload once (the timed run), then checks the output and writes a JSON
record with its clock readings, peak RSS, the parsed rows, the problems
found and, when traced, the spans.

``--mode threads`` instead runs the thread-count contract check: the same
quadform config with 1 and then 2 shard workers, compared byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (bench/ is sys.path[0] when run as a script)


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
    }


def _thread_check(out_dir: Path) -> dict:
    from steinfisher import cli

    cfg = workloads.THREAD_CHECK
    texts = {}
    for threads in ("1", "2"):
        out = out_dir / f"threads{threads}.csv"
        os.environ["STEINFISHER_THREADS"] = threads
        rc = cli.main(workloads.cli_argv(cfg["experiment"], cfg, 7, str(out)))
        texts[threads] = out.read_bytes() if rc == 0 else None
    same = texts["1"] is not None and texts["1"] == texts["2"]
    return {"environment": _environment(),
            "problems": [] if same else
            ["quadform_rate output differs between 1 and 2 shard workers"]}


def _sample(args) -> dict:
    import steinfisher  # noqa: F401  (set-up: the whole package)
    from steinfisher import cli, distributions

    workload = workloads.WORKLOADS[args.workload]
    for law in workload.laws:
        distributions.catalog_get(law)
    params = workload.params(args.size)
    if workload.is_cli:
        argv = workloads.cli_argv(workload.experiment, params, args.seed,
                                  args.out)
        root, job = "cli.main", lambda: cli.main(argv)
    else:
        root = "bench.pipeline"
        job = lambda: workloads.run_estimators(params, args.seed, args.out) or 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        t_start = time.perf_counter()
        rc = tracer.run_root(root, job)
    else:
        t_start = time.perf_counter()
        rc = job()
    t_end = time.perf_counter()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {"t_start": t_start, "t_end": t_end, "rc": rc,
              "maxrss_kb": maxrss_kb, "rows": [], "problems": []}
    if rc == 0:
        with open(args.out, encoding="utf-8") as fh:
            rows = cli.rows_from_csv(fh.read())
        record["rows"] = [[r.n, r.estimator, r.estimate, r.standard_error]
                          for r in rows]
        reference = None
        if args.references:
            with open(args.references, encoding="utf-8") as fh:
                reference = json.load(fh)["rows"][workload.name]
        record["problems"] = workloads.check_rows(workload, rows, reference)
    if tracer is not None:
        record["trace"] = tracer.dump()
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("sample", "threads"),
                        default="sample")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="the program's output file")
    parser.add_argument("--references",
                        help="reference rows to check against, if any")
    parser.add_argument("--record", required=True,
                        help="where to write this process's JSON record")
    args = parser.parse_args()
    if args.mode == "threads":
        record = _thread_check(Path(args.record).parent)
    else:
        record = _sample(args)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
