"""steinfisher benchmark: four workloads, end-to-end time and memory, and a
traced per-layer breakdown.

Run from the repository root::

    python3 bench/run.py --workload sum_uniform --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --smoke                 # reduced sizes, checks the harness
    python3 bench/run.py --record-references   # rewrite bench/references.json

Each sample is a fresh child process (``bench/child.py``) that imports the
package from ``src/``, runs the workload once and checks its output.  Samples
are taken one after another for ``--seconds`` seconds; the metrics are their
medians.  With ``--trace 1`` untraced and traced samples alternate, the
metrics are the per-layer ones of ``BENCHMARK.json`` and ``trace.overhead_s``
is the difference of the two medians of ``run_s``.

The last line of standard output is the result object; the line before it
records the environment and the per-sample values.  Workload choices and the
layer-to-end-to-end predictions are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"
WORK = BENCH / "_work"
CHILD_TIMEOUT_S = 40
MIN_SAMPLES = 3          # untraced samples per run; traced runs take 2 of each

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Sample:
    traced: bool
    setup_s: float = 0.0
    run_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    rows: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in workloads.CONTROLLED_ENV}
    env.update(extra)
    return env


def spawn(args: list, env: dict, record: Path):
    """Run one child; returns (start clock, record or None, problems)."""
    cmd = [sys.executable, str(CHILD), "--record", str(record)] + args
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return t0, None, [f"child timed out after {CHILD_TIMEOUT_S} s"]
    problems = []
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        problems.append(f"child exited {proc.returncode}: {tail}")
    if not record.exists():
        return t0, None, problems or ["child wrote no record"]
    with open(record, encoding="utf-8") as fh:
        return t0, json.load(fh), problems


def run_sample(workload, seed: int, size: str, traced: bool, work: Path,
               index: int, references) -> Sample:
    out = work / f"out{index}.csv"
    record = work / f"record{index}.json"
    args = ["--workload", workload.name, "--size", size, "--seed", str(seed),
            "--trace", str(int(traced)), "--out", str(out)]
    if references is not None:
        args += ["--references", str(references)]
    t0, rec, problems = spawn(args, child_env(workload.env), record)
    sample = Sample(traced=traced, problems=problems)
    if rec is None:
        return sample
    sample.setup_s = rec["t_start"] - t0
    sample.run_s = rec["t_end"] - rec["t_start"]
    sample.rss_mb = rec["maxrss_kb"] / 1024.0
    sample.rows = rec["rows"]
    sample.problems += rec["problems"]
    if rec["rc"] != 0:
        sample.problems.append(f"program exited {rec['rc']}")
    elif out.exists():
        sample.digest = hashlib.sha256(out.read_bytes()).hexdigest()
    if traced:
        try:
            sample.layers = tracing.layer_metrics(rec["trace"])
        except tracing.TraceError as exc:
            sample.problems.append(f"trace: {exc}")
    return sample


def thread_check(work: Path) -> tuple:
    """The 1-vs-2-worker byte check; also reports the child's versions."""
    record = work / "threads.json"
    _, rec, problems = spawn(["--mode", "threads"],
                             child_env(workloads.THREAD_CHECK_ENV), record)
    if rec is None:
        return {}, problems
    return rec["environment"], problems + rec["problems"]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(workload, seed: int, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **versions,
        "thread_env": {k: workload.env.get(k, "unset")
                       for k in workloads.CONTROLLED_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(samples, workload, size: str) -> dict:
    coords = workload.coordinates(size)
    return {
        "setup_s": statistics.median(s.setup_s for s in samples),
        "run_s": statistics.median(s.run_s for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "coords_per_s": statistics.median(coords / s.run_s for s in samples),
    }


def per_layer(untraced, traced) -> dict:
    out = {key: statistics.median(s.layers[key] for s in traced)
           for key in traced[0].layers}
    out["trace.overhead_s"] = (statistics.median(s.run_s for s in traced)
                               - statistics.median(s.run_s for s in untraced))
    return out


def named(values: dict, declared: list) -> dict:
    """The declared metrics, with units; every declared name must be present."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def check_digests(samples) -> None:
    """Every successful run of one seed must write the same bytes."""
    digests = {s.digest for s in samples if s.digest}
    if len(digests) > 1:
        first = next(s.digest for s in samples if s.digest)
        for s in samples:
            if s.digest and s.digest != first:
                s.problems.append("output bytes differ from the first run")


def measure(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        versions, thread_problems = thread_check(work)
        if not versions:
            print(f"bench: the package could not be run: {thread_problems}",
                  file=sys.stderr)
            return 1
        samples = []
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 1
            s = run_sample(workload, args.seed, "full", traced, work,
                           len(samples), REFERENCES)
            samples.append(s)
            print(f"bench: {workload.name} sample {len(samples)} "
                  f"{'traced' if traced else 'untraced'} setup {s.setup_s:.3f} s "
                  f"run {s.run_s:.3f} s rss {s.rss_mb:.1f} MB"
                  + (f" PROBLEMS {s.problems}" if s.problems else ""),
                  file=sys.stderr)
            elapsed = time.perf_counter() - begin
            enough = len(samples) >= (4 if args.trace else MIN_SAMPLES)
            if enough and elapsed * (len(samples) + 1) / len(samples) > args.seconds:
                break
        check_digests(samples)

    good = [s for s in samples if not s.problems]
    untraced = [s for s in good if not s.traced]
    traced = [s for s in good if s.traced]
    attempted = len(samples) + 1          # the thread-count check is a run too
    failed = sum(1 for s in samples if s.problems) + bool(thread_problems)
    if not untraced or (args.trace and not traced):
        print(f"bench: no successful run of {workload.name}: "
              f"{[s.problems for s in samples]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = named(per_layer(untraced, traced), spec["per_layer"])
    else:
        metrics = named(end_to_end(untraced, workload, "full"),
                        spec["end_to_end"])
    details = {
        "workload": workload.name,
        "environment": environment(workload, args.seed, versions),
        "samples": [{"traced": s.traced, "setup_s": s.setup_s,
                     "run_s": s.run_s, "rss_mb": s.rss_mb,
                     "problems": s.problems} for s in samples],
        "thread_check_problems": thread_problems,
        "failed_share": failed / attempted,
    }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke_workload(name: str, work: Path) -> list:
    """Problems of one workload at reduced size, untraced and traced."""
    workload = workloads.WORKLOADS[name]
    spec = load_spec()
    samples = [run_sample(workload, 11, "smoke", traced, work, i, None)
               for i, traced in enumerate((False, True))]
    check_digests(samples)
    problems = [p for s in samples for p in s.problems]
    if problems:
        return problems
    untraced, traced = samples
    if not untraced.digest:
        return ["no output written"]
    try:
        named(end_to_end([untraced], workload, "smoke"), spec["end_to_end"])
        named(per_layer([untraced], [traced]), spec["per_layer"])
    except KeyError as exc:
        return [str(exc)]
    return []


def smoke() -> int:
    WORK.mkdir(exist_ok=True)
    failed = False
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        _, problems = thread_check(Path(tmp))
        print(f"smoke: thread check {'ok' if not problems else problems}")
        failed |= bool(problems)
        for name in workloads.WORKLOADS:
            problems = smoke_workload(name, Path(tmp))
            print(f"smoke: {name} {'ok' if not problems else problems}")
            failed |= bool(problems)
    return int(failed)


def record_references() -> int:
    """Run every workload at full size on each reference seed; store the
    mean and standard deviation of every row."""
    WORK.mkdir(exist_ok=True)
    stored = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in workloads.WORKLOADS.values():
            values = {}
            for i, seed in enumerate(workloads.REFERENCE_SEEDS):
                s = run_sample(workload, seed, "full", False, Path(tmp), i, None)
                if s.problems:
                    print(f"{workload.name} seed {seed}: {s.problems}",
                          file=sys.stderr)
                    return 1
                for n, estimator, value, _ in s.rows:
                    values.setdefault((n, estimator), []).append(value)
            stored[workload.name] = [
                [n, est, statistics.fmean(xs), statistics.stdev(xs)]
                for (n, est), xs in values.items()]
    lines = [f'{{"seeds": {list(workloads.REFERENCE_SEEDS)},', ' "rows": {']
    for w, (name, rows) in enumerate(stored.items()):
        lines.append(f'  "{name}": [')
        lines += [f"   {json.dumps(row)}" + ("," if i < len(rows) - 1 else "")
                  for i, row in enumerate(rows)]
        lines.append("  ]" + ("," if w < len(stored) - 1 else ""))
    lines.append(" }\n}")
    REFERENCES.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="steinfisher benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and check "
                             "the harness itself")
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite bench/references.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "steinfisher" / "__init__.py").is_file():
        print(f"bench: no steinfisher package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_references:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
