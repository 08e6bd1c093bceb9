"""Tests of the benchmark harness itself, at reduced sizes.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
Each smoke test runs one workload untraced and traced in child processes and
requires that the output checks pass, both runs write the same bytes, every
metric named in ``BENCHMARK.json`` is emitted, spans nest inside their
parents, self times are non-negative and the layer self times add up to the
traced ``run_s``.
"""

import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        yield Path(tmp)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload(name, work):
    assert run.smoke_workload(name, work) == []


def test_thread_count_contract(work):
    versions, problems = run.thread_check(work)
    assert problems == []
    assert versions["numpy"] and versions["scipy"]


# Root on the main thread (0..10); two shard workers (1..6, 2..8), the first
# with one child (3..4).
SPANS = [
    (0, "cli.main", 1, None, 0.0, 10.0, -1, 0),
    (1, "quadform.draw", 2, 8, 1.0, 6.0, 0, 0),
    (2, "quadform.draw", 3, 8, 2.0, 8.0, 0, 0),
    (3, "distributions.sample", 2, 8, 3.0, 4.0, 1, 5),
]


def test_parallel_time_is_shared_between_innermost_spans():
    own = tracing.self_times(SPANS)
    assert own == pytest.approx({0: 3.0, 1: 2.5, 2: 4.0, 3: 0.5})
    metrics = tracing.layer_metrics({"spans": SPANS, "counters": {}})
    assert metrics["trace.run_s"] == 10.0
    assert metrics["cli.shard_parallelism"] == pytest.approx(11.0 / 7.0)
    assert metrics["distributions.sample_s"] == 1.0
    assert metrics["quadform.self_s"] == pytest.approx(6.5)


def test_span_outside_its_parent_is_rejected():
    spans = SPANS[:3] + [(3, "distributions.sample", 2, 8, 3.0, 7.0, 1, 5)]
    with pytest.raises(tracing.TraceError):
        tracing.layer_metrics({"spans": spans, "counters": {}})
