"""The benchmark's tracer patches lookup points in the package by name.

A refactor that removes or rebinds one of them breaks the traced benchmark
runs; this test runs the tracer's installation and a small traced CLI run in
a fresh interpreter, so such a change fails here first.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
from tracing import Tracer
from steinfisher import cli

tracer = Tracer()
tracer.install()
for experiment in ("sum_rate", "samplemean_rate", "quadform_rate"):
    argv = ["run", "--experiment", experiment, "--dist", "uniform",
            "--link", "tanh", "--n-grid", "4,8", "--reps", "1000",
            "--out-path", sys.argv[1]]
    assert tracer.run_root("cli.main", lambda: cli.main(argv)) == 0
names = {span[1] for span in tracer.spans}
missing = {"samplemean.draw", "samplemean.prepass", "quadform.draw",
           "quadform.evaluate", "distributions.columns",
           "streams.substream"} - names
assert not missing, missing
"""


def test_tracer_installs_and_sees_draws(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "o.csv")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
