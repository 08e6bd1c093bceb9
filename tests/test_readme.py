import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the documented imports and calls must keep working as written
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert math.isfinite(printed) and printed >= 0.0
