"""The README's library example runs, and the top level exports what it says."""

import re
from pathlib import Path

import sumrange

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_top_level_names():
    assert sorted(sumrange.__all__) == [
        "apply_transform", "build_kadets", "build_multipoint", "build_three_kadets",
        "run_trace", "schedule_point", "verify_family"]
    for name in sumrange.__all__:
        assert callable(getattr(sumrange, name))
