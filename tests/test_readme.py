"""The README's "Library use" block runs unchanged against the package, so
an API change that leaves the documented calls stale fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the law's own cumulant and the closed form name the same number
    assert namespace["k2"] == pytest.approx(namespace["k2_exact"], rel=1e-6)
