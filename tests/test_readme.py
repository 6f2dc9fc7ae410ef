"""The README's library quickstart runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quickstart'"
    return match.group(1)


def test_quickstart_runs(capsys):
    exec(compile(_quickstart(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert "0.6931471805599453" in printed  # closed_cov("Z", 1, 1, 0.0) = log 2
