"""The README's library example runs as written against the top-level API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_detects_its_user(capsys):
    exec(compile(library_use_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "{2}"
