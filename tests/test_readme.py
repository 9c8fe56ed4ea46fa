"""The README's examples run as written against the current API."""

import re
from pathlib import Path

from rangesim.simlab import parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_detects_its_user(capsys):
    exec(compile(library_use_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "{2}"


def test_config_example_parses_and_validates():
    section = README.read_text().split("### Config files", 1)[1]
    text = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    cfg = parse_config_text(text)
    assert (cfg.num_users, cfg.max_cfo, cfg.mode) == (3, 0.1, "waveform")
