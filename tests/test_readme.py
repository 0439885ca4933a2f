"""The README's library example runs as written, and its config example parses."""

import pathlib
import re

from imjrc import cli
from imjrc.cli import RunConfig, load_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_config_example_is_the_default_and_names_every_key_once(tmp_path):
    command_line = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"Config files are plain.*?```\n(.*?)```", command_line, flags=re.DOTALL)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()]
    assert sorted(keys) == sorted(cli._CONFIG_KEYS)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert load_config(str(path)) == RunConfig()
