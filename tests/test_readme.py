"""The README's library example runs as written, its config example parses, and
its refusal and admission examples give the figures it names."""

import pathlib
import re

import pytest

from imjrc import cli, enumeration
from imjrc.cli import RunConfig, load_config
from imjrc.enumeration import build_table
from imjrc.params import derive
from imjrc.sim import buffer_floats

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


@pytest.mark.parametrize(
    "t_p,t_r,refused",
    [("1e-2", "2e-2", "Monte Carlo buffers need"), ("1", "2", "codeword table needs")],
)
def test_refusal_examples_give_the_readme_figures(t_p, t_r, refused, tmp_path, capsys):
    text = " ".join(README.read_text().split())
    (gib,) = re.findall(rf"`t_p = {t_p}`, `t_r = {t_r}`[^)]*\) needs (\d+\.\d) GiB", text)
    path, out = tmp_path / "pulse.cfg", tmp_path / "run"
    path.write_text(f"t_p = {t_p}\nt_r = {t_r}\n")
    assert cli.main(["ber", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refused} about {gib} GiB (") and err.count("\n") == 1
    assert not out.exists()


def test_the_one_ms_pulse_fits_the_monte_carlo_budget(tmp_path):
    # the working set holds one block of full-width draws, not a chunk of them
    text = " ".join(README.read_text().split())
    admitted = r"A 1 ms pulse \(L_T = 70,001\) needs (\d+\.\d) GiB of Monte Carlo buffers and runs"
    (gib,) = re.findall(admitted, text)
    path = tmp_path / "pulse.cfg"
    path.write_text("t_p = 1e-3\nt_r = 2e-3\n")
    config = load_config(str(path))
    table = build_table(config.params, derive(config.params))
    need = 8 * buffer_floats(table, config.effective_pulses())
    assert f"{need / 2**30:.1f}" == gib and need <= enumeration.DESIGN_BUDGET_BYTES
