"""The run outputs of the benchmark's workloads, byte for byte, against committed digests.

A change counts as a speedup only if ``ber.csv``, ``gains.csv``, the
``schemes`` and ``shared_codebooks`` blocks of ``meta.json`` and every file
``imjrc design`` writes stay the same for a seed.  The three workload
configs are read from ``benchmarks/workloads.py`` as a syntax tree, as
``Workload.config`` builds them; nothing there is imported.  The digests
belong to the numpy and BLAS build they were recorded under, so a mismatch
names that build and the one found; it fails on any build.

A change that moves numbers on purpose records them again, and lists the
old and new digests in CHANGES.md:

    PYTHONPATH=src python3 tests/test_output_digests.py
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib

import pytest

from imjrc.cli import main, run_environment

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = pathlib.Path(__file__).with_name("output_digests.json")
SEEDS = (1729, 2718)


def _workload_configs(seed: int) -> dict[str, dict]:
    """Each workload's ``config(seed)``, from the fields and defaults the file writes."""
    tree = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    names: dict[str, object] = {}

    def value(node: ast.expr) -> object:
        return names[node.id] if isinstance(node, ast.Name) else ast.literal_eval(node)

    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                names[node.targets[0].id] = value(node.value)
            except (KeyError, ValueError):
                pass
    (workload,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Workload")
    defaults = {
        n.target.id: value(n.value) for n in workload.body if isinstance(n, ast.AnnAssign) and n.value
    }
    (config,) = (n for n in workload.body if isinstance(n, ast.FunctionDef) and n.name == "config")
    (returned,) = (n.value for n in ast.walk(config) if isinstance(n, ast.Return))
    (listing,) = (
        n.value.generators[0].iter
        for n in tree.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "WORKLOADS"
    )
    configs = {}
    for call in listing.elts:
        fields = {**defaults, **{k.arg: value(k.value) for k in call.keywords}}
        # each value is ``master_seed`` or reads one field, ``self.m`` or ``list(self.schemes)``
        configs[fields["name"]] = {
            key.value: seed
            if isinstance(node, ast.Name)
            else fields[next(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))]
            for key, node in zip(returned.keys, returned.values)
        }
    return configs


def _config_text(config: dict) -> str:
    """A flat ``key = value`` file: schemes comma-separated, the SNR grid as start:stop:step."""
    lines = []
    for key, v in config.items():
        if isinstance(v, bool):
            v = str(v).lower()
        elif isinstance(v, (list, tuple)):
            v = (":" if key == "snr_db" else ", ").join(map(str, v))
        lines.append(f"{key} = {v}\n")
    return "".join(lines)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config: dict, work: pathlib.Path) -> dict[str, str]:
    """Digests of what ``imjrc ber`` and ``imjrc design`` write for ``config``."""
    path = work / "run.cfg"
    path.write_text(_config_text(config))
    for verb in ("ber", "design"):
        assert main([verb, "--config", str(path), "--out", str(work / verb)]) == 0
    ber = work / "ber"
    digests = {f"ber/{name}": _sha256((ber / name).read_bytes()) for name in ("ber.csv", "gains.csv")}
    meta = json.loads((ber / "meta.json").read_text())
    for block in ("schemes", "shared_codebooks"):
        digests[f"ber/meta.json:{block}"] = _sha256(json.dumps(meta[block], sort_keys=True).encode())
    for file in sorted((work / "design").iterdir()):
        digests[f"design/{file.name}"] = _sha256(file.read_bytes())
    return digests


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["mc-default", "design-large", "channel-aware"])
def test_outputs_match_recorded_digests(workload, seed, tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    want = recorded["digests"][f"{workload}/{seed}"]
    got = run_digests(_workload_configs(seed)[workload], tmp_path)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, (
        f"{workload} at seed {seed}: {', '.join(differ)} differ from the digests "
        f"recorded under {recorded['environment']}; this run is under {run_environment()}"
    )


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    digests = {}
    for seed in SEEDS:
        for name, config in _workload_configs(seed).items():
            with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
                digests[f"{name}/{seed}"] = run_digests(config, pathlib.Path(work))
    text = json.dumps({"environment": run_environment(), "digests": digests}, indent=2)
    DIGESTS.write_text(text + "\n")
    print(f"wrote {len(digests)} entries to {DIGESTS}")
