"""The run outputs of the benchmark's workloads, byte for byte, against committed digests.

A change counts as a speedup only if ``ber.csv``, ``gains.csv``, the
``schemes`` and ``shared_codebooks`` blocks of ``meta.json`` and every file
``imjrc design`` writes stay the same for a seed.  The three workload
configs and their config files are the ones ``benchmarks/workloads.py``
writes for the benchmark, imported from its path.  The digests
belong to the numpy and BLAS build they were recorded under, so a mismatch
names that build and the one found; it fails on any build.

A change that moves numbers on purpose records them again, and lists the
old and new digests in CHANGES.md:

    PYTHONPATH=src python3 tests/test_output_digests.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from imjrc.cli import main, run_environment

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = pathlib.Path(__file__).with_name("output_digests.json")
SEEDS = (1729, 2718)


_SPEC = importlib.util.spec_from_file_location("workloads", ROOT / "benchmarks" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # a dataclass reads its annotations' module from there
_SPEC.loader.exec_module(workloads)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(config: dict, work: pathlib.Path) -> dict[str, str]:
    """Digests of what ``imjrc ber`` and ``imjrc design`` write for ``config``."""
    path = work / "run.cfg"
    path.write_text(workloads.config_text(config))
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
    got = run_digests(workloads.WORKLOADS[workload].config(seed), tmp_path)
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
        for name, workload in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
                digests[f"{name}/{seed}"] = run_digests(workload.config(seed), pathlib.Path(work))
    text = json.dumps({"environment": run_environment(), "digests": digests}, indent=2)
    DIGESTS.write_text(text + "\n")
    print(f"wrote {len(digests)} entries to {DIGESTS}")
