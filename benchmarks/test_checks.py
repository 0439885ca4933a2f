"""Each benchmark check accepts real artifacts and rejects a corrupted copy.

Run from the root of a checkout:  python3 -m pytest benchmarks -q
The fixtures run ``imjrc ber`` on a small scenario (36 codewords, B=5) from
./src, so the whole file takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from workloads import config_text

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "m": 4,
    "k": 2,
    "l_r": 4,
    "l_c": 2,
    "d": 20,
    "master_seed": 7,
    "schemes": ["baseline", "codebook_only", "crps_only", "codebook_then_crps", "crps_then_codebook"],
    "snr_db": (-4.0, 0.0, 4.0),
    "pulses": 200,
    "channel_aware_med": False,
    "early_stop": False,
}


def run_imjrc(tmp: Path, cfg: dict) -> tuple[str, dict, np.ndarray]:
    (tmp / "run.cfg").write_text(config_text(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "imjrc.cli", "ber", "--config", str(tmp / "run.cfg"), "--out", str(tmp / "out")],
        check=True, env=env, capture_output=True, cwd=ROOT,
    )
    meta = json.loads((tmp / "out" / "meta.json").read_text())
    return (tmp / "out" / "ber.csv").read_text(), meta, oracle.codewords(meta["config"])


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return run_imjrc(tmp_path_factory.mktemp("plain"), SMALL)


@pytest.fixture(scope="module")
def aware(tmp_path_factory):
    return run_imjrc(tmp_path_factory.mktemp("aware"), dict(SMALL, channel_aware_med=True))


def rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def joined(table: list[list[str]]) -> str:
    return "\n".join(",".join(r) for r in table) + "\n"


def uneven_tps(l_r: int) -> tuple[np.ndarray, dict]:
    """A real factor of power L_R with uneven row weights, and its meta.json entry."""
    alpha = np.sqrt(np.linspace(0.5, 1.5, l_r))
    return alpha, {"d_index": 3, "alpha": [[float(a), 0.0] for a in alpha]}


def set_errors(row: list[str], errors: int, b: int) -> None:
    """Change a row's bit errors and keep its ber consistent with them."""
    row[3] = str(errors)
    row[4] = repr(errors / (int(row[2]) * b))


# ---------------------------------------------------------------------------
# the real artifacts pass, so no rejection below is a check that always fails


def test_real_artifacts_pass(plain, aware):
    for text, meta, table in (plain, aware):
        assert oracle.check_ber_csv(text, meta) == []
        assert oracle.check_design(meta, table) == []
        assert oracle.check_decisions(text, meta, table) == []


def test_channel_aware_design_is_not_the_plain_one(plain, aware):
    # the aware MEDs go through the design channel; the plain reference must not fit them
    meta = copy.deepcopy(aware[1])
    meta["config"]["channel_aware_med"] = False
    assert any("meta med" in p for p in oracle.check_design(meta, aware[2]))


# ---------------------------------------------------------------------------
# ber.csv


def test_rejects_wrong_header(plain):
    text, meta, _ = plain
    assert oracle.check_ber_csv(text.replace("bit_errors", "errors", 1), meta)


def test_rejects_ber_off_by_one_ulp(plain):
    text, meta, _ = plain
    table = rows(text)
    table[3][4] = repr(float(np.nextafter(float(table[3][4]), 1.0)))
    assert any("bit_errors / (pulses * B)" in p for p in oracle.check_ber_csv(joined(table), meta))


def test_rejects_missing_row(plain):
    text, meta, _ = plain
    problems = oracle.check_ber_csv(joined(rows(text)[:-1]), meta)
    assert any("rows, expected" in p for p in problems)


def test_rejects_short_cell_without_early_stop(plain):
    text, meta, _ = plain
    table = rows(text)
    table[1][2] = str(int(table[1][2]) - 1)
    set_errors(table[1], int(table[1][3]), meta["derived"]["B"])
    assert any("requested" in p for p in oracle.check_ber_csv(joined(table), meta))


def test_rejects_rows_that_break_common_random_numbers(plain):
    text, meta, _ = plain
    a, b = meta["config"]["schemes"][0], None
    for other in meta["config"]["schemes"][1:]:
        if oracle.same_codebook(meta["schemes"][a], meta["schemes"][other]):
            b = other
    assert b is not None, "the small scenario should give two schemes one codebook"
    table = rows(text)
    row = next(r for r in table[1:] if r[0] == b)
    set_errors(row, int(row[3]) + 1, meta["derived"]["B"])
    assert any("share a codebook" in p for p in oracle.check_ber_csv(joined(table), meta))


def test_rejects_a_repeat_that_differs(plain):
    text, _, _ = plain
    assert oracle.check_repeat("round 1", text, text) == []
    assert oracle.check_repeat("round 1", text, text.replace("\n", ",\n", 1))


def early_stop_case(pulses: int, errors: int) -> tuple[str, dict]:
    meta = {
        "config": dict(
            SMALL, schemes=["baseline"], snr_start=0.0, snr_stop=0.0, snr_step=1.0, early_stop=True,
            t_p=1e-6, delta_f=1e7,
        ),
        "conventions": {"effective_pulses": 4 * oracle.CHUNK},
        "schemes": {"baseline": {"member_ids": [0], "tps": None}},
    }
    b = oracle.derived_counts(meta["config"])["B"]
    text = f"{oracle.BER_HEADER}\nbaseline,0.0,{pulses},{errors},{errors / (pulses * b)!r},0.1\n"
    return text, meta


def test_early_stop_cut_must_sit_on_a_chunk_with_enough_errors():
    assert oracle.check_ber_csv(*early_stop_case(2 * oracle.CHUNK, oracle.EARLY_STOP_BIT_ERRORS)) == []
    assert oracle.check_ber_csv(*early_stop_case(2 * oracle.CHUNK + 1, oracle.EARLY_STOP_BIT_ERRORS))
    assert oracle.check_ber_csv(*early_stop_case(2 * oracle.CHUNK, oracle.EARLY_STOP_BIT_ERRORS - 1))


# ---------------------------------------------------------------------------
# design fields of meta.json


def test_rejects_wrong_derived_count(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    meta["derived"]["C_total"] += 1
    assert any("derived C_total" in p for p in oracle.check_design(meta, table))


def test_rejects_wrong_med(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    meta["schemes"]["codebook_only"]["med"] *= 1 + 1e-6
    assert any("codebook_only: meta med" in p for p in oracle.check_design(meta, table))


def test_rejects_duplicate_member(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    ids = meta["schemes"]["baseline"]["member_ids"]
    ids[1] = ids[0]
    assert any("not distinct" in p for p in oracle.check_design(meta, table))


def test_rejects_out_of_range_member(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    meta["schemes"]["baseline"]["member_ids"][-1] = len(table)
    assert any("out of" in p for p in oracle.check_design(meta, table))


def test_rejects_wrong_member_count(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    meta["schemes"]["baseline"]["member_ids"].pop()
    assert any("expected 2^B" in p for p in oracle.check_design(meta, table))


def test_rejects_med_of_another_factor(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    _, meta["schemes"]["codebook_then_crps"]["tps"] = uneven_tps(meta["config"]["l_r"])
    assert any("codebook_then_crps: meta med" in p for p in oracle.check_design(meta, table))


def test_rejects_alpha_without_unit_mean_power(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    tps = meta["schemes"]["crps_only"]["tps"]
    tps["alpha"] = [[1.1 * re, 1.1 * im] for re, im in tps["alpha"]]
    assert any("alpha power" in p for p in oracle.check_design(meta, table))


def test_rejects_factor_worse_than_identity(plain):
    _, meta, table = plain
    meta = copy.deepcopy(meta)
    sm = meta["schemes"]["crps_only"]
    alpha, sm["tps"] = uneven_tps(meta["config"]["l_r"])
    # a consistent med, so that only the identity comparison can object
    sm["med"] = oracle.min_pair_distance(table[sm["member_ids"]], alpha)
    problems = oracle.check_design(meta, table)
    assert problems and all("below the identity" in p for p in problems)


# ---------------------------------------------------------------------------
# decisions


def test_rejects_one_bit_error_too_many(plain):
    text, meta, table = plain
    table_rows = rows(text)
    set_errors(table_rows[1], int(table_rows[1][3]) + 1, meta["derived"]["B"])
    assert any("reference replay" in p for p in oracle.check_decisions(joined(table_rows), meta, table))


def test_rejects_decisions_of_another_seed(plain):
    text, meta, table = plain
    meta = copy.deepcopy(meta)
    meta["config"]["master_seed"] += 1
    assert any("reference replay" in p for p in oracle.check_decisions(text, meta, table))
