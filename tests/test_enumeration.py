"""Enumeration order and table construction."""

import itertools
import tracemalloc

import numpy as np
import pytest

from imjrc import enumeration
from imjrc.enumeration import (
    build_table,
    enumerate_allocations,
    enumerate_subsets,
    export_table_csv,
)
from imjrc.params import SystemParams, derive
from oracles import codeword_matrices


def test_subsets_small_exhaustive():
    assert enumerate_subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert enumerate_subsets(2, 2) == [(0, 1)]


def test_subsets_default_count_and_order(default_derived):
    subsets = enumerate_subsets(7, 2)
    assert len(subsets) == default_derived.card_zeta == 21
    assert subsets[0] == (0, 1)
    assert subsets[-1] == (5, 6)
    assert subsets == sorted(subsets)


def test_allocations_small_exhaustive():
    assert list(enumerate_allocations(4, 2)) == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
    ]
    assert list(enumerate_allocations(2, 1)) == [(0, 0)]


def test_allocations_default_count_and_balance(default_derived):
    allocations = list(enumerate_allocations(6, 2))
    assert len(allocations) == default_derived.card_P == 20
    assert allocations[0] == (0, 0, 0, 1, 1, 1)
    assert allocations[-1] == (1, 1, 1, 0, 0, 0)
    assert allocations == sorted(allocations)
    for alloc in allocations:
        assert alloc.count(0) == alloc.count(1) == 3


def test_allocations_three_slots():
    allocations = list(enumerate_allocations(6, 3))
    assert len(allocations) == 90  # 6! / (2!)^3
    assert all(a.count(s) == 2 for a in allocations for s in range(3))


@pytest.mark.parametrize("l_r,k", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)])
def test_allocations_are_every_balanced_word_in_order(l_r, k):
    words = set(itertools.permutations(sorted(list(range(k)) * (l_r // k))))
    assert list(enumerate_allocations(l_r, k)) == sorted(words)


def test_table_shape_and_indexing(default_table, default_derived):
    assert len(default_table) == 420
    assert default_table.carriers.shape == (420, 6)
    assert default_table.waveforms.shape == (7, 71)
    assert default_table.steering.shape == (6,)
    # global index = subset index * card_P + allocation index: 47 is subset 2, allocation 7
    subsets, allocations = enumerate_subsets(7, 2), list(enumerate_allocations(6, 2))
    assert (len(subsets), len(allocations)) == (default_derived.card_zeta, default_derived.card_P) == (21, 20)
    assert default_table.text_of(0) == ["0-1", "0-0-0-1-1-1"]
    assert default_table.text_of(47) == ["0-3", "0-1-1-0-0-1"]
    assert default_table.text_of(419) == ["5-6", "1-1-1-0-0-0"]
    # each codeword's carriers are its subset's offsets, read at its
    # allocation's slots, and its text is that subset and allocation
    for g, (subset, allocation) in enumerate(itertools.product(subsets, allocations)):
        assert default_table.carriers[g].tolist() == [subset[slot] for slot in allocation]
        assert default_table.text_of(g) == ["-".join(map(str, w)) for w in (subset, allocation)]


def test_table_matches_synthesis(default_table):
    # every codeword composed from the table in the oracle's order, steering
    # weight times carrier waveform over sqrt(L_R), is its synthesis bit for bit
    scenarios = (dict(M=8, L_R=8), dict(M=6, L_R=4), dict(M=5, K=3, L_R=6), dict(M=9, L_R=4, theta=0.3))
    tables = [build_table(p, derive(p)) for p in (SystemParams(**changes) for changes in scenarios)]
    for table in (default_table, *tables):
        composed = table.steering[:, None] * table.waveforms[table.carriers] / np.sqrt(table.params.L_R)
        np.testing.assert_array_equal(composed, codeword_matrices(table))


def test_table_codewords_distinct(small_table):
    flat = codeword_matrices(small_table).reshape(len(small_table), -1)
    gram = flat @ flat.conj().T
    sq = np.real(np.diag(gram))
    dist = sq[:, None] + sq[None, :] - 2 * gram.real
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1.0


def test_table_deterministic(small_params, small_derived):
    a = build_table(small_params, small_derived)
    b = build_table(small_params, small_derived)
    np.testing.assert_array_equal(a.carriers, b.carriers)
    np.testing.assert_array_equal(a.steering, b.steering)
    np.testing.assert_array_equal(a.waveforms, b.waveforms)


def test_table_size_cap():
    # 144M codewords: the carrier words alone are 21 GiB
    params = SystemParams(M=40, K=2, L_R=20)
    derived = derive(params)
    with pytest.raises(ValueError, match=r"table needs about \d+\.\d GiB"):
        build_table(params, derived)


def test_oversized_table_refused_before_enumeration(monkeypatch):
    # C_total = 144,109,680 (780 subsets x 184,756 allocations): the budget
    # must refuse the table before any codeword, subset or allocation is
    # enumerated
    def enumerated(*args):
        raise AssertionError("enumerated an oversized table")

    monkeypatch.setattr(enumeration, "enumerate_subsets", enumerated)
    monkeypatch.setattr(enumeration, "enumerate_allocations", enumerated)
    params = SystemParams(M=40, K=2, L_R=20)
    derived = derive(params)
    assert (derived.C_total, derived.L_T) == (144_109_680, 401)
    with pytest.raises(ValueError, match=r"table needs about \d+\.\d GiB"):
        build_table(params, derived)


def test_waveforms_count_toward_the_table_budget(monkeypatch):
    # default scenario: 420 x 6 carrier words take 20,160 bytes and the
    # 7 x 71 complex waveforms 7,952 more; a budget between the words and
    # the two together refuses the table
    params = SystemParams()
    derived = derive(params)
    words, waveforms = derived.C_total * params.L_R * 8, params.M * derived.L_T * 16
    assert (words, waveforms) == (20_160, 7_952)
    monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", words + waveforms - 1)
    with pytest.raises(ValueError, match=r"table needs about \d+\.\d GiB \(.*L_T=71\)"):
        build_table(params, derived)
    monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", words + waveforms)
    assert build_table(params, derived).waveforms.shape == (7, 71)


def test_table_holds_carrier_words_only():
    # M=8, L_R=8: 1,960 codewords of 8 x 81 samples, 20 MB as matrices;
    # the table is their 125 kB of carrier words, gathered in place: a
    # temporary of their size would double the peak
    params = SystemParams(M=8, L_R=8)
    derived = derive(params)
    tracemalloc.start()
    try:
        table = build_table(params, derived)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.carriers.shape == (1960, 8)
    assert peak < 1.5 * table.carriers.nbytes
    subsets = np.asarray(enumerate_subsets(params.M, params.K))
    slots = subsets[:, np.asarray(list(enumerate_allocations(params.L_R, params.K)))]
    np.testing.assert_array_equal(table.carriers, slots.reshape(len(table), params.L_R))
    assert table.carriers.dtype == slots.dtype


@pytest.mark.parametrize("m,k,l_r", [(2, 2, 16), (3, 3, 12)])
def test_table_peak_is_its_estimate_when_every_carrier_is_active(m, k, l_r):
    # M = K: one subset, so the words are the card_P allocations.  Holding
    # them as tuples, and as the index array a gather reads, took 3.6 and
    # 3.8 times the estimate; within 1% are the object headers and ufunc
    # buffers no estimate counts
    params = SystemParams(M=m, K=k, L_R=l_r)
    derived = derive(params)
    need = derived.C_total * params.L_R * 8 + params.M * derived.L_T * 16
    tracemalloc.start()
    try:
        table = build_table(params, derived)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == derived.card_P
    assert peak <= 1.01 * need


@pytest.mark.parametrize("t_p,l_t", [(1e-6, 71), (3e-5, 2_101), (1e-3, 70_001)])
def test_waveform_phases_take_nothing_beside_the_table(t_p, l_t):
    # the phases held an int64 np.arange(L_T) and ufunc cast buffers beside
    # the (M, L_T) result: 2.0 times the estimate at L_T = 2,101 and 1.09
    # times at 70,001.  Within 8 kB are the object headers and generator
    # state no estimate counts
    params = SystemParams(T_p=t_p, T_r=2 * t_p)
    derived = derive(params)
    assert derived.L_T == l_t
    need = derived.C_total * params.L_R * 8 + params.M * l_t * 16
    tracemalloc.start()
    try:
        table = build_table(params, derived)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need + 8 * 1024
    # each entry's phase is still the product (2j pi m) t of one broadcast
    phases = 2j * np.pi * np.arange(params.M)[:, None] * np.arange(l_t)
    phases /= params.M
    assert table.waveforms.tobytes() == np.exp(phases).tobytes()


def test_table_csv_export(tmp_path, small_table):
    path = tmp_path / "table.csv"
    export_table_csv(small_table, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(small_table) + 1
    assert lines[0] == "global_index,subset_index,allocation_index,freq_subset,allocation"
    assert lines[1] == "0,0,0,0-1,0-0-1-1"
