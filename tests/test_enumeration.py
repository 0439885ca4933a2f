"""Enumeration order, table construction, and bit-label mapping."""

import numpy as np
import pytest

from imjrc import enumeration
from imjrc.enumeration import (
    bits_to_rank,
    build_table,
    enumerate_allocations,
    enumerate_subsets,
    export_table_csv,
    rank_to_bits,
)
from imjrc.params import SystemParams, derive
from oracles import synthesize_codeword


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
    assert enumerate_allocations(4, 2) == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
    ]
    assert enumerate_allocations(2, 1) == [(0, 0)]


def test_allocations_default_count_and_balance(default_derived):
    allocations = enumerate_allocations(6, 2)
    assert len(allocations) == default_derived.card_P == 20
    assert allocations[0] == (0, 0, 0, 1, 1, 1)
    assert allocations[-1] == (1, 1, 1, 0, 0, 0)
    assert allocations == sorted(allocations)
    for alloc in allocations:
        assert alloc.count(0) == alloc.count(1) == 3


def test_allocations_three_slots():
    allocations = enumerate_allocations(6, 3)
    assert len(allocations) == 90  # 6! / (2!)^3
    assert all(a.count(s) == 2 for a in allocations for s in range(3))


def test_table_shape_and_indexing(default_table, default_derived):
    assert len(default_table) == 420
    assert default_table.matrices.shape == (420, 6, 71)
    cid = default_table.id_of(47)
    assert cid.subset_index == 2
    assert cid.allocation_index == 7
    assert default_table.subset_of(0) == (0, 1)
    assert default_table.allocation_of(0) == (0, 0, 0, 1, 1, 1)
    assert default_table.allocation_of(419) == (1, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        default_table.id_of(420)


def test_table_matches_synthesis(default_table, default_params, default_derived):
    for g in (0, 1, 19, 20, 137, 419):
        expected = synthesize_codeword(
            default_table.subset_of(g),
            default_table.allocation_of(g),
            default_params,
            default_derived,
        )
        np.testing.assert_array_equal(default_table.matrices[g], expected)


def test_table_codewords_distinct(small_table):
    flat = small_table.matrices.reshape(len(small_table), -1)
    gram = flat @ flat.conj().T
    sq = np.real(np.diag(gram))
    dist = sq[:, None] + sq[None, :] - 2 * gram.real
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1.0


def test_table_deterministic(small_params, small_derived):
    a = build_table(small_params, small_derived)
    b = build_table(small_params, small_derived)
    np.testing.assert_array_equal(a.matrices, b.matrices)


def test_table_size_cap():
    params = SystemParams(M=16, K=2, L_R=16, L_C=2)
    derived = derive(params)
    with pytest.raises(ValueError, match=r"table needs about \d+\.\d GiB"):
        build_table(params, derived)


def test_oversized_table_refused_before_enumeration(monkeypatch):
    # C_total = 369,600 is a modest count, but at L_T = 121 the complex
    # table alone is 6.4 GB; the budget must refuse it before any codeword,
    # subset or allocation is enumerated
    def enumerated(*args):
        raise AssertionError("enumerated an oversized table")

    monkeypatch.setattr(enumeration, "enumerate_subsets", enumerated)
    params = SystemParams(M=12, K=3, L_R=9)
    derived = derive(params)
    assert (derived.C_total, derived.L_T) == (369_600, 121)
    with pytest.raises(ValueError, match=r"table needs about \d+\.\d GiB"):
        build_table(params, derived)


def test_bit_labels_examples():
    assert bits_to_rank((0,) * 8) == 0
    assert bits_to_rank((1,) * 8) == 255
    assert rank_to_bits(0, 8) == (0,) * 8
    assert rank_to_bits(255, 8) == (1,) * 8
    assert rank_to_bits(6, 4) == (0, 1, 1, 0)


@pytest.mark.parametrize("b", [1, 4, 8, 10])
def test_bit_labels_round_trip(b):
    for rank in range(1 << b):
        bits = rank_to_bits(rank, b)
        assert len(bits) == b
        assert bits_to_rank(bits) == rank


def test_bit_labels_reject_bad_inputs():
    with pytest.raises(ValueError):
        rank_to_bits(16, 4)
    with pytest.raises(ValueError):
        rank_to_bits(-1, 4)
    with pytest.raises(ValueError):
        rank_to_bits(0, 0)
    with pytest.raises(ValueError):
        bits_to_rank((0, 2))


def test_table_csv_export(tmp_path, small_table):
    path = tmp_path / "table.csv"
    export_table_csv(small_table, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(small_table) + 1
    assert lines[0] == "global_index,subset_index,allocation_index,freq_subset,allocation"
    assert lines[1] == "0,0,0,0-1,0-0-1-1"
