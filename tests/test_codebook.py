"""Distance matrix, MED bookkeeping, and greedy elimination tests."""

import collections
import itertools

import numpy as np
import pytest

from imjrc.channel import TAG_DESIGN_CHANNEL, draw_channel, substream
from imjrc.codebook import (
    Codebook,
    _gram_distances,
    distance_matrix,
    export_codebook_csv,
    greedy_prune,
    med,
    pair_row_distances,
)


def _points_to_dist(points):
    p = np.asarray(points, dtype=float)
    return (p[:, None] - p[None, :]) ** 2


def _random_mats(rng, n, l_r, l_t):
    return rng.standard_normal((n, l_r, l_t)) + 1j * rng.standard_normal((n, l_r, l_t))


def _dense_greedy_prune(dist, target, ties=None):
    """Greedy elimination with a row-major argmin over the whole matrix per step.

    The reference for greedy_prune: same pair choice, same tie-breaks, same
    trajectory, found the slow way.  ``ties``, when given, counts the steps
    with a tied closest pair ("pair") and with tied second minima ("second").
    """
    n = dist.shape[0]
    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    alive = np.ones(n, dtype=bool)
    meds = np.empty(n - target + 1)
    for step in range(n - target):
        i, j = divmod(int(np.argmin(work)), n)
        if i > j:
            i, j = j, i
        meds[step] = work[i, j]
        row_i = work[i].copy()
        row_i[j] = np.inf
        row_j = work[j].copy()
        row_j[i] = np.inf
        if ties is not None:
            # a symmetric matrix holds each pair twice
            ties["pair"] += int(np.sum(work == work[i, j])) > 2
            ties["second"] += int(row_i.min() == row_j.min())
        drop = i if row_i.min() < row_j.min() else j
        alive[drop] = False
        work[drop, :] = np.inf
        work[:, drop] = np.inf
    meds[-1] = work.min()
    return tuple(int(g) for g in np.flatnonzero(alive)), meds


class TestDistanceMatrix:
    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        mats = _random_mats(rng, 6, 3, 5)
        dist = distance_matrix(mats)
        for i in range(6):
            for j in range(6):
                expect = np.sum(np.abs(mats[i] - mats[j]) ** 2)
                assert dist[i, j] == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_exactly_symmetric_zero_diagonal_nonnegative(self):
        rng = np.random.default_rng(8)
        mats = _random_mats(rng, 12, 4, 9)
        dist = distance_matrix(mats)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)
        assert np.all(dist >= 0.0)

    def test_negated_codeword_distance(self, small_table, small_derived):
        # ||X - (-X)||^2 = 4 ||X||^2 = 4 L_T for synthesized codewords
        x = small_table.matrices[5]
        dist = distance_matrix(np.stack([x, -x]))
        assert dist[0, 1] == pytest.approx(4.0 * small_derived.L_T, rel=1e-12)

    def test_channel_matches_projected_oracle(self):
        rng = np.random.default_rng(11)
        mats = _random_mats(rng, 5, 4, 6)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        dist = distance_matrix(mats, channel=h)
        for i in range(5):
            for j in range(5):
                expect = np.sum(np.abs(h @ mats[i] - h @ mats[j]) ** 2)
                assert dist[i, j] == pytest.approx(expect, rel=1e-9, abs=1e-9)


    def test_gram_distances_fill_given_buffers_bit_equal(self):
        # candidate scoring reuses its buffers across candidates; the filled
        # result must be the allocating call's, bit for bit
        rng = np.random.default_rng(14)
        flat = _random_mats(rng, 9, 4, 7).reshape(9, -1)
        out, gram = np.full((9, 9), np.nan), np.full((9, 9), np.nan, dtype=complex)
        for _ in range(2):
            got = _gram_distances(flat, out=out, gram=gram)
            assert got is out
            assert np.array_equal(got.view(np.uint64), _gram_distances(flat).view(np.uint64))


class TestPairRowDistances:
    def test_rows_sum_to_pair_distance(self):
        rng = np.random.default_rng(13)
        mats = _random_mats(rng, 7, 3, 5)
        dist = distance_matrix(mats)
        i_idx, j_idx, rowdist = pair_row_distances(mats)
        assert i_idx.size == 7 * 6 // 2
        total = rowdist.sum(axis=1)
        for p in range(i_idx.size):
            assert total[p] == pytest.approx(dist[i_idx[p], j_idx[p]], rel=1e-9, abs=1e-9)

    def test_row_entries_match_oracle(self):
        rng = np.random.default_rng(14)
        mats = _random_mats(rng, 4, 3, 5)
        i_idx, j_idx, rowdist = pair_row_distances(mats)
        for p in range(i_idx.size):
            for l in range(3):
                expect = np.sum(np.abs(mats[i_idx[p], l] - mats[j_idx[p], l]) ** 2)
                assert rowdist[p, l] == pytest.approx(expect, rel=1e-9, abs=1e-9)


class TestMed:
    def test_known_minimum_and_pair(self):
        dist = _points_to_dist([0.0, 1.0, 3.0, 6.0])
        value, pair = med(dist, [0, 1, 2, 3])
        assert value == 1.0
        assert pair == (0, 1)

    def test_subset_excludes_outside_pairs(self):
        dist = _points_to_dist([0.0, 1.0, 3.0, 6.0])
        value, pair = med(dist, [0, 2, 3])
        assert value == 9.0
        assert pair == (0, 2)

    def test_tie_resolves_to_smallest_pair(self):
        # equally spaced points: every adjacent pair ties at 1
        dist = _points_to_dist([0.0, 1.0, 2.0, 3.0])
        _, pair = med(dist, range(4))
        assert pair == (0, 1)

    def test_needs_two_members(self):
        dist = _points_to_dist([0.0, 1.0])
        with pytest.raises(ValueError):
            med(dist, [1])


class TestGreedyPrune:
    def test_toy_line_instance(self):
        # hand trace on {0,1,3,6,10,15}, target 4:
        #   min pair (0,1), second-mins 9 vs 4 -> drop value 1
        #   min pair (0,3) [lex before (3,6), both 9], second-mins 36 vs 9 -> drop value 3
        points = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0]
        book, meds = greedy_prune(_points_to_dist(points), 4)
        survivors = [points[i] for i in book.member_ids]
        assert survivors == [0.0, 6.0, 10.0, 15.0]
        assert list(meds) == [1.0, 9.0, 16.0]
        assert book.med == 16.0

    def test_second_min_tie_drops_larger_index(self):
        # both endpoints of the (0,1) pair see a second-minimum of 4
        points = [0.0, 1.0, 3.0, -2.0]
        book, meds = greedy_prune(_points_to_dist(points), 3)
        assert book.member_ids == (0, 2, 3)
        assert list(meds) == [1.0, 4.0]

    def test_trajectory_non_decreasing_random(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((14, 3))
        dist = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        book, meds = greedy_prune(dist, 5)
        assert len(book.member_ids) == 5
        assert len(meds) == 14 - 5 + 1
        assert np.all(np.diff(meds) >= 0.0)

    def test_never_below_brute_force_floor(self):
        # greedy is a heuristic: it must land between the full-set MED and
        # the exhaustive optimum
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((10, 3))
        dist = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        book, meds = greedy_prune(dist, 7)
        best = 0.0
        for subset in itertools.combinations(range(10), 7):
            value, _ = med(dist, subset)
            best = max(best, value)
        assert meds[0] <= book.med <= best + 1e-12

    def test_target_equal_to_size_keeps_everything(self):
        dist = _points_to_dist([0.0, 2.0, 5.0])
        book, meds = greedy_prune(dist, 3)
        assert book.member_ids == (0, 1, 2)
        assert list(meds) == [4.0]

    def test_small_scenario_counts(self, small_table, small_derived):
        dist = distance_matrix(small_table.matrices)
        book, meds = greedy_prune(dist, 1 << small_derived.B)
        assert len(book.member_ids) == 16
        assert meds.shape == (small_derived.Q + 1,)
        assert np.all(np.diff(meds) >= 0.0)
        value, _ = med(dist, book.member_ids)
        assert book.med == pytest.approx(value, rel=1e-12)

    def test_provenance_recorded(self):
        dist = _points_to_dist([0.0, 1.0, 3.0])
        book, _ = greedy_prune(dist, 2)
        assert book.provenance == "pruned"

    @pytest.mark.parametrize(
        "dist,target",
        [
            (np.zeros((3, 2)), 2),
            (_points_to_dist([0.0, 1.0, 2.0]), 1),
            (_points_to_dist([0.0, 1.0, 2.0]), 4),
        ],
    )
    def test_rejects_bad_input(self, dist, target):
        with pytest.raises(ValueError):
            greedy_prune(dist, target)


def _random_symmetric(rng, n):
    upper = np.triu(rng.random((n, n)), 1)
    return upper + upper.T


def _tied_symmetric(rng, n):
    # few distinct integer values, so closest pairs and second minima tie
    upper = np.triu(rng.integers(1, 5, size=(n, n)).astype(float), 1)
    return upper + upper.T


class TestGreedyMatchesDenseArgmin:
    """greedy_prune's cached row minima pick the pairs a dense argmin picks."""

    def _assert_same(self, dist, target):
        book, meds = greedy_prune(dist, target)
        ids, ref_meds = _dense_greedy_prune(dist, target)
        assert book.member_ids == ids
        assert np.array_equal(meds, ref_meds)
        assert book.med == ref_meds[-1]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_float_matrices(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 60))
        self._assert_same(_random_symmetric(rng, n), int(rng.integers(2, n + 1)))

    @pytest.mark.parametrize("seed", range(5))
    def test_integer_matrices_with_ties(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(10, 60))
        dist = _tied_symmetric(rng, n)
        self._assert_same(dist, 2)
        self._assert_same(dist, n // 2)

    def test_ties_reach_both_tie_breaks(self):
        # the tied inputs above must tie on a closest pair and on second
        # minima, or they would not test the tie-breaks
        ties = collections.Counter()
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(10, 60))
            _dense_greedy_prune(_tied_symmetric(rng, n), 2, ties)
        assert ties["pair"] > 0 and ties["second"] > 0

    def test_small_table(self, small_table, small_derived):
        self._assert_same(distance_matrix(small_table.matrices), 1 << small_derived.B)

    def test_small_table_through_design_channel(self, small_table, small_params, small_derived):
        h = draw_channel(
            small_params.L_C, small_params.L_R, substream(small_params.master_seed, TAG_DESIGN_CHANNEL)
        )
        self._assert_same(distance_matrix(small_table.matrices, channel=h), 1 << small_derived.B)


class TestExportCodebookCsv:
    def test_rows_and_labels(self, small_table, small_derived, tmp_path):
        dist = distance_matrix(small_table.matrices)
        book, _ = greedy_prune(dist, 1 << small_derived.B)
        path = tmp_path / "codebook.csv"
        export_codebook_csv(book, small_table, str(path))
        lines = path.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header.split(",")[0:3] == ["rank", "bits", "global_index"]
        assert len(rows) == 16
        for rank, row in enumerate(rows):
            cols = row.split(",")
            assert int(cols[0]) == rank
            assert cols[1] == format(rank, "04b")
            assert int(cols[2]) == book.member_ids[rank]
            subset = [int(v) for v in cols[3].split("-")]
            allocation = [int(v) for v in cols[4].split("-")]
            assert subset == sorted(subset) and len(subset) == 2
            assert len(allocation) == 4
            assert sorted(allocation) == [0, 0, 1, 1]

    def test_baseline_export_uses_first_ranks(self, small_table, tmp_path):
        book = Codebook(tuple(range(16)), 1.0, "baseline")
        path = tmp_path / "baseline.csv"
        export_codebook_csv(book, small_table, str(path))
        rows = path.read_text().strip().split("\n")[1:]
        assert [int(r.split(",")[2]) for r in rows] == list(range(16))
