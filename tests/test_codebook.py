"""Distance matrix, MED bookkeeping, and greedy elimination tests."""

import itertools

import numpy as np
import pytest

from imjrc.codebook import (
    Codebook,
    Provenance,
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
        book, _ = greedy_prune(dist, 2, provenance=Provenance.PRUNED_THEN_CRPS)
        assert book.provenance is Provenance.PRUNED_THEN_CRPS

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
        book = Codebook(tuple(range(16)), 1.0, Provenance.BASELINE)
        path = tmp_path / "baseline.csv"
        export_codebook_csv(book, small_table, str(path))
        rows = path.read_text().strip().split("\n")[1:]
        assert [int(r.split(",")[2]) for r in rows] == list(range(16))
