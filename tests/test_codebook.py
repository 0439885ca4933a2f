"""Distance matrix, MED bookkeeping, and greedy elimination tests."""

import collections
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from imjrc import codebook
from imjrc.channel import TAG_DESIGN_CHANNEL, draw_channel, substream
from imjrc.codebook import (
    Codebook,
    _map_features,
    _ranked,
    export_codebook_csv,
    greedy_prune,
    pair_classes,
    pair_patterns,
)
from imjrc.crps import generate_tps
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive
from oracles import (
    class_distances,
    class_distances_in_order,
    codeword_matrices,
    distance_matrix,
    med_of_submatrix,
    pair_class_codes,
    pair_pattern_codes,
)


def _pattern_matrix(patterns, alpha):
    """All-pairs distances under one row factor, read through the ranks pruning reads."""
    rank, values = patterns.ranks(alpha)
    return values[rank]


def _points_to_dist(points):
    p = np.asarray(points, dtype=float)
    return (p[:, None] - p[None, :]) ** 2


def _random_mats(rng, n, l_r, l_t):
    return rng.standard_normal((n, l_r, l_t)) + 1j * rng.standard_normal((n, l_r, l_t))


def _dense_greedy_prune(dist, target, ties=None):
    """Greedy elimination with a row-major argmin over the whole matrix per step.

    The reference for greedy_prune: same pair choice, same tie-breaks, same
    trajectory, found the slow way.  ``ties``, when given, counts the steps
    with a tied closest pair ("pair") and with tied second minima ("second"),
    and the steps whose row has lost the column it was closest to when it
    was last picked, or at the start ("refresh"): greedy_prune scans that
    row's cached bound again at such a step or before it.
    """
    n = dist.shape[0]
    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    alive = np.ones(n, dtype=bool)
    meds = np.empty(n - target + 1)
    closest = work.argmin(axis=1)
    for step in range(n - target):
        i, j = divmod(int(np.argmin(work)), n)
        if ties is not None:
            ties["refresh"] += not alive[closest[i]]
            closest[i] = j
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
    """The reference distances the design's pair distances are checked against."""

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
        x = codeword_matrices(small_table, [5])[0]
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



def _patterns(table):
    return pair_patterns(table.carriers, table.params.M, table.derived.L_T)


# L_T = 64 = 4 (mod 6): the waveform distance depends on the carrier difference
LT_NOT_ONE = SystemParams(M=6, delta_f=10.5e6)


class TestPairPatterns:
    """Distances from carrier words against the codeword matrices."""

    @pytest.fixture(scope="class")
    def tables(self, small_table, default_table):
        return {
            "small": small_table,
            "default": default_table,
            "lt_not_one": build_table(LT_NOT_ONE, derive(LT_NOT_ONE)),
        }

    def test_levels_of_an_lt_not_one_scenario(self):
        assert derive(LT_NOT_ONE).L_T == 64
        # one-row carrier words 0..5: the pair (0, d) differs by carrier d,
        # at 128, 126, 128 for d = 1, 2, 3, and d and 6 - d alike
        patterns = pair_patterns(np.arange(6)[:, None], 6, 64)
        assert patterns.levels.tolist() == [0.0, 126.0, 128.0]
        at_d = patterns.levels[patterns.patterns[patterns.index[0], 0]]
        assert at_d.tolist() == [0.0, 128.0, 126.0, 128.0, 126.0, 128.0]

    @pytest.mark.parametrize("name", ["small", "default", "lt_not_one"])
    def test_matches_distance_matrix(self, name, tables):
        table = tables[name]
        dist = _pattern_matrix(_patterns(table), np.ones(table.params.L_R))
        mats = codeword_matrices(table)
        assert np.allclose(dist, distance_matrix(mats), rtol=0.0, atol=1e-9)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)

    def test_row_entries_match_oracle(self, tables):
        # one level per pair row: the row's squared distance times L_R
        table = tables["lt_not_one"]
        patterns = _patterns(table)
        mats, l_r = codeword_matrices(table), table.params.L_R
        rng = np.random.default_rng(15)
        for i, j in rng.integers(0, len(table), size=(200, 2)):
            rows = patterns.levels[patterns.patterns[patterns.index[i, j]]] / l_r
            expect = np.sum(np.abs(mats[i] - mats[j]) ** 2, axis=1)
            assert rows == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_rows_sum_to_pair_distance(self, tables):
        # the level-weighted sum is the distance under any row pre-scaling
        for table in (tables["small"], tables["lt_not_one"]):
            patterns = _patterns(table)
            for alpha in generate_tps(4, table.params.L_R, np.random.default_rng(16)):
                dist = _pattern_matrix(patterns, alpha)
                expect = distance_matrix(codeword_matrices(table, alpha=alpha))
                assert np.allclose(dist, expect, rtol=0.0, atol=1e-9)

    def test_small_table_distances_are_exact(self, small_table):
        patterns = _patterns(small_table)
        l_r = small_table.params.L_R
        exact = np.empty(patterns.index.shape, dtype=object)
        for (i, j), p in np.ndenumerate(patterns.index):
            exact[i, j] = Fraction(int(patterns.levels[patterns.patterns[p]].sum()), l_r)
        dist = _pattern_matrix(patterns, np.ones(l_r))
        assert all(dist[ij] == float(exact[ij]) for ij in np.ndindex(dist.shape))
        target = 1 << small_table.derived.B
        assert greedy_prune(dist, target)[0] == greedy_prune(exact, target)[0]

    def test_pairs_with_equal_level_counts_are_bit_equal(self, default_table):
        # L_T = 71 = 1 (mod 7): one level, 140, so a distance is 140/6 times
        # the number of differing rows, whichever rows those are
        patterns = _patterns(default_table)
        assert patterns.levels.tolist() == [0.0, 140.0]
        dist = _pattern_matrix(patterns, np.ones(6))
        differing = (patterns.patterns != 0).sum(axis=1)[patterns.index]
        for rows in np.unique(differing):
            assert set(dist[differing == rows].tolist()) == {float(Fraction(140 * int(rows), 6))}

    def test_sorted_and_marked_codes_agree(self, default_table):
        # 7 codewords have fewer pairs than the 2^6 code space, so their
        # codes are sorted; the whole table's are marked
        ids = np.arange(0, 420, 60)
        assert len(ids) ** 2 < 2**6 < len(default_table) ** 2
        whole, part = _patterns(default_table), pair_patterns(default_table.carriers[ids], 7, 71)
        for p_part, p_whole in zip(part.index.ravel(), whole.index[np.ix_(ids, ids)].ravel()):
            assert np.array_equal(part.patterns[p_part], whole.patterns[p_whole])

    @pytest.mark.parametrize(
        "m,l_t,l_r,n",
        [
            (8, 65, 1, 40),  # one row: the first half is empty
            (8, 65, 2, 40),
            (8, 65, 3, 40),
            (8, 65, 6, 100),
            (8, 65, 8, 300),  # 256 codes below n: the code is the pattern
            (8, 65, 8, 100),  # 256 codes above n, marked
            (6, 64, 4, 100),  # LT_NOT_ONE: 3 levels, 81 codes below n
            (6, 64, 8, 50),  # 3^8 codes above n^2, sorted
            (10, 61, 8, 100),  # M = 10: 256 codes above n, marked
            (12, 67, 6, 150),  # 3 levels, 729 codes above n, marked
            (16, 37, 6, 80),  # 7 levels, 7^6 codes above n^2, sorted
        ],
    )
    def test_half_word_codes_match_the_row_loop(self, m, l_t, l_r, n):
        # each pair's pattern holds the digits of its code built row by row
        carriers = np.random.default_rng(l_r * n).integers(0, m, size=(n, l_r))
        levels, code = pair_pattern_codes(carriers, m, l_t)
        patterns = pair_patterns(carriers, m, l_t)
        assert np.array_equal(patterns.levels, levels)
        digits = code[..., None].astype(np.int64) // levels.size ** np.arange(l_r - 1, -1, -1) % levels.size
        assert np.array_equal(patterns.patterns[patterns.index], digits)
        if levels.size**l_r <= n:
            assert np.array_equal(patterns.index, code)


@pytest.mark.parametrize("m,columns,n", [(7, 3, 200), (12, 4, 300), (16, 5, 100), (10, 0, 5)])
def test_distinct_rows_match_unique(m, columns, n):
    # lexicographic order and positions of np.unique over rows, at M >= 10
    # too, and one row for rows of no entries
    rows = np.random.default_rng(m).integers(0, m, size=(n, columns))
    rows = rows[np.random.default_rng(n).integers(0, n, size=2 * n)]
    distinct, number = codebook._distinct_rows(rows, m)
    expect, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(distinct, expect) and distinct.dtype == rows.dtype
    assert np.array_equal(number, inverse.reshape(-1))


def _one_hot(count):
    # class c is 0 apart under factor c and 1 under every other: a set's
    # minima are 0 exactly at the classes its pairs hold
    return lambda block: (np.arange(count)[block, None] != np.arange(count)).astype(float)


class TestSetMinima:
    """The classes each member set's pairs hold, and its MEDs, against a loop over the pairs."""

    @staticmethod
    def _member_sets(n):
        rng = np.random.default_rng(n)
        return [
            range(n),  # the whole table, read in place
            range(n // 3),  # a prefix
            range(1, n // 3),  # from codeword 1: no prefix, so gathered
            sorted(rng.choice(n, n // 2, replace=False).tolist()),
            rng.permutation(n)[: n // 4].tolist(),  # unsorted
            [1, 0],  # the first two, in the other order
        ]

    @staticmethod
    def _classes_of_pairs(index, ids):
        return sorted({int(index[i, j]) for i, j in itertools.combinations(ids, 2)})

    @pytest.mark.parametrize("block", [7, 128])
    @pytest.mark.parametrize(
        "table_name,pairs_of", [("default_table", pair_patterns), ("small_table", pair_classes)]
    )
    def test_marks_exactly_the_classes_of_the_pairs(
        self, table_name, pairs_of, block, request, monkeypatch
    ):
        # 420 and 18 rows: a ragged last block either way
        monkeypatch.setattr(codebook, "_ROW_BLOCK", block)
        table = request.getfixturevalue(table_name)
        if pairs_of is pair_patterns:
            pairs = _patterns(table)
            count = len(pairs.patterns)
        else:
            pairs = pair_classes(table.carriers, table.waveforms)
            count = len(pairs.rows)
        sets = self._member_sets(len(table))
        for got, ids in zip(codebook._set_minima(pairs.index, count, _one_hot(count), sets), sets):
            assert np.flatnonzero(got == 0).tolist() == self._classes_of_pairs(pairs.index, ids)

    @pytest.mark.parametrize("block", [7, 128])
    def test_meds_match_the_pair_loop(self, block, default_table, monkeypatch):
        monkeypatch.setattr(codebook, "_ROW_BLOCK", block)
        patterns = _patterns(default_table)
        alphas = generate_tps(5, 6, np.random.default_rng(32))
        sets = self._member_sets(len(default_table))
        dist = patterns.distances(alphas)
        for got, ids in zip(patterns.meds(alphas, sets), sets):
            assert np.array_equal(got, dist[self._classes_of_pairs(patterns.index, ids)].min(axis=0))

    @pytest.mark.parametrize("block", [7, 128])
    def test_rank_minima_match_the_submatrix_copy(self, block, default_table, monkeypatch):
        # a set's MED read from a rank matrix, each rank a class standing for
        # the distance it ranks, rank 0 the diagonal's alone.  The caller's
        # matrix is read only.
        monkeypatch.setattr(codebook, "_ROW_BLOCK", block)
        rank, values = _patterns(default_table).ranks(np.ones(6))
        rank.setflags(write=False)
        sets = self._member_sets(420)
        got = codebook._set_minima(rank, len(values), lambda classes: values[classes, None], sets)
        assert got[:, 0].tolist() == [med_of_submatrix(rank, ids, values)[0] for ids in sets]

    @pytest.mark.parametrize("table_name", ["small_table", "default_table", "design_large_table"])
    @pytest.mark.parametrize("pairs_of", [pair_patterns, pair_classes])
    def test_class_zero_is_the_diagonal_alone(self, table_name, pairs_of, request):
        # the set minima leave class 0 out: no pair of distinct codewords holds it
        table = request.getfixturevalue(table_name)
        if pairs_of is pair_patterns:
            index = _patterns(table).index
        else:
            index = pair_classes(table.carriers, table.waveforms).index
        assert np.array_equal(index == 0, np.eye(len(table), dtype=bool))


def _class_words(classes, m):
    """The two carrier words (classes, 2, L_R) of each class, from its carrier-pair rows a M + b."""
    return np.stack(np.divmod(classes.rows, m), axis=1)


def _class_key(a, b, m):
    """Two carrier words less the first carrier, the smaller of their two orders, as Python ints."""
    a, b = [int(c) for c in a], [int(c) for c in b]
    return min(tuple((c - x[0]) % m for c in x + y) for x, y in ((a, b), (b, a)))


class TestPairClasses:
    """Pairs in classes of equal distance through any channel."""

    def test_pairs_sharing_a_class_are_equally_far(self, default_table, default_params):
        # every shift of both words by one carrier offset is a pair of the
        # table, so the 87,990 pairs fall into 12,570 classes of 7
        classes = pair_classes(default_table.carriers, default_table.waveforms)
        n = len(default_table)
        upper = np.triu_indices(n, 1)
        index = classes.index[upper]
        assert len(classes.rows) == 12_571 and np.all(np.diag(classes.index) == 0)
        assert np.all(np.bincount(index, minlength=len(classes.rows))[1:] == 7)
        h = draw_channel(4, 6, substream(default_params.master_seed, TAG_DESIGN_CHANNEL))
        alpha = generate_tps(2, 6, np.random.default_rng(18))[1]
        mats = codeword_matrices(default_table, alpha=alpha)
        dist = distance_matrix(mats, channel=h)[upper]
        lo, hi = np.full(len(classes.rows), np.inf), np.zeros(len(classes.rows))
        np.minimum.at(lo, index, dist)
        np.maximum.at(hi, index, dist)
        assert np.all(hi[1:] - lo[1:] <= 1e-12 * hi[1:])

    @pytest.mark.parametrize("block", [7, 2048])
    def test_set_minima_read_every_block(self, block, small_table, monkeypatch):
        # each set's MED is the minimum over its own pairs' class distances,
        # whichever blocks the classes are scored in; sets of one pair miss
        # any class a block skips
        monkeypatch.setattr(codebook, "_CLASS_BLOCK", block)
        classes = pair_classes(small_table.carriers, small_table.waveforms)
        assert len(classes.rows) > 2 * 7
        h = draw_channel(2, 4, substream(99, TAG_DESIGN_CHANNEL))
        maps = [h * small_table.coefficients(a) for a in generate_tps(5, 4, np.random.default_rng(20))]
        n = len(small_table)
        sets = [range(s, min(s + 5, n)) for s in range(0, n, 5)]
        sets += [list(pair) for pair in itertools.combinations(range(n), 2)]
        words = _class_words(classes, small_table.params.M)
        meds, dist = classes.meds(maps, sets), class_distances(words, small_table.waveforms, maps)
        for got, ids in zip(meds, sets):
            pairs = classes.index[np.ix_(ids, ids)][np.triu_indices(len(ids), 1)]
            np.testing.assert_allclose(got, dist[pairs].min(axis=0), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("block", [7, 2048])
    @pytest.mark.parametrize(
        "table_name,rows", [("small_table", None), ("default_table", None), ("design_large_table", 1024)]
    )
    def test_carrier_table_matches_four_gathers(self, table_name, rows, block, request):
        # each class's features are gathered from the one carrier-pair table;
        # the distances are those of four gathers of the waveform Gram, bit
        # for bit (234,220 classes on the first 1,024 rows of M=8, L_R=8)
        table = request.getfixturevalue(table_name)
        params = table.params
        classes = pair_classes(table.carriers[:rows], table.waveforms)
        assert classes.table.shape == (params.M**2, params.M**2)
        h = draw_channel(params.L_C, params.L_R, substream(params.master_seed, TAG_DESIGN_CHANNEL))
        alpha = generate_tps(2, params.L_R, np.random.default_rng(24))[1]
        maps = [h * table.coefficients(a) for a in (np.ones(params.L_R), alpha)]
        count, words = len(classes.rows), _class_words(classes, params.M)
        # every block (every 64th block of 7 on the largest table) and the
        # last, ragged one
        step = block * (64 if block == 7 and count > 50_000 else 1)
        for start in [*range(0, count, step), count - count % block]:
            part = slice(start, start + block)
            got = classes._distances(_map_features(maps), part)
            assert got.tobytes() == class_distances(words, table.waveforms, maps, part).tobytes()

    @pytest.mark.parametrize(
        "params,rows,index_type",
        [
            (SystemParams(M=6, L_R=4), None, np.uint16),
            (SystemParams(M=7, L_R=6), None, np.uint16),
            (SystemParams(M=16, L_R=4), None, np.uint16),
            (SystemParams(M=8, L_R=8), 1024, np.uint32),  # 234,220 classes, uint32 codes
            (SystemParams(M=3, L_R=4, delta_f=4e6), None, np.uint8),  # uint8 codes
            (None, 60, np.intp),  # random words: a code space above n^2, sorted
        ],
        ids=["M6-LR4", "M7-LR6", "M16-LR4", "M8-LR8-1024", "M3-LR4", "random"],
    )
    def test_matches_full_size_codes(self, params, rows, index_type):
        # narrow codes, the in-place minimum and the blocked numbering give
        # the index, words and table of full-size int64 codes, bit for bit;
        # the words' carrier-pair rows take the narrowest type of M^2 - 1
        if params is None:
            carriers = np.random.default_rng(19).integers(0, 12, size=(rows, 8))
            waveforms = np.exp(2j * np.pi * np.outer(np.arange(12), np.arange(25)) / 12)
        else:
            table = build_table(params, derive(params))
            carriers, waveforms = table.carriers[:rows], table.waveforms
        classes = pair_classes(carriers, waveforms)
        index, words, table = pair_class_codes(carriers, waveforms)
        assert classes.index.dtype == index.dtype == index_type
        assert np.array_equal(classes.index, index)
        m = len(waveforms)
        assert classes.rows.dtype == np.min_scalar_type(m * m - 1)
        assert np.array_equal(_class_words(classes, m), words)
        assert classes.table.tobytes() == table.tobytes()

    @pytest.mark.parametrize("m,l_r", [(7, 6), (16, 4)])
    def test_peak_stays_below_ten_bytes_a_pair(self, m, l_r):
        # codes, their minimum and the index: 7.5 and 7.3 bytes a pair at
        # n = 420 and 720, where n x n int64 codes took 24.0
        params = SystemParams(M=m, L_R=l_r)
        table = build_table(params, derive(params))
        n = len(table)
        tracemalloc.start()
        try:
            pair_classes(table.carriers, table.waveforms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n * n

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 70_000])
    @pytest.mark.parametrize("space_of", [lambda count: count, lambda count: 10**9])
    def test_numbering_matches_unique(self, count, space_of, monkeypatch):
        # both branches against np.unique on symmetric codes, as both
        # callers' are: marked (from each row block's own column on; the
        # positions' type can hold the count less one only, and the sum
        # wraps) and sorted
        monkeypatch.setattr(codebook, "_ROW_BLOCK", 7)
        rng = np.random.default_rng(count)
        space = space_of(count)
        values = rng.choice(space, count, replace=False) if space > count else np.arange(count)
        n = math.isqrt(2 * count) + 1  # over count entries on and above the diagonal
        i, j = np.triu_indices(n)
        code = np.empty((n, n), dtype=np.min_scalar_type(space - 1))
        code[i, j] = code[j, i] = values[rng.permutation(np.resize(np.arange(count), i.size))]
        codes, index = codebook._numbered(code, space)
        expect, inverse = np.unique(code, return_inverse=True)
        assert np.array_equal(codes, expect) and np.array_equal(index, inverse.reshape(n, n))
        if space <= code.size:
            assert index.dtype == np.min_scalar_type(count - 1)

    @pytest.mark.parametrize("m,l_r", [(12, 8), (16, 9)])
    def test_codes_do_not_overflow(self, m, l_r):
        # as 2 L_R - 1 base-M digits, a pair's code would span 12^15 < 2^63
        # and 16^17 > 2^63 values; classes must be exactly the pair keys
        carriers = np.random.default_rng(19).integers(0, m, size=(60, l_r))
        waveforms = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(2 * m + 1)) / m)
        classes = pair_classes(carriers, waveforms)
        keys = collections.defaultdict(set)
        for i, j in itertools.combinations(range(len(carriers)), 2):
            keys[classes.index[i, j]].add(_class_key(carriers[i], carriers[j], m))
        assert all(len(key) == 1 for key in keys.values())
        assert len(set.union(*keys.values())) == len(keys) == len(classes.rows) - 1
        words = _class_words(classes, m)
        for c, (key,) in keys.items():
            a, b = words[c]
            assert a[0] == 0 and _class_key(a, b, m) == key


def test_set_scores_need_two_members(small_table):
    # a set of one codeword has no pair; both scorings refuse it rather
    # than fail on an index
    patterns = pair_patterns(small_table.carriers, small_table.params.M, small_table.derived.L_T)
    classes = pair_classes(small_table.carriers, small_table.waveforms)
    h = draw_channel(2, 4, substream(99, TAG_DESIGN_CHANNEL))
    for score, factor in ((patterns.meds, np.ones(4)), (classes.meds, h)):
        with pytest.raises(ValueError, match="needs at least two members"):
            score([factor], [range(4), [3]])


class TestGreedyPrune:
    def test_toy_line_instance(self):
        # hand trace on {0,1,3,6,10,15}, target 4:
        #   min pair (0,1), second-mins 9 vs 4 -> drop value 1
        #   min pair (0,3) [lex before (3,6), both 9], second-mins 36 vs 9 -> drop value 3
        points = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0]
        survivors, meds = greedy_prune(_points_to_dist(points), 4)
        assert [points[i] for i in survivors] == [0.0, 6.0, 10.0, 15.0]
        assert list(meds) == [1.0, 9.0, 16.0]

    def test_second_min_tie_drops_larger_index(self):
        # both endpoints of the (0,1) pair see a second-minimum of 4
        points = [0.0, 1.0, 3.0, -2.0]
        survivors, meds = greedy_prune(_points_to_dist(points), 3)
        assert survivors == (0, 2, 3)
        assert list(meds) == [1.0, 4.0]

    def test_trajectory_non_decreasing_random(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((14, 3))
        dist = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        survivors, meds = greedy_prune(dist, 5)
        assert len(survivors) == 5
        assert len(meds) == 14 - 5 + 1
        assert np.all(np.diff(meds) >= 0.0)

    def test_never_below_brute_force_floor(self):
        # greedy is a heuristic: it must land between the full-set MED and
        # the exhaustive optimum
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((10, 3))
        dist = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        _, meds = greedy_prune(dist.copy(), 7)
        best = 0.0
        for subset in itertools.combinations(range(10), 7):
            value, _ = med_of_submatrix(dist, subset)
            best = max(best, value)
        assert meds[0] <= meds[-1] <= best + 1e-12

    def test_target_equal_to_size_keeps_everything(self):
        dist = _points_to_dist([0.0, 2.0, 5.0])
        survivors, meds = greedy_prune(dist, 3)
        assert survivors == (0, 1, 2)
        assert list(meds) == [4.0]

    def test_small_scenario_counts(self, small_table, small_derived):
        dist = distance_matrix(codeword_matrices(small_table))
        survivors, meds = greedy_prune(dist.copy(), 1 << small_derived.B)
        assert len(survivors) == 16
        assert meds.shape == (small_derived.Q + 1,)
        assert np.all(np.diff(meds) >= 0.0)
        value, _ = med_of_submatrix(dist, survivors)
        assert meds[-1] == pytest.approx(value, rel=1e-12)

    def test_prunes_in_place(self):
        # the diagonal and the removed codeword's column take the sentinel;
        # every other entry, the removed codeword's row included, is kept
        points = [0.0, 1.0, 3.0, 6.0]
        dist = _points_to_dist(points)
        work = dist.copy()
        assert greedy_prune(work, 3)[0] == (0, 2, 3)
        expect = dist.copy()
        np.fill_diagonal(expect, np.inf)
        expect[:, 1] = np.inf
        assert np.array_equal(work, expect)

    def test_traced_peak_is_a_fraction_of_the_matrix(self, design_large_table):
        # the n x n rank matrix is pruned where it lies: no copy of it, or
        # of any large part of it, is made
        patterns = pair_patterns(design_large_table.carriers, 8, design_large_table.derived.L_T)
        rank, _ = patterns.ranks(np.ones(8))
        n = len(rank)
        assert n >= 1000 and rank.dtype == np.uint8
        tracemalloc.start()
        try:
            greedy_prune(rank, 1 << design_large_table.derived.B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n // 8

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
        survivors, meds = greedy_prune(dist.copy(), target)
        ids, ref_meds = _dense_greedy_prune(dist, target)
        assert survivors == ids
        assert np.array_equal(meds, ref_meds)

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
        # and pick a row whose cached closest column was removed, or they
        # would not test the lazily refreshed minima
        assert ties["refresh"] > 0

    def test_small_table(self, small_table, small_derived):
        mats = codeword_matrices(small_table)
        self._assert_same(distance_matrix(mats), 1 << small_derived.B)

    def test_small_table_through_design_channel(self, small_table, small_params, small_derived):
        h = draw_channel(
            small_params.L_C, small_params.L_R, substream(small_params.master_seed, TAG_DESIGN_CHANNEL)
        )
        mats = codeword_matrices(small_table)
        self._assert_same(distance_matrix(mats, channel=h), 1 << small_derived.B)


def _distinct_symmetric(rng, n, count):
    # exactly `count` distinct values, 0 among them, each nonzero one on
    # several pairs, so closest pairs and second minima tie
    i, j = np.triu_indices(n, 1)
    dist = np.zeros((n, n))
    dist[i, j] = rng.permutation(np.resize(np.arange(1.0, count), i.size)) / 7
    return dist + dist.T


class TestRanks:
    """Pruning and MEDs on ranks and their values against the float matrix."""

    def _assert_same(self, dist, target):
        n = len(dist)
        rank, values = _ranked(dist.ravel(), np.arange(n * n).reshape(n, n))
        assert np.array_equal(values[rank].view(np.uint64), dist.view(np.uint64))
        survivors, steps = greedy_prune(rank.copy(), target)
        ref_survivors, ref_meds = greedy_prune(dist.copy(), target)
        assert survivors == ref_survivors
        assert steps.dtype == rank.dtype
        assert np.array_equal(values[steps].view(np.uint64), ref_meds.view(np.uint64))
        for members in (range(n), survivors, range(0, n, 3)):
            assert med_of_submatrix(rank, members, values) == med_of_submatrix(dist, members)
        return rank

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_matrices(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(10, 60))
        dist = _tied_symmetric(rng, n)
        assert self._assert_same(dist, 2).dtype == np.uint8
        self._assert_same(dist, n // 2)

    @pytest.mark.parametrize("block", [7, 128])
    def test_rows_are_gathered_in_blocks(self, block, monkeypatch):
        # 60 and 300 rows are a multiple of neither block: the last is ragged
        monkeypatch.setattr(codebook, "_ROW_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in (60, 300):
            distances = rng.integers(0, 40, size=50) / 7
            index = rng.integers(0, 50, size=(n, n)).astype(np.uint8)
            rank, values = _ranked(distances, index)
            assert np.array_equal(values, np.unique(distances)) and rank.dtype == np.uint8
            assert np.array_equal(rank, np.searchsorted(values, distances)[index])

    @pytest.mark.parametrize("count,dtype", [(255, np.uint8), (256, np.uint16)])
    def test_largest_value_is_left_free(self, count, dtype):
        # 255 ranks leave 255 free in a byte; 256 need a wider type
        rng = np.random.default_rng(count)
        dist = _distinct_symmetric(rng, 60, count)
        assert np.unique(dist).size == count
        for target in (2, 30):
            assert self._assert_same(dist, target).dtype == dtype

    def test_design_table(self, design_large_table):
        # the pruning the design runs, against the float pattern matrix
        patterns = pair_patterns(design_large_table.carriers, 8, design_large_table.derived.L_T)
        for alpha in generate_tps(2, 8, np.random.default_rng(23)):
            rank, values = patterns.ranks(alpha)
            dist = patterns.distances(alpha)[:, 0][patterns.index]
            assert np.array_equal(values[rank], dist)
            survivors, steps = greedy_prune(rank, 1 << design_large_table.derived.B)
            ref_survivors, ref_meds = greedy_prune(dist, 1 << design_large_table.derived.B)
            assert survivors == ref_survivors and np.array_equal(values[steps], ref_meds)

    @pytest.mark.parametrize("block", [7, 2048])
    @pytest.mark.parametrize("table_name", ["small_table", "default_table"])
    def test_class_ranks(self, table_name, block, request, monkeypatch):
        # the pruning a design through a channel runs: each class distance
        # a fixed-order sum whatever the blocks, so values[ranks] is the
        # in-order oracle bit for bit, and the product's distances to rounding
        monkeypatch.setattr(codebook, "_CLASS_BLOCK", block)
        table = request.getfixturevalue(table_name)
        params = table.params
        classes = pair_classes(table.carriers, table.waveforms)
        words = _class_words(classes, params.M)
        h = draw_channel(params.L_C, params.L_R, substream(params.master_seed, TAG_DESIGN_CHANNEL))
        for alpha in generate_tps(2, params.L_R, np.random.default_rng(25)):
            row_map = h * table.coefficients(alpha)
            rank, values = classes.ranks(row_map)
            dist = values[rank]
            expect = class_distances_in_order(words, table.waveforms, row_map)[classes.index]
            assert np.array_equal(dist.view(np.uint64), expect.view(np.uint64))
            product = classes._distances(_map_features([row_map]), slice(None))[:, 0][classes.index]
            np.testing.assert_allclose(dist, product, rtol=1e-12, atol=0)
            self._assert_same(dist, 1 << table.derived.B)


def _assert_bit_label(bits, rank, b):
    """``bits`` is the B-bit natural-binary label of ``rank``, most significant bit first."""
    assert len(bits) == b and set(bits) <= {"0", "1"}
    assert sum(int(bit) << (b - 1 - j) for j, bit in enumerate(bits)) == rank


class TestExportCodebookCsv:
    def test_rows_and_labels(self, small_table, small_derived, tmp_path):
        dist = distance_matrix(codeword_matrices(small_table))
        survivors, meds = greedy_prune(dist, 1 << small_derived.B)
        book = Codebook(survivors, float(meds[-1]), "pruned")
        path = tmp_path / "codebook.csv"
        export_codebook_csv(book, small_table, str(path))
        lines = path.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header.split(",")[0:3] == ["rank", "bits", "global_index"]
        assert len(rows) == 16
        for rank, row in enumerate(rows):
            cols = row.split(",")
            assert int(cols[0]) == rank
            _assert_bit_label(cols[1], rank, small_derived.B)
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

    # label widths of 1, 8 and 10 bits; test_rows_and_labels covers 4
    @pytest.mark.parametrize("scenario", [{"M": 2, "K": 1, "L_R": 2}, {}, {"M": 8, "L_R": 8}])
    def test_every_row_carries_its_rank_label(self, scenario, tmp_path):
        params = SystemParams(**scenario)
        table = build_table(params, derive(params))
        b = table.derived.B
        book = Codebook(tuple(range(1 << b)), 1.0, "baseline")
        path = tmp_path / "baseline.csv"
        export_codebook_csv(book, table, str(path))
        rows = path.read_text().strip().split("\n")[1:]
        assert len(rows) == 1 << b
        for rank, row in enumerate(rows):
            _assert_bit_label(row.split(",")[1], rank, b)
