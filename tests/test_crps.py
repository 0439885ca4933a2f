"""Pre-scaling pool generation, candidate scoring, and scheme assembly tests."""

import dataclasses
import itertools
import tracemalloc
import types

import numpy as np
import pytest

from imjrc import codebook, crps, enumeration
from imjrc.channel import TAG_DESIGN_CHANNEL, TAG_TPS, draw_channel, substream
from imjrc.codebook import greedy_prune, pair_classes, pair_patterns
from imjrc.crps import (
    Scheme,
    build_scheme,
    build_schemes,
    design_bytes,
    generate_tps,
)
from imjrc.enumeration import DESIGN_BUDGET_BYTES, build_table
from imjrc.params import SystemParams, derive
from oracles import (
    candidate_meds,
    codeword_matrices,
    distance_matrix,
    med_of_submatrix,
    member_matrices,
    tps_pool,
)


def _pattern_matrix(patterns, alpha):
    """All-pairs distances under one row factor, read through the ranks pruning reads."""
    rank, values = patterns.ranks(alpha)
    return values[rank]


def _maps(table, h, pool):
    """The row map of each candidate through design channel ``h``."""
    return [h * table.coefficients(alpha) for alpha in pool]


class TestGenerateTps:
    def test_identity_comes_first(self):
        pool = generate_tps(4, 6, np.random.default_rng(0))
        assert np.array_equal(pool[0], np.ones(6, dtype=complex))
        assert len(pool) == 4

    def test_single_candidate_pool_is_identity_only(self):
        pool = generate_tps(1, 5, np.random.default_rng(0))
        assert len(pool) == 1
        assert np.array_equal(pool[0], np.ones(5, dtype=complex))

    def test_every_candidate_preserves_power(self):
        pool = generate_tps(50, 6, np.random.default_rng(1))
        for alpha in pool:
            assert np.sum(np.abs(alpha) ** 2) == pytest.approx(6.0, rel=1e-12)

    def test_deterministic_per_substream(self):
        a = generate_tps(10, 4, substream(1234, TAG_TPS))
        b = generate_tps(10, 4, substream(1234, TAG_TPS))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("seed", [0, 1729, 31337])
    @pytest.mark.parametrize("l_r", [1, 3, 6, 8])
    @pytest.mark.parametrize("d_count", [1, 2, 100])
    def test_one_draw_equals_one_draw_per_candidate(self, d_count, l_r, seed):
        pool = generate_tps(d_count, l_r, np.random.default_rng(seed))
        expect = tps_pool(d_count, l_r, np.random.default_rng(seed))
        assert [a.shape for a in pool] == [a.shape for a in expect]
        assert [a.tobytes() for a in pool] == [a.tobytes() for a in expect]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            generate_tps(0, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_tps(3, 0, np.random.default_rng(0))


class TestApplyTps:
    """A factor scales the row coefficients, and so the rows a build sends."""

    def test_elementwise_oracle(self, small_table):
        # a scaled coefficient times its carrier's waveform is the
        # synthesised row times alpha_l
        rng = np.random.default_rng(2)
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coef = small_table.coefficients(alpha)
        mats = codeword_matrices(small_table, range(3))
        for n in range(3):
            for l in range(4):
                row = coef[l] * small_table.waveforms[small_table.carriers[n, l]]
                assert np.allclose(row, alpha[l] * mats[n, l], rtol=1e-15)

    def test_single_matrix_broadcast(self, small_table):
        # sample 0 of each scaled row is its scaled coefficient, bit for bit:
        # the row maps a design scores through are the rows a build sends
        rng = np.random.default_rng(3)
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for g in (0, 7, len(small_table) - 1):
            (mat,) = codeword_matrices(small_table, [g], alpha)
            assert np.array_equal(mat[:, 0], small_table.coefficients(alpha))

    def test_codeword_energy_preserved(self, small_table, small_derived):
        # rows of a synthesized codeword carry equal energy, so any
        # power-normalized factor keeps the Frobenius norm at L_T
        pool = generate_tps(6, 4, np.random.default_rng(4))
        for alpha in pool:
            scaled = codeword_matrices(small_table, alpha=alpha)
            norms = np.einsum("nrt,nrt->n", scaled, scaled.conj()).real
            assert np.allclose(norms, small_derived.L_T, rtol=1e-9)

    def test_length_mismatch_rejected(self, small_table):
        alpha = np.ones(5, dtype=complex)
        with pytest.raises(ValueError):
            small_table.coefficients(alpha)


class TestCandidateScoring:
    """The pool scored by pair patterns and pair classes against the codeword matrices."""

    def test_matches_full_reevaluation(self, small_table, small_params):
        patterns = pair_patterns(small_table.carriers, small_params.M, small_table.derived.L_T)
        mats = codeword_matrices(small_table)
        pool = generate_tps(6, 4, np.random.default_rng(5))
        sets = [range(len(mats)), range(0, len(mats), 3)]
        np.testing.assert_allclose(
            patterns.meds(pool, sets), candidate_meds(pool, mats, sets), rtol=1e-9, atol=0
        )

    def test_channel_path_matches_reevaluation(self, small_table, small_params):
        classes = pair_classes(small_table.carriers, small_table.waveforms)
        mats = codeword_matrices(small_table)
        rng = np.random.default_rng(6)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        pool = generate_tps(5, 4, rng)
        sets = [range(len(mats)), range(0, len(mats), 3)]
        np.testing.assert_allclose(
            classes.meds(_maps(small_table, h, pool), sets),
            candidate_meds(pool, mats, sets, channel=h),
            rtol=1e-9,
            atol=0,
        )

    def test_channel_path_is_bit_equal_to_med(self, small_table, default_table):
        # a set's score is the MED of its submatrix of the distances it is taken from, bit
        # for bit, with or without a channel, or the selected factor could
        # move; the classes are measured in the blocks the scoring uses.
        # The full default table (420 codewords) is what crps_then_codebook
        # scores.
        for table, ids in ((small_table, range(1 << small_table.derived.B)), (default_table, range(420))):
            params = table.params
            pool = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
            patterns = pair_patterns(table.carriers, params.M, table.derived.L_T)
            expect = [med_of_submatrix(_pattern_matrix(patterns, alpha), ids)[0] for alpha in pool]
            assert patterns.meds(pool, [ids])[0].tolist() == expect
            classes = pair_classes(table.carriers, table.waveforms)
            maps = _maps(table, _design_channel(params), pool)
            features, block = codebook._map_features(maps), codebook._CLASS_BLOCK
            starts = range(0, len(classes.words), block)
            dist = np.concatenate([classes._distances(features, slice(b, b + block)) for b in starts])
            expect = [med_of_submatrix(dist[:, d][classes.index], ids)[0] for d in range(len(pool))]
            assert classes.meds(maps, [ids])[0].tolist() == expect

    def test_select_never_below_identity(self, small_table, small_params):
        h = _design_channel(small_params)
        pool = generate_tps(small_params.D, small_params.L_R, substream(small_params.master_seed, TAG_TPS))
        classes = pair_classes(small_table.carriers, small_table.waveforms)
        builds = build_schemes(list(Scheme), small_table, design_channel=h)
        for build in builds[2:4]:  # crps_only, codebook_then_crps
            meds = classes.meds(_maps(small_table, h, pool), [build.codebook.member_ids])[0]
            assert build.codebook.med >= meds[0]
            assert build.codebook.med == meds.max()
            assert np.array_equal(build.tps.alpha, pool[build.tps.d_index])

    def test_select_breaks_ties_toward_first(self, small_table, small_params, monkeypatch):
        identity = np.ones(small_params.L_R, dtype=complex)
        monkeypatch.setattr(crps, "generate_tps", lambda *args: [identity, identity.copy()])
        builds = build_schemes(list(Scheme), small_table, design_channel=_design_channel(small_params))
        assert [b.tps.d_index for b in builds if b.tps is not None] == [0, 0, 0]

    def test_constructed_amplification_wins(self, small_table, small_params):
        # two codewords that differ only on rows 0 and 1: pushing power into
        # those rows grows their (single) pairwise distance, so the
        # non-identity candidate must be selected
        patterns = pair_patterns(small_table.carriers, small_params.M, small_table.derived.L_T)
        differing = patterns.patterns[patterns.index] != 0
        i, j = np.argwhere(np.all(differing == [True, True, False, False], axis=2))[0]
        identity = np.ones(4, dtype=complex)
        boosted = np.sqrt([1.5, 1.5, 0.5, 0.5]).astype(complex)
        meds = patterns.meds([identity, boosted], [[i, j]])[0]
        tps, best = crps._best([identity, boosted], meds)
        assert tps.d_index == 1
        assert best == pytest.approx(1.5 * meds[0], rel=1e-12)

    def test_pattern_scoring_is_exact(self, default_table, default_params):
        # the design without a channel scores 87,990 pairs through 57
        # patterns; the codeword matrices are the reference
        mats = codeword_matrices(default_table)
        pool = generate_tps(default_params.D, default_params.L_R, substream(1729, TAG_TPS))
        patterns = pair_patterns(default_table.carriers, default_params.M, default_table.derived.L_T)
        meds = patterns.meds(pool, [range(len(mats))])[0]
        assert np.allclose(meds, candidate_meds(pool, mats, [range(len(mats))])[0], rtol=0.0, atol=1e-9)
        assert meds[0] == 140 / 3

    def test_one_pair_or_one_candidate_is_scored_as_in_the_pool(self, small_table, small_params):
        # no BLAS product sums the pattern scores, so a candidate scored
        # alone, or a set of one pair, gets the bits it gets in the whole
        patterns = pair_patterns(small_table.carriers, small_params.M, small_table.derived.L_T)
        pool = generate_tps(6, small_params.L_R, np.random.default_rng(12))
        sets = [range(len(small_table)), [0, 5], [3, 17]]
        whole = patterns.meds(pool, sets)
        for d, alpha in enumerate(pool):
            assert np.array_equal(patterns.meds([alpha], sets)[:, 0], whole[:, d])
            dist = _pattern_matrix(patterns, alpha)
            assert whole[1, d] == dist[0, 5] and whole[2, d] == dist[3, 17]

    @pytest.mark.parametrize("block", [4, 5, 10, 20])
    @pytest.mark.parametrize("count", [1, 6])
    def test_one_pair_or_one_candidate_blocks_are_exact(
        self, block, count, small_table, small_params
    ):
        # member sets of `block` consecutive codewords (the last one ragged)
        # and a set of one pair: each set's pattern MED is the minimum of
        # its own pair distances, bit for bit, and agrees with the matrices
        patterns = pair_patterns(small_table.carriers, small_params.M, small_table.derived.L_T)
        mats = codeword_matrices(small_table)
        n = len(mats)
        sets = [range(s, min(s + block, n)) for s in range(0, n, block)] + [[n - 2, n - 1]]
        pool = generate_tps(count + 1, small_params.L_R, np.random.default_rng(12))[1:]
        meds = patterns.meds(pool, sets)
        for d, alpha in enumerate(pool):
            dist = _pattern_matrix(patterns, alpha)
            for s, ids in enumerate(sets):
                ids = np.asarray(ids)
                sub = dist[np.ix_(ids, ids)][np.triu_indices(ids.size, 1)]
                assert meds[s, d] == sub.min()
        assert np.allclose(meds, candidate_meds(pool, mats, sets), rtol=0.0, atol=1e-9)

    def test_scoring_memory_does_not_grow_with_pool(self, default_table, default_params):
        # the whole pairs x D product would take 87,990 x 400 x 8 B = 282 MB;
        # scoring the classes a block at a time stays far below
        classes = pair_classes(default_table.carriers, default_table.waveforms)
        pool = generate_tps(400, default_params.L_R, np.random.default_rng(13))
        maps = _maps(default_table, _design_channel(default_params), pool)
        n = len(default_table)
        pairs = n * (n - 1) // 2
        tracemalloc.start()
        try:
            classes.meds(maps, [range(n)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pairs * len(pool) * 8 // 8

    def test_member_sets_read_their_pairs_from_the_union(self, default_table, default_params):
        # a set scored beside others reads what it reads alone, bit for bit,
        # by pair patterns and through a channel by pair classes
        n_valid = 1 << default_table.derived.B
        patterns = pair_patterns(default_table.carriers, default_params.M, default_table.derived.L_T)
        rank, values = patterns.ranks(np.ones(default_params.L_R))
        pruned, _ = greedy_prune(rank, n_valid, values)
        sets = [np.arange(n_valid), np.asarray(pruned.member_ids), np.arange(len(default_table))]
        assert not np.array_equal(sets[0], sets[1])
        pool = generate_tps(
            default_params.D, default_params.L_R, substream(default_params.master_seed, TAG_TPS)
        )
        classes = pair_classes(default_table.carriers, default_table.waveforms)
        maps = _maps(default_table, _design_channel(default_params), pool)
        for score, factors in ((patterns.meds, pool), (classes.meds, maps)):
            together = score(factors, sets)
            for s, ids in enumerate(sets):
                assert np.array_equal(together[s], score(factors, [ids])[0])

    def test_rejects_degenerate_input(self, small_params):
        # a scenario of fewer than two valid codewords is refused through a
        # design channel too
        params = SystemParams(M=1, K=1, L_R=2, delta_f=4e6)
        table = build_table(params, derive(params))
        with pytest.raises(ValueError, match="fewer than two valid codewords"):
            build_scheme(Scheme.BASELINE, table, design_channel=np.ones((2, 2), dtype=complex))


class TestBuildScheme:
    def test_member_counts_and_provenance(self, small_table, small_derived):
        n_valid = 1 << small_derived.B
        expected = {
            Scheme.BASELINE: "baseline",
            Scheme.CODEBOOK_ONLY: "pruned",
            Scheme.CRPS_ONLY: "crps_only",
            Scheme.CODEBOOK_THEN_CRPS: "pruned_then_crps",
            Scheme.CRPS_THEN_CODEBOOK: "crps_then_pruned",
        }
        for scheme, provenance in expected.items():
            build = build_scheme(scheme, small_table)
            assert build.codebook.provenance == provenance
            assert len(build.codebook.member_ids) == n_valid

    def test_baseline_uses_first_ranks_unscaled(self, small_table, small_derived):
        build = build_scheme(Scheme.BASELINE, small_table)
        n_valid = 1 << small_derived.B
        assert build.codebook.member_ids == tuple(range(n_valid))
        assert build.tps is None

    @pytest.mark.parametrize("aware", [False, True], ids=["no_channel", "design_channel"])
    @pytest.mark.parametrize("table_name", ["default_table", "design_large_table"])
    def test_baseline_med_is_the_minimum_of_its_ranks(self, table_name, aware, request):
        # bit for bit the distance of the least rank among the first 2^B
        # codewords' pairs, whether the pass covers those alone or every codeword
        table = request.getfixturevalue(table_name)
        params, n_valid = table.params, 1 << table.derived.B
        h = _design_channel(params) if aware else None
        if aware:
            pairs = pair_classes(table.carriers[:n_valid], table.waveforms)
            ranks, values = pairs.ranks(h * table.coefficients())
        else:
            pairs = pair_patterns(table.carriers[:n_valid], params.M, table.derived.L_T)
            ranks, values = pairs.ranks(np.ones(params.L_R))
        expect, _ = med_of_submatrix(ranks, range(n_valid), values)
        for schemes in ([Scheme.BASELINE], list(Scheme)):
            (baseline, *_) = build_schemes(schemes, table, design_channel=h)
            assert repr(baseline.codebook.med) == repr(expect)

    def test_identity_selection_leaves_matrices_untouched(self, small_table):
        # without a design channel the identity wins (README "Known divergences")
        build = build_scheme(Scheme.CRPS_ONLY, small_table)
        assert build.tps.d_index == 0
        assert build.alpha is None

    def test_scaled_selection_scales_member_matrices(self, small_table, small_params):
        build = build_scheme(
            Scheme.CRPS_THEN_CODEBOOK, small_table, design_channel=_design_channel(small_params)
        )
        assert build.tps.d_index != 0
        assert build.alpha is build.tps.alpha

    def test_deterministic_rebuild(self, small_table):
        a = build_scheme(Scheme.CRPS_THEN_CODEBOOK, small_table)
        b = build_scheme(Scheme.CRPS_THEN_CODEBOOK, small_table)
        assert a.codebook == b.codebook
        assert a.tps.d_index == b.tps.d_index
        assert np.array_equal(a.tps.alpha, b.tps.alpha)

    def test_single_candidate_pool_collapses_to_non_crps(self, small_params):
        # with D = 1 only the identity factor exists, so every CRPS variant
        # must coincide with its non-CRPS counterpart bit for bit
        params = dataclasses.replace(small_params, D=1)
        table = build_table(params, derive(params))
        baseline = build_scheme(Scheme.BASELINE, table)
        pruned = build_scheme(Scheme.CODEBOOK_ONLY, table)
        crps_only = build_scheme(Scheme.CRPS_ONLY, table)
        cb_then = build_scheme(Scheme.CODEBOOK_THEN_CRPS, table)
        crps_then = build_scheme(Scheme.CRPS_THEN_CODEBOOK, table)

        # each CRPS build sends its twin's members unscaled
        assert crps_only.tps.d_index == 0
        assert crps_only.codebook.member_ids == baseline.codebook.member_ids
        assert cb_then.codebook.member_ids == pruned.codebook.member_ids
        assert crps_then.codebook.member_ids == pruned.codebook.member_ids
        assert crps_only.alpha is cb_then.alpha is crps_then.alpha is None

    def test_design_channel_changes_design_only(self, small_table, small_params):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        plain = build_scheme(Scheme.CODEBOOK_ONLY, small_table)
        aware = build_scheme(Scheme.CODEBOOK_ONLY, small_table, design_channel=h)
        # the channel reshuffles which pairs are closest, so the MED value
        # lives on a different scale; membership may or may not change, but
        # the build must stay well formed
        assert len(aware.codebook.member_ids) == len(plain.codebook.member_ids)
        dist = distance_matrix(codeword_matrices(small_table), channel=h)
        expect, _ = med_of_submatrix(dist, aware.codebook.member_ids)
        assert aware.codebook.med == pytest.approx(expect, rel=1e-12)

    def test_rejects_informationless_scenario(self):
        params = SystemParams(M=1, K=1, L_R=2, delta_f=4e6)
        table = build_table(params, derive(params))
        with pytest.raises(ValueError):
            build_scheme(Scheme.BASELINE, table)

    def test_refuses_oversized_design_up_front(self):
        # C_total = 369,600: the dense design would need terabytes.  The
        # table is a stub without carrier words, so nothing is allocated.
        params = SystemParams(M=12, K=3, L_R=9)
        stub = types.SimpleNamespace(params=params, derived=derive(params))
        assert design_bytes(1 << stub.derived.B, params) > DESIGN_BUDGET_BYTES
        for scheme in Scheme:
            with pytest.raises(ValueError, match=rf"{scheme.value} design needs about \d+\.\d GiB"):
                build_scheme(scheme, stub)
        # no scheme at all would still run the baseline's pass
        with pytest.raises(ValueError, match=r"baseline design needs about \d+\.\d GiB"):
            build_schemes([], stub)

    @pytest.mark.parametrize(
        "m,l_r", [(7, 6), (8, 8)], ids=["mc-default/channel-aware", "design-large"]
    )
    def test_benchmark_scenarios_fit_the_budget(self, m, l_r):
        params = SystemParams(M=m, L_R=l_r)
        build_table(params, derive(params))  # refused if over the budget
        # the pass over the full table is the largest any scheme runs
        assert design_bytes(derive(params).C_total, params) <= DESIGN_BUDGET_BYTES

    def test_scheme_enum_round_trip(self):
        assert Scheme("baseline") is Scheme.BASELINE
        assert Scheme("crps_then_codebook") is Scheme.CRPS_THEN_CODEBOOK
        with pytest.raises(ValueError):
            Scheme("not_a_scheme")


def _fingerprint(build):
    """Every field a design chooses, floats as their repr and bytes."""
    tps = build.tps
    return (
        build.scheme,
        build.codebook.member_ids,
        repr(build.codebook.med),
        build.codebook.provenance,
        None if tps is None else (tps.d_index, tps.alpha.tobytes()),
    )


class TestBuildSchemes:
    """The schemes of one pass against each scheme designed alone."""

    @pytest.mark.parametrize("aware", [False, True], ids=["no_channel", "design_channel"])
    @pytest.mark.parametrize("table_name", ["small_table", "default_table"])
    def test_one_pass_equals_one_scheme_calls(self, table_name, aware, request):
        table = request.getfixturevalue(table_name)
        h = _design_channel(table.params) if aware else None
        shared = build_schemes(list(Scheme), table, design_channel=h)
        alone = [build_scheme(scheme, table, design_channel=h) for scheme in Scheme]
        assert [_fingerprint(b) for b in shared] == [_fingerprint(b) for b in alone]
        if aware:
            # a scaled factor makes crps_then_codebook prune its own distances
            assert shared[-1].tps.d_index != 0

    def test_order_and_subsets_do_not_change_a_design(self, small_table, small_params):
        h = _design_channel(small_params)
        every = {b.scheme: _fingerprint(b) for b in build_schemes(list(Scheme), small_table, h)}
        for schemes in (list(Scheme)[::-1], [Scheme.CRPS_ONLY, Scheme.CODEBOOK_THEN_CRPS]):
            builds = build_schemes(schemes, small_table, design_channel=h)
            assert [_fingerprint(b) for b in builds] == [every[s] for s in schemes]

    def test_refuses_an_over_budget_scheme_before_any_work(self, default_table, monkeypatch):
        # the baseline's pass fits the budget and the baseline comes first;
        # codebook_only prunes the full table, which does not fit, so the
        # pass is refused in its name before any distance is computed
        params, derived = default_table.params, default_table.derived

        def refuse(*args, **kwargs):
            raise AssertionError("design work started before every budget was checked")

        for name in ("pair_patterns", "pair_classes", "greedy_prune"):
            monkeypatch.setattr(crps, name, refuse)
        for h in (None, _design_channel(params)):
            budget = design_bytes(1 << derived.B, params, channel=h is not None)
            monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", budget)
            with pytest.raises(ValueError, match=r"codebook_only design needs about \d+\.\d GiB"):
                build_schemes([Scheme.BASELINE, Scheme.CODEBOOK_ONLY], default_table, design_channel=h)

    def test_a_lowered_budget_refuses_the_design(self, default_table, monkeypatch):
        # the design reads the one budget the table and the Monte Carlo
        # read: a byte under its estimate refuses it, the estimate admits it
        params = default_table.params
        for h in (None, _design_channel(params)):
            need = design_bytes(len(default_table), params, channel=h is not None)
            monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", need - 1)
            with pytest.raises(ValueError, match=r"crps_then_codebook design needs about \d+\.\d GiB"):
                build_schemes([Scheme.CRPS_THEN_CODEBOOK], default_table, design_channel=h)
            monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", need)
            (build,) = build_schemes([Scheme.CRPS_THEN_CODEBOOK], default_table, design_channel=h)
            assert build.tps is not None

    def test_candidate_scoring_counts_toward_the_budget(self):
        # default table, 20,000 candidates: scoring them without a channel
        # peaks at 34.7 MiB, where the 24 n^2 bytes of the pairs alone
        # (4.0 MiB) were the whole estimate
        params = SystemParams(D=20_000)
        table = build_table(params, derive(params))
        tracemalloc.start()
        try:
            build_schemes([Scheme.CRPS_ONLY, Scheme.CRPS_THEN_CODEBOOK], table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 24 * len(table) ** 2 < peak < design_bytes(len(table), params)

    def test_the_pool_through_a_channel_counts_toward_the_budget(self, default_table):
        # 2,000 candidates mapped through the channel and their features
        # formed, as a design through one does: that alone peaks at 3.3 MiB,
        # which the per-class terms did not count
        params = dataclasses.replace(default_table.params, D=2000)
        h = _design_channel(params)
        block = 8 * crps._CLASS_BLOCK * (6 * params.L_R**2 + 2 * params.D)
        pool = design_bytes(0, params, channel=True) - block
        tracemalloc.start()
        try:
            candidates = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
            codebook._map_features([h * default_table.coefficients(alpha) for alpha in candidates])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= pool

    def test_each_path_has_its_own_budget(self, monkeypatch):
        # both paths peak at three n x n arrays of 8-byte entries, with one
        # block of patterns and the candidate pool, or one block of pair
        # classes through a channel, on top.  M=10, L_R=10
        # (11,340 codewords, 2.9 GiB) fits either way, and both stop at
        # their first step; M=11, L_R=10 (13,860) fits neither
        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started

        for name in ("pair_patterns", "pair_classes"):
            monkeypatch.setattr(crps, name, start)
        for m, started in ((10, True), (11, False)):
            params = SystemParams(M=m, L_R=10)
            table, h = build_table(params, derive(params)), _design_channel(params)
            for n in (1 << table.derived.B, len(table)):
                plain, aware = design_bytes(n, params), design_bytes(n, params, channel=True)
                square = 8 * 3 * n * n
                assert plain - square == 8 * (4 * crps._CLASS_BLOCK + 6 * 10 + 16) * params.D
                pool = 4 * (params.L_C + 10) * 10 + 10 + 32
                assert aware - square == 8 * (crps._CLASS_BLOCK * (6 * 10**2 + 2 * params.D) + pool * params.D)
            for channel in (None, h):
                if started:
                    with pytest.raises(Started):
                        build_schemes([Scheme.CODEBOOK_ONLY], table, design_channel=channel)
                else:
                    with pytest.raises(ValueError, match=r"codebook_only design needs about 4\.3 GiB"):
                        build_schemes([Scheme.CODEBOOK_ONLY], table, design_channel=channel)

    def test_design_through_a_channel_classes_the_pairs_once(self, default_table, monkeypatch):
        # one pair-class pass over the full table serves every stage
        calls = []
        original_classes = crps.pair_classes

        def classes(carriers, waveforms):
            calls.append(len(carriers))
            return original_classes(carriers, waveforms)

        monkeypatch.setattr(crps, "pair_classes", classes)
        build_schemes(list(Scheme), default_table, design_channel=_design_channel(default_table.params))
        assert calls == [len(default_table)]

    def test_reported_meds_match_distance_matrix(self, default_table):
        # without a design channel the design measures distances from the
        # carrier words; on the default scenario they are exact rationals
        builds = build_schemes(list(Scheme), default_table)
        n_valid = 1 << default_table.derived.B
        for build in builds:
            expect, _ = med_of_submatrix(distance_matrix(member_matrices(build)), range(n_valid))
            assert build.codebook.med == pytest.approx(expect, rel=0.0, abs=1e-9)
        assert builds[0].codebook.med == 140 / 3  # 2 rows x 2 (L_T - 1) / L_R

    def test_design_without_a_channel_holds_no_float_square(self, design_large_table):
        # pair codes, pattern index, ranks and the pruning copy are small
        # unsigned integers: all five schemes peak below one n x n float64
        # (29.3 MiB), where float distances and their pruning copy took 62.6
        n = len(design_large_table)
        tracemalloc.start()
        try:
            build_schemes(list(Scheme), design_large_table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_design_stays_within_its_budget(self, scheme, design_large_table, default_table):
        # each path against its own estimate; through a design channel the
        # codeword arrays are a large share of the peak on the default
        # table, so that path is measured there
        for table, h in (
            (design_large_table, None),
            (default_table, _design_channel(default_table.params)),
        ):
            tracemalloc.start()
            try:
                build_schemes([scheme], table, design_channel=h)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the baseline and crps_only work on the 2^B members, the others on the full table
            n = 1 << table.derived.B if scheme in (Scheme.BASELINE, Scheme.CRPS_ONLY) else len(table)
            assert peak < design_bytes(n, table.params, channel=h is not None)


class TestShortlist:
    """Through a design channel: the whole pool scored by pair classes, against the matrices."""

    @pytest.mark.parametrize("seed", [1729, 2718, 4242, 7, 31337])
    @pytest.mark.parametrize("table_name", ["small_table", "default_table"])
    def test_selects_as_exact_scoring_of_the_pool(self, table_name, seed, request):
        table = request.getfixturevalue(table_name)
        table = dataclasses.replace(table, params=dataclasses.replace(table.params, master_seed=seed))
        params, n = table.params, len(table)
        h = _design_channel(params)
        builds = build_schemes(list(Scheme), table, design_channel=h)
        # the reference scores every candidate on the codeword matrices
        mats = codeword_matrices(table)
        pool = generate_tps(params.D, params.L_R, substream(seed, TAG_TPS))
        sets = list(dict.fromkeys(b.codebook.member_ids for b in builds[2:4])) + [tuple(range(n))]
        exact = candidate_meds(pool, mats, sets, channel=h)
        picked = {ids: crps._best(pool, meds) for ids, meds in zip(sets, exact)}
        for build in builds[2:4]:  # crps_only, codebook_then_crps
            tps, best = picked[build.codebook.member_ids]
            assert build.tps.d_index == tps.d_index
            assert build.codebook.med == pytest.approx(best, rel=1e-12)
        tps, _ = picked[sets[-1]]
        before = builds[4]  # crps_then_codebook
        assert before.tps.d_index == tps.d_index
        # pruned under the selected factor's class distances, whose MED
        # the matrices confirm
        rank, values = pair_classes(table.carriers, table.waveforms).ranks(h * table.coefficients(tps.alpha))
        pruned, _ = greedy_prune(rank, 1 << table.derived.B, values)
        assert (before.codebook.member_ids, before.codebook.med) == (pruned.member_ids, pruned.med)
        dist = distance_matrix(mats * tps.alpha[:, None], channel=h)
        assert pruned.med == pytest.approx(med_of_submatrix(dist, pruned.member_ids)[0], rel=1e-12)
        # the class scores sit within 1e-12 of the exact ones, relative to a
        # set's best
        classes = pair_classes(table.carriers, table.waveforms)
        gap = np.abs(classes.meds(_maps(table, h, pool), sets) - exact).max(axis=1) / exact.max(axis=1)
        assert np.all(gap <= 1e-12)

    @pytest.mark.parametrize("seed", [1729, 2718, 4242, 7, 31337])
    def test_own_shortlists_select_as_the_union(self, seed, default_table):
        # each member set scored on its own selects the factor and reports
        # the MED that scoring every set together does, for the five
        # schemes together and alone
        table = dataclasses.replace(
            default_table, params=dataclasses.replace(default_table.params, master_seed=seed)
        )
        params, every = table.params, tuple(range(len(table)))
        h = _design_channel(params)
        pool = generate_tps(params.D, params.L_R, substream(seed, TAG_TPS))
        classes = pair_classes(table.carriers, table.waveforms)
        maps = _maps(table, h, pool)
        together = build_schemes(list(Scheme), table, design_channel=h)
        alone = [build_scheme(scheme, table, design_channel=h) for scheme in Scheme]
        for builds in (together, alone):
            scaled = [b for b in builds if b.tps is not None]
            sets = [every if b.scheme is Scheme.CRPS_THEN_CODEBOOK else b.codebook.member_ids for b in scaled]
            union = dict(zip(sets, classes.meds(maps, list(dict.fromkeys(sets)))))
            assert len(scaled) == 3
            for build, ids in zip(scaled, sets):
                tps, best = crps._best(pool, union[ids])
                assert build.tps.d_index == tps.d_index
                if build.scheme is not Scheme.CRPS_THEN_CODEBOOK:
                    assert repr(build.codebook.med) == repr(best)

    @pytest.mark.parametrize("table_name", ["small_table", "default_table"])
    def test_ties_go_to_the_smallest_index(self, table_name, request, monkeypatch):
        # the identity repeated at index 1 and each selected candidate again
        # at the end: each tie of two bit-equal scores is won by the first
        table = request.getfixturevalue(table_name)
        h = _design_channel(table.params)
        plain = build_schemes(list(Scheme), table, design_channel=h)
        pool = generate_tps(table.params.D, table.params.L_R, substream(table.params.master_seed, TAG_TPS))
        chosen = [b.tps.d_index for b in plain if b.tps is not None]
        tied = [pool[0], pool[0].copy(), *pool[1:], *(pool[d].copy() for d in chosen)]
        monkeypatch.setattr(crps, "generate_tps", lambda *args: tied)
        builds = build_schemes(list(Scheme), table, design_channel=h)
        for build, alone in zip(builds, plain):
            expect = _fingerprint(alone)
            if alone.tps is not None and alone.tps.d_index:
                expect = (*expect[:-1], (alone.tps.d_index + 1, alone.tps.alpha.tobytes()))
            assert _fingerprint(build) == expect

    def test_distances_through_a_channel_are_kept(self, small_table, default_table):
        # each pair's class distance under a row map is its codewords'
        # distance through the channel, scaled or not
        for table in (small_table, default_table):
            h = _design_channel(table.params)
            ids = range(len(table))
            classes = pair_classes(table.carriers, table.waveforms)
            alpha = generate_tps(2, table.params.L_R, np.random.default_rng(14))[1]
            for factor in (np.ones(table.params.L_R), alpha):
                exact = distance_matrix(codeword_matrices(table, ids, factor), channel=h)
                features = codebook._map_features([h * table.coefficients(factor)])
                dist = classes._distances(features, slice(None))[classes.index, 0]
                off = ~np.eye(len(ids), dtype=bool)
                np.testing.assert_allclose(dist[off], exact[off], rtol=1e-12, atol=0)
                assert np.all(np.diag(dist) == 0.0)


class TestIdentityArgument:
    """README "Known divergences": why the identity factor wins without a channel.

    Every minimum-distance pair of the baseline set and of the full table
    differs in exactly two antenna rows, and every row pair hosts one, so
    a power-normalized factor cannot raise the MED above the identity's.
    """

    @pytest.fixture(params=["default", "design-large"])
    def table(self, request, default_table, design_large_table):
        return default_table if request.param == "default" else design_large_table

    def test_minimum_distance_pairs_cover_every_row_pair_in_two_rows(self, table):
        patterns = pair_patterns(table.carriers, table.params.M, table.derived.L_T)
        l_r = table.params.L_R
        for n in (1 << table.derived.B, len(table)):
            used = np.unique(patterns.index[:n, :n][np.triu_indices(n, 1)])
            dist = patterns.distances(np.ones(l_r))[used, 0]
            differing = patterns.patterns[used[dist == dist.min()]] != 0
            assert np.all(differing.sum(axis=1) == 2)
            hosted = {tuple(np.flatnonzero(rows)) for rows in differing}
            assert hosted == set(itertools.combinations(range(l_r), 2))

    def test_identity_has_the_largest_med_of_the_pool(self, table):
        params = table.params
        patterns = pair_patterns(table.carriers, params.M, table.derived.L_T)
        pool = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
        for meds in patterns.meds(pool, [range(1 << table.derived.B), range(len(table))]):
            assert meds[0] == meds.max()


def _design_channel(params):
    return draw_channel(params.L_C, params.L_R, substream(params.master_seed, TAG_DESIGN_CHANNEL))


def _stages(table, h):
    """A design's two distance stages, run by hand over ``table``.

    ``matrix(alpha)`` is every pair's distance under a factor, and
    ``select(pool, ids)`` the selected candidate index and its MED over a
    member set: from the pair classes through a design channel, and from
    the pair patterns without one.
    """
    if h is not None:
        classes = pair_classes(table.carriers, table.waveforms)

        def matrix(alpha):
            rank, values = classes.ranks(h * table.coefficients(alpha))
            return values[rank]

        def meds(pool, ids):
            return classes.meds(_maps(table, h, pool), [ids])[0]
    else:
        patterns = pair_patterns(table.carriers, table.params.M, table.derived.L_T)

        def matrix(alpha):
            return _pattern_matrix(patterns, alpha)

        def meds(pool, ids):
            return patterns.meds(pool, [ids])[0]

    def select(pool, ids):
        scores = meds(pool, ids)
        best = int(np.argmax(scores))
        return best, float(scores[best])

    return matrix, select


class TestRecipes:
    """Each scheme against its two stages, run here by hand."""

    # schemes whose member set is another scheme's, pre-scaling only after it
    SAME_MEMBERS = {Scheme.CRPS_ONLY: Scheme.BASELINE, Scheme.CODEBOOK_THEN_CRPS: Scheme.CODEBOOK_ONLY}

    @pytest.mark.parametrize("aware", [False, True], ids=["no_channel", "design_channel"])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_scheme_matches_its_stages(self, scheme, aware, small_table, small_params):
        h = _design_channel(small_params) if aware else None
        n_valid = 1 << small_table.derived.B
        build = build_scheme(scheme, small_table, design_channel=h)
        # a build holds what its design chose, and no matrix
        assert not any(isinstance(getattr(build, f.name), np.ndarray) for f in dataclasses.fields(build))
        ids = np.asarray(build.codebook.member_ids)
        pool = generate_tps(small_params.D, small_params.L_R, substream(small_params.master_seed, TAG_TPS))
        matrix, select = _stages(small_table, h)

        if scheme in self.SAME_MEMBERS:
            twin = build_scheme(self.SAME_MEMBERS[scheme], small_table, design_channel=h)
            assert build.codebook.member_ids == twin.codebook.member_ids
            assert (build.tps.d_index, build.codebook.med) == select(pool, ids)
        elif scheme is Scheme.CRPS_THEN_CODEBOOK:
            d_index, _ = select(pool, np.arange(len(small_table)))
            assert build.tps.d_index == d_index
            dist = matrix(pool[d_index])
            pruned, _ = greedy_prune(dist, n_valid)
            assert build.codebook.member_ids == pruned.member_ids
            assert build.codebook.med == med_of_submatrix(dist, pruned.member_ids)[0]
        else:
            assert build.tps is None
            assert build.codebook.med == med_of_submatrix(matrix(pool[0]), ids)[0]
        # whichever path designed it, the MED is the one the matrices it sends have
        dist = distance_matrix(member_matrices(build), channel=h)
        expect, _ = med_of_submatrix(dist, range(n_valid))
        assert build.codebook.med == pytest.approx(expect, rel=0.0, abs=1e-9)

        if build.tps is None or build.tps.d_index == 0:
            assert build.alpha is None
        else:
            assert build.alpha is build.tps.alpha
            assert np.array_equal(build.tps.alpha, pool[build.tps.d_index])

    def test_design_channel_selects_a_scaled_factor(self, small_table, small_params):
        # without this the scaled branch of every recipe above could go unrun
        build = build_scheme(
            Scheme.CRPS_THEN_CODEBOOK, small_table, design_channel=_design_channel(small_params)
        )
        assert build.tps.d_index != 0
