"""Pre-scaling pool generation, candidate scoring, and scheme assembly tests."""

import dataclasses
import itertools
import tracemalloc
import types

import numpy as np
import pytest

from imjrc import crps
from imjrc.channel import TAG_DESIGN_CHANNEL, TAG_TPS, draw_channel, substream
from imjrc.codebook import distance_matrix, greedy_prune, med, pair_classes, pair_patterns
from imjrc.crps import (
    DESIGN_BUDGET_BYTES,
    Scheme,
    apply_tps,
    build_scheme,
    build_schemes,
    candidate_meds,
    design_bytes,
    generate_tps,
    select_tps,
)
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive
from oracles import tps_pool, union_shortlist_meds


def _random_mats(rng, n, l_r, l_t):
    return rng.standard_normal((n, l_r, l_t)) + 1j * rng.standard_normal((n, l_r, l_t))


def _meds(pool, mats, channel=None):
    """Candidate MEDs of one member set: every row of ``mats``."""
    return candidate_meds(pool, mats, [np.arange(len(mats))], channel=channel)[0]


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
    def test_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        mats = _random_mats(rng, 3, 4, 5)
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        scaled = apply_tps(mats, alpha)
        for n in range(3):
            for l in range(4):
                assert np.allclose(scaled[n, l], alpha[l] * mats[n, l], rtol=1e-15)

    def test_single_matrix_broadcast(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((4, 5)) + 0j
        alpha = np.arange(1, 5).astype(complex)
        assert np.array_equal(apply_tps(mat, alpha), mat * alpha[:, None])

    def test_codeword_energy_preserved(self, small_table, small_derived):
        # rows of a synthesized codeword carry equal energy, so any
        # power-normalized factor keeps the Frobenius norm at L_T
        pool = generate_tps(6, 4, np.random.default_rng(4))
        for alpha in pool:
            scaled = apply_tps(small_table.codewords(range(len(small_table))), alpha)
            norms = np.einsum("nrt,nrt->n", scaled, scaled.conj()).real
            assert np.allclose(norms, small_derived.L_T, rtol=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_tps(np.zeros((2, 3, 4), dtype=complex), np.ones(5, dtype=complex))


class TestCandidateScoring:
    def test_matches_full_reevaluation(self):
        rng = np.random.default_rng(5)
        mats = _random_mats(rng, 5, 4, 6)
        pool = generate_tps(6, 4, rng)
        meds = _meds(pool, mats)
        for d, alpha in enumerate(pool):
            dist = distance_matrix(apply_tps(mats, alpha))
            expect, _ = med(dist, range(5))
            assert meds[d] == pytest.approx(expect, rel=1e-9)

    def test_channel_path_matches_reevaluation(self):
        rng = np.random.default_rng(6)
        mats = _random_mats(rng, 4, 3, 5)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        pool = generate_tps(5, 3, rng)
        meds = _meds(pool, mats, channel=h)
        for d, alpha in enumerate(pool):
            dist = distance_matrix(apply_tps(mats, alpha), channel=h)
            expect, _ = med(dist, range(4))
            assert meds[d] == pytest.approx(expect, rel=1e-9)

    def test_channel_path_is_bit_equal_to_med(
        self, small_table, small_params, default_table, default_params
    ):
        # scoring runs in reused buffers and takes the minimum of the upper
        # triangle; it must give med()'s value exactly, with or without a
        # channel, or the selected factor could move.  The full default
        # table (420 codewords) is what crps_then_codebook scores.
        small_members = small_table.codewords(range(1 << small_table.derived.B))
        for mats, params, seed in (
            (small_members, small_params, 3),
            (default_table.codewords(range(len(default_table))), default_params, 1729),
        ):
            pool = generate_tps(params.D, params.L_R, substream(seed, TAG_TPS))
            for h in (None, draw_channel(params.L_C, params.L_R, substream(seed, TAG_DESIGN_CHANNEL))):
                meds = _meds(pool, mats, channel=h)
                expect = [
                    med(distance_matrix(apply_tps(mats, alpha), channel=h), range(mats.shape[0]))[0]
                    for alpha in pool
                ]
                assert meds.tolist() == expect

    def test_select_never_below_identity(self):
        rng = np.random.default_rng(7)
        mats = _random_mats(rng, 6, 4, 5)
        pool = generate_tps(20, 4, rng)
        tps, best = select_tps(pool, mats)
        meds = _meds(pool, mats)
        assert best >= meds[0]
        assert best == pytest.approx(meds.max(), rel=1e-12)
        assert np.array_equal(tps.alpha, pool[tps.d_index])

    def test_select_breaks_ties_toward_first(self):
        rng = np.random.default_rng(8)
        mats = _random_mats(rng, 4, 3, 5)
        identity = np.ones(3, dtype=complex)
        tps, _ = select_tps([identity, identity.copy()], mats)
        assert tps.d_index == 0

    def test_constructed_amplification_wins(self):
        # two members that differ only on row 0: pushing power into that
        # row grows the (single) pairwise distance, so the non-identity
        # candidate must be selected
        rng = np.random.default_rng(9)
        base = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        other = base.copy()
        other[0] = base[0] + (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        mats = np.stack([base, other])
        boosted = np.array([np.sqrt(2.0), np.sqrt(0.5), np.sqrt(0.5)], dtype=complex)
        identity = np.ones(3, dtype=complex)
        tps, best = select_tps([identity, boosted], mats)
        meds = _meds([identity], mats)
        assert tps.d_index == 1
        assert best == pytest.approx(2.0 * meds[0], rel=1e-9)

    def test_pattern_scoring_is_exact(self, default_table, default_params):
        # the design without a channel scores 87,990 pairs through 57
        # patterns; the Gram loop is the reference
        mats = default_table.codewords(range(len(default_table)))
        pool = generate_tps(default_params.D, default_params.L_R, substream(1729, TAG_TPS))
        patterns = pair_patterns(default_table.carriers, default_params.M, default_table.derived.L_T)
        meds = patterns.meds(pool, [range(len(mats))])[0]
        assert np.allclose(meds, _meds(pool, mats), rtol=0.0, atol=1e-9)
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
            dist = patterns.matrix(alpha)
            assert whole[1, d] == dist[0, 5] and whole[2, d] == dist[3, 17]

    @pytest.mark.parametrize("block", [4, 5, 10, 20])
    @pytest.mark.parametrize("count", [1, 6])
    def test_one_pair_or_one_candidate_blocks_are_exact(
        self, block, count, small_table, small_params
    ):
        # member sets of `block` consecutive codewords (the last one ragged)
        # and a set of one pair: each set's pattern MED is the minimum of
        # its own pair distances, bit for bit, and agrees with the Gram loop
        patterns = pair_patterns(small_table.carriers, small_params.M, small_table.derived.L_T)
        mats = small_table.codewords(range(len(small_table)))
        n = len(mats)
        sets = [range(s, min(s + block, n)) for s in range(0, n, block)] + [[n - 2, n - 1]]
        pool = generate_tps(count + 1, small_params.L_R, np.random.default_rng(12))[1:]
        meds = patterns.meds(pool, sets)
        for d, alpha in enumerate(pool):
            dist = patterns.matrix(alpha)
            for s, ids in enumerate(sets):
                ids = np.asarray(ids)
                sub = dist[np.ix_(ids, ids)][np.triu_indices(ids.size, 1)]
                assert meds[s, d] == sub.min()
        assert np.allclose(meds, candidate_meds(pool, mats, sets), rtol=0.0, atol=1e-9)

    def test_scoring_memory_does_not_grow_with_pool(self, default_table, default_params):
        # the whole pairs x D product would take 87,990 x 400 x 8 B = 282 MB;
        # scoring one candidate at a time in reused buffers stays far below
        mats = default_table.codewords(range(len(default_table)))
        pool = generate_tps(400, default_params.L_R, np.random.default_rng(13))
        pairs = mats.shape[0] * (mats.shape[0] - 1) // 2
        tracemalloc.start()
        try:
            _meds(pool, mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pairs * len(pool) * 8 // 8

    def test_member_sets_read_their_pairs_from_the_union(self, default_table, default_params):
        # candidate_meds scores each member set on its own rows, so a set
        # scored beside others reads what it reads alone, bit for bit, also
        # when the BLAS rounds a Gram entry by which other rows are in the
        # product (as OpenBLAS does with one thread)
        full = default_table.codewords(range(len(default_table)))
        n_valid = 1 << default_table.derived.B
        dist0 = distance_matrix(full)
        pruned, _ = greedy_prune(dist0, n_valid)
        sets = [np.arange(n_valid), np.asarray(pruned.member_ids)]
        assert not np.array_equal(sets[0], sets[1])
        h = _design_channel(default_params)
        pool = generate_tps(
            default_params.D, default_params.L_R, substream(default_params.master_seed, TAG_TPS)
        )
        plain = candidate_meds(pool, full, sets)
        through_h = candidate_meds(pool, full, sets, channel=h)
        for s, ids in enumerate(sets):
            alone = full[ids]
            assert np.array_equal(dist0[np.ix_(ids, ids)], distance_matrix(alone))
            assert np.array_equal(plain[s], _meds(pool, alone))
            assert np.array_equal(through_h[s], _meds(pool, alone, channel=h))

    def test_rejects_degenerate_input(self):
        rng = np.random.default_rng(10)
        mats = _random_mats(rng, 3, 2, 4)
        with pytest.raises(ValueError):
            candidate_meds([], mats, [range(3)])
        with pytest.raises(ValueError):
            candidate_meds([np.ones(2, dtype=complex)], mats, [range(3), [1]])


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
            assert build.member_matrices.shape[0] == n_valid

    def test_baseline_uses_first_ranks_unscaled(self, small_table, small_derived):
        build = build_scheme(Scheme.BASELINE, small_table)
        n_valid = 1 << small_derived.B
        assert build.codebook.member_ids == tuple(range(n_valid))
        assert build.tps is None
        assert np.array_equal(build.member_matrices, small_table.codewords(range(n_valid)))

    def test_identity_selection_leaves_matrices_untouched(self, small_table):
        # without a design channel the identity wins (README "Known divergences")
        build = build_scheme(Scheme.CRPS_ONLY, small_table)
        n = build.member_matrices.shape[0]
        assert build.tps.d_index == 0
        assert np.array_equal(build.member_matrices, small_table.codewords(range(n)))

    def test_scaled_selection_scales_member_matrices(self, small_table, small_params):
        build = build_scheme(
            Scheme.CRPS_THEN_CODEBOOK, small_table, design_channel=_design_channel(small_params)
        )
        assert build.tps.d_index != 0
        rows = small_table.codewords(np.asarray(build.codebook.member_ids))
        assert np.array_equal(build.member_matrices, apply_tps(rows, build.tps.alpha))

    def test_deterministic_rebuild(self, small_table):
        a = build_scheme(Scheme.CRPS_THEN_CODEBOOK, small_table)
        b = build_scheme(Scheme.CRPS_THEN_CODEBOOK, small_table)
        assert a.codebook == b.codebook
        assert a.tps.d_index == b.tps.d_index
        assert np.array_equal(a.tps.alpha, b.tps.alpha)
        assert np.array_equal(a.member_matrices, b.member_matrices)

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

        assert crps_only.tps.d_index == 0
        assert crps_only.codebook.member_ids == baseline.codebook.member_ids
        assert np.array_equal(crps_only.member_matrices, baseline.member_matrices)

        assert cb_then.codebook.member_ids == pruned.codebook.member_ids
        assert np.array_equal(cb_then.member_matrices, pruned.member_matrices)

        assert crps_then.codebook.member_ids == pruned.codebook.member_ids
        assert np.array_equal(crps_then.member_matrices, pruned.member_matrices)

    def test_design_channel_changes_design_only(self, small_table, small_params):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        plain = build_scheme(Scheme.CODEBOOK_ONLY, small_table)
        aware = build_scheme(Scheme.CODEBOOK_ONLY, small_table, design_channel=h)
        # the channel reshuffles which pairs are closest, so the MED value
        # lives on a different scale; membership may or may not change, but
        # the build must stay well formed
        assert len(aware.codebook.member_ids) == len(plain.codebook.member_ids)
        dist = distance_matrix(small_table.codewords(range(len(small_table))), channel=h)
        expect, _ = med(dist, aware.codebook.member_ids)
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
        for scheme in Scheme:
            assert design_bytes(scheme, params, stub.derived) > DESIGN_BUDGET_BYTES
            with pytest.raises(ValueError, match=r"needs about \d+\.\d GiB"):
                build_scheme(scheme, stub)

    @pytest.mark.parametrize(
        "m,l_r", [(7, 6), (8, 8)], ids=["mc-default/channel-aware", "design-large"]
    )
    def test_benchmark_scenarios_fit_the_budget(self, m, l_r):
        params = SystemParams(M=m, L_R=l_r)
        build_table(params, derive(params))  # refused if over the budget
        for scheme in Scheme:
            assert design_bytes(scheme, params, derive(params)) <= DESIGN_BUDGET_BYTES

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
        # the baseline fits this budget and comes first; codebook_only does
        # not, and is refused before any distance is computed
        params, derived = default_table.params, default_table.derived
        budget = design_bytes(Scheme.BASELINE, params, derived)
        monkeypatch.setattr(crps, "DESIGN_BUDGET_BYTES", budget)

        def refuse(*args, **kwargs):
            raise AssertionError("design work started before every budget was checked")

        for name in ("pair_patterns", "distance_matrix", "candidate_meds", "greedy_prune"):
            monkeypatch.setattr(crps, name, refuse)
        with pytest.raises(ValueError, match=r"codebook_only design needs about \d+\.\d GiB"):
            build_schemes([Scheme.BASELINE, Scheme.CODEBOOK_ONLY], default_table)

    def test_each_path_has_its_own_budget(self, monkeypatch):
        # M=10, L_R=10 (11,340 codewords): pruning from the carrier words
        # fits the budget, but the codeword arrays of a design through a
        # channel do not; the design without one stops at its first step
        params = SystemParams(M=10, L_R=10)
        table = build_table(params, derive(params))

        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started

        for name in ("pair_patterns", "distance_matrix"):
            monkeypatch.setattr(crps, name, start)
        with pytest.raises(Started):
            build_schemes([Scheme.CODEBOOK_ONLY], table)
        with pytest.raises(ValueError, match=r"codebook_only design needs about 4\.3 GiB"):
            build_schemes([Scheme.CODEBOOK_ONLY], table, design_channel=_design_channel(params))

    def test_reported_meds_match_distance_matrix(self, default_table):
        # without a design channel the design measures distances from the
        # carrier words; on the default scenario they are exact rationals
        builds = build_schemes(list(Scheme), default_table)
        n_valid = 1 << default_table.derived.B
        for build in builds:
            expect, _ = med(distance_matrix(build.member_matrices), range(n_valid))
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
            assert peak < design_bytes(scheme, table.params, table.derived, channel=h is not None)


class TestShortlist:
    """Through a design channel: the pool scored by pair classes, the near-best exactly."""

    @pytest.mark.parametrize("seed", [1729, 2718, 4242, 7, 31337])
    @pytest.mark.parametrize("table_name", ["small_table", "default_table"])
    def test_selects_as_exact_scoring_of_the_pool(self, table_name, seed, request):
        table = request.getfixturevalue(table_name)
        table = dataclasses.replace(table, params=dataclasses.replace(table.params, master_seed=seed))
        params, n = table.params, len(table)
        h = _design_channel(params)
        builds = build_schemes(list(Scheme), table, design_channel=h)
        # the reference scores every candidate on the codeword matrices
        mats = table.codewords(range(n))
        pool = generate_tps(params.D, params.L_R, substream(seed, TAG_TPS))
        sets = list(dict.fromkeys(b.codebook.member_ids for b in builds[2:4])) + [tuple(range(n))]
        exact = candidate_meds(pool, mats, sets, channel=h)
        picked = {ids: crps._best(pool, meds) for ids, meds in zip(sets, exact)}
        for build in builds[2:4]:  # crps_only, codebook_then_crps
            tps, best = picked[build.codebook.member_ids]
            assert (build.tps.d_index, build.codebook.med) == (tps.d_index, best)
        tps, _ = picked[sets[-1]]
        before = builds[4]  # crps_then_codebook
        assert before.tps.d_index == tps.d_index
        pruned, _ = greedy_prune(distance_matrix(apply_tps(mats, tps.alpha), channel=h), 1 << table.derived.B)
        assert (before.codebook.member_ids, before.codebook.med) == (pruned.member_ids, pruned.med)
        # the shortlist needs the rough scores within SHORTLIST_RTOL / 2 of
        # the exact ones, relative to a set's best; they sit 1000x closer
        classes = pair_classes(table.carriers, table.waveforms)
        rough = classes.meds([h * table.coefficients(alpha) for alpha in pool], sets)
        gap = np.abs(rough - exact).max(axis=1) / exact.max(axis=1)
        assert np.all(gap * 1000 <= crps.SHORTLIST_RTOL)

    @pytest.mark.parametrize("seed", [1729, 2718, 4242, 7, 31337])
    def test_own_shortlists_select_as_the_union(self, seed, default_table):
        # each set rescored on its own shortlist, or not at all, selects the
        # factor and reports the MED that rescoring every set on the union
        # of the shortlists does, for the five schemes together and alone
        table = dataclasses.replace(
            default_table, params=dataclasses.replace(default_table.params, master_seed=seed)
        )
        params, every = table.params, tuple(range(len(table)))
        h = _design_channel(params)
        mats = table.codewords(every)
        pool = generate_tps(params.D, params.L_R, substream(seed, TAG_TPS))
        classes = pair_classes(table.carriers, table.waveforms)
        maps = [h * table.coefficients(alpha) for alpha in pool]
        together = build_schemes(list(Scheme), table, design_channel=h)
        alone = [build_scheme(scheme, table, design_channel=h) for scheme in Scheme]
        for builds, grouped in ((together, True), (alone, False)):
            scaled = [b for b in builds if b.tps is not None]
            sets = [every if b.scheme is Scheme.CRPS_THEN_CODEBOOK else b.codebook.member_ids for b in scaled]
            picked = {}
            for group in [list(dict.fromkeys(sets))] if grouped else [[ids] for ids in sets]:
                union = union_shortlist_meds(
                    classes.meds(maps, group), pool, mats, group, h, crps.SHORTLIST_RTOL
                )
                picked.update((ids, crps._best(pool, meds)) for ids, meds in zip(group, union))
            assert len(scaled) == 3
            for build, ids in zip(scaled, sets):
                tps, best = picked[ids]
                assert build.tps.d_index == tps.d_index
                if build.scheme is not Scheme.CRPS_THEN_CODEBOOK:
                    assert repr(build.codebook.med) == repr(best)

    def test_a_reported_full_table_med_is_rescored(self, monkeypatch):
        # with no eliminations the full table is also crps_only's member
        # set: its MED is reported, so it is rescored on the matrices even
        # when crps_then_codebook selects over it too
        params = SystemParams(M=8, K=1, L_R=4, L_C=2, D=16, master_seed=5)
        table = build_table(params, derive(params))
        assert table.derived.Q == 0
        h = _design_channel(params)
        pool = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
        mats = table.codewords(range(len(table)))
        tps, best = crps._best(pool, candidate_meds(pool, mats, [range(len(table))], channel=h)[0])
        scored = []

        def scoring(candidates, *args, **kwargs):
            scored.append(len(candidates))
            return candidate_meds(candidates, *args, **kwargs)

        monkeypatch.setattr(crps, "candidate_meds", scoring)
        both = [Scheme.CRPS_THEN_CODEBOOK, Scheme.CRPS_ONLY]
        for schemes in (both, both[::-1]):
            scored.clear()
            builds = {b.scheme: b for b in build_schemes(schemes, table, design_channel=h)}
            assert len(scored) == 1
            only = builds[Scheme.CRPS_ONLY]
            assert (only.tps.d_index, repr(only.codebook.med)) == (tps.d_index, repr(best))
            assert builds[Scheme.CRPS_THEN_CODEBOOK].tps.d_index == tps.d_index

    @pytest.mark.parametrize("table_name", ["small_table", "default_table"])
    def test_ties_go_to_the_smallest_index(self, table_name, request, monkeypatch):
        # the identity repeated at index 1 and each selected candidate again
        # at the end: shortlists of two bit-equal scores, won by the first
        table = request.getfixturevalue(table_name)
        h = _design_channel(table.params)
        plain = build_schemes(list(Scheme), table, design_channel=h)
        pool = generate_tps(table.params.D, table.params.L_R, substream(table.params.master_seed, TAG_TPS))
        chosen = [b.tps.d_index for b in plain if b.tps is not None]
        tied = [pool[0], pool[0].copy(), *pool[1:], *(pool[d].copy() for d in chosen)]
        scored = []

        def scoring(candidates, *args, **kwargs):
            scored.append(len(candidates))
            return candidate_meds(candidates, *args, **kwargs)

        monkeypatch.setattr(crps, "generate_tps", lambda *args: tied)
        monkeypatch.setattr(crps, "candidate_meds", scoring)
        builds = build_schemes(list(Scheme), table, design_channel=h)
        # the pool is ranked by pair classes: each of the three member sets
        # is rescored here on its own shortlist, which the ties make two long
        assert len(scored) == 3 and min(scored) >= 2
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
                exact = distance_matrix(apply_tps(table.codewords(ids), factor), channel=h)
                dist = classes.distances([h * table.coefficients(factor)])[classes.index, 0]
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
    member set: through the codeword matrices with a design channel, and
    from the carrier words without one.
    """
    if h is not None:

        def matrix(alpha):
            return distance_matrix(apply_tps(table.codewords(range(len(table))), alpha), channel=h)

        def select(pool, ids):
            tps, best = select_tps(pool, table.codewords(ids), channel=h)
            return tps.d_index, best

        return matrix, select
    patterns = pair_patterns(table.carriers, table.params.M, table.derived.L_T)

    def select(pool, ids):
        meds = patterns.meds(pool, [ids])[0]
        best = int(np.argmax(meds))
        return best, float(meds[best])

    return patterns.matrix, select


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
        # a build holds what its design chose; its matrices are derived on access
        assert not any(isinstance(getattr(build, f.name), np.ndarray) for f in dataclasses.fields(build))
        ids = np.asarray(build.codebook.member_ids)
        rows = small_table.codewords(ids)
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
            assert build.codebook.med == med(dist, pruned.member_ids)[0]
        else:
            assert build.tps is None
            assert build.codebook.med == med(matrix(pool[0]), ids)[0]
        # whichever path designed it, the MED is the one the matrices have
        expect, _ = med(distance_matrix(build.member_matrices, channel=h), range(n_valid))
        assert build.codebook.med == pytest.approx(expect, rel=0.0, abs=1e-9)

        if build.tps is None or build.tps.d_index == 0:
            assert np.array_equal(build.member_matrices, rows)
        else:
            assert np.array_equal(build.tps.alpha, pool[build.tps.d_index])
            assert np.array_equal(build.member_matrices, apply_tps(rows, build.tps.alpha))

    def test_design_channel_selects_a_scaled_factor(self, small_table, small_params):
        # without this the scaled branch of every recipe above could go unrun
        build = build_scheme(
            Scheme.CRPS_THEN_CODEBOOK, small_table, design_channel=_design_channel(small_params)
        )
        assert build.tps.d_index != 0
