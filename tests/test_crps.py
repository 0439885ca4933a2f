"""Pre-scaling pool generation, candidate scoring, and scheme assembly tests."""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from imjrc import crps
from imjrc.channel import TAG_DESIGN_CHANNEL, TAG_TPS, draw_channel, substream
from imjrc.codebook import distance_matrix, greedy_prune, med, pair_row_distances
from imjrc.crps import (
    DESIGN_BUDGET_BYTES,
    Scheme,
    apply_tps,
    build_scheme,
    candidate_meds,
    design_bytes,
    generate_tps,
    select_tps,
)
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive


def _random_mats(rng, n, l_r, l_t):
    return rng.standard_normal((n, l_r, l_t)) + 1j * rng.standard_normal((n, l_r, l_t))


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
            scaled = apply_tps(small_table.matrices, alpha)
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
        meds = candidate_meds(pool, mats)
        for d, alpha in enumerate(pool):
            dist = distance_matrix(apply_tps(mats, alpha))
            expect, _ = med(dist, range(5))
            assert meds[d] == pytest.approx(expect, rel=1e-9)

    def test_channel_path_matches_reevaluation(self):
        rng = np.random.default_rng(6)
        mats = _random_mats(rng, 4, 3, 5)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        pool = generate_tps(5, 3, rng)
        meds = candidate_meds(pool, mats, channel=h)
        for d, alpha in enumerate(pool):
            dist = distance_matrix(apply_tps(mats, alpha), channel=h)
            expect, _ = med(dist, range(4))
            assert meds[d] == pytest.approx(expect, rel=1e-9)

    def test_channel_path_is_bit_equal_to_med(
        self, small_table, small_params, default_table, default_params
    ):
        # the channel path scores in reused buffers and takes the minimum of
        # the upper triangle; it must give med()'s value exactly, or the
        # selected factor could move.  The full default table (420
        # codewords) is what crps_then_codebook scores.
        small_members = small_table.matrices[: 1 << small_table.derived.B]
        for mats, params, seed in (
            (small_members, small_params, 3),
            (default_table.matrices, default_params, 1729),
        ):
            h = draw_channel(params.L_C, params.L_R, substream(seed, TAG_DESIGN_CHANNEL))
            pool = generate_tps(params.D, params.L_R, substream(seed, TAG_TPS))
            meds = candidate_meds(pool, mats, channel=h)
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
        meds = candidate_meds(pool, mats)
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
        meds = candidate_meds([identity], mats)
        assert tps.d_index == 1
        assert best == pytest.approx(2.0 * meds[0], rel=1e-9)

    def test_blocked_scoring_is_exact(self, default_table, default_params):
        # 87,990 pairs: more than one block, and a ragged last block
        mats = default_table.matrices
        pool = generate_tps(default_params.D, default_params.L_R, substream(1729, TAG_TPS))
        _, _, rowdist = pair_row_distances(mats)
        assert rowdist.shape[0] > crps._SCORE_BLOCK and rowdist.shape[0] % crps._SCORE_BLOCK
        for candidates in (pool, pool[:1], pool[1:2]):
            weights = np.stack([np.abs(a) ** 2 for a in candidates])
            expect = (rowdist @ weights.T).min(axis=0)
            assert np.array_equal(candidate_meds(candidates, mats), expect)

    @pytest.mark.parametrize("block", [4, 5, 10, 20])
    @pytest.mark.parametrize("count", [1, 6])
    def test_one_pair_or_one_candidate_blocks_are_exact(self, block, count, monkeypatch):
        # 21 pairs leave one pair after the last full block of each size;
        # one-row and one-column products round differently in BLAS
        monkeypatch.setattr(crps, "_SCORE_BLOCK", block)
        rng = np.random.default_rng(12)
        for _ in range(20):
            mats = _random_mats(rng, 7, 8, 5)
            pool = generate_tps(count + 1, 8, rng)[1:]
            _, _, rowdist = pair_row_distances(mats)
            weights = np.stack([np.abs(a) ** 2 for a in pool])
            assert np.array_equal(candidate_meds(pool, mats), (rowdist @ weights.T).min(axis=0))

    def test_scoring_memory_does_not_grow_with_pool(self, default_table, default_params):
        # the whole pairs x D product would take 87,990 x 400 x 8 B = 282 MB;
        # block-wise scoring must stay far below it (18 MB measured)
        mats = default_table.matrices
        pool = generate_tps(400, default_params.L_R, np.random.default_rng(13))
        pairs = mats.shape[0] * (mats.shape[0] - 1) // 2
        tracemalloc.start()
        try:
            candidate_meds(pool, mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pairs * len(pool) * 8 // 8

    def test_rejects_degenerate_input(self):
        rng = np.random.default_rng(10)
        mats = _random_mats(rng, 3, 2, 4)
        with pytest.raises(ValueError):
            candidate_meds([], mats)
        with pytest.raises(ValueError):
            candidate_meds([np.ones(2, dtype=complex)], mats[:1])


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
        assert np.array_equal(build.member_matrices, small_table.matrices[:n_valid])

    def test_identity_selection_leaves_matrices_untouched(self, small_table):
        # without a design channel the identity wins (README "Known divergences")
        build = build_scheme(Scheme.CRPS_ONLY, small_table)
        n = build.member_matrices.shape[0]
        assert build.tps.d_index == 0
        assert np.array_equal(build.member_matrices, small_table.matrices[:n])
        assert np.shares_memory(build.member_matrices, small_table.matrices)

    def test_scaled_selection_scales_member_matrices(self, small_table, small_params):
        build = build_scheme(
            Scheme.CRPS_THEN_CODEBOOK, small_table, design_channel=_design_channel(small_params)
        )
        assert build.tps.d_index != 0
        rows = small_table.matrices[np.asarray(build.codebook.member_ids)]
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
        dist = distance_matrix(small_table.matrices, channel=h)
        expect, _ = med(dist, aware.codebook.member_ids)
        assert aware.codebook.med == pytest.approx(expect, rel=1e-12)

    def test_rejects_informationless_scenario(self):
        params = SystemParams(M=1, K=1, L_R=2, delta_f=4e6)
        table = build_table(params, derive(params))
        with pytest.raises(ValueError):
            build_scheme(Scheme.BASELINE, table)

    def test_refuses_oversized_design_up_front(self):
        # C_total = 369,600: the dense design would need terabytes.  The
        # table is a stub without matrices, so nothing is allocated.
        params = SystemParams(M=12, K=3, L_R=9)
        stub = types.SimpleNamespace(params=params, derived=derive(params), matrices=None)
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


def _design_channel(params):
    return draw_channel(params.L_C, params.L_R, substream(params.master_seed, TAG_DESIGN_CHANNEL))


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
        ids = np.asarray(build.codebook.member_ids)
        rows = small_table.matrices[ids]
        pool = generate_tps(small_params.D, small_params.L_R, substream(small_params.master_seed, TAG_TPS))

        if scheme in self.SAME_MEMBERS:
            twin = build_scheme(self.SAME_MEMBERS[scheme], small_table, design_channel=h)
            assert build.codebook.member_ids == twin.codebook.member_ids
            tps, best = select_tps(pool, rows, channel=h)
            assert build.tps.d_index == tps.d_index
            assert build.codebook.med == best
        elif scheme is Scheme.CRPS_THEN_CODEBOOK:
            tps, _ = select_tps(pool, small_table.matrices, channel=h)
            assert build.tps.d_index == tps.d_index
            dist = distance_matrix(apply_tps(small_table.matrices, tps.alpha), channel=h)
            pruned, _ = greedy_prune(dist, n_valid)
            assert build.codebook.member_ids == pruned.member_ids
            assert build.codebook.med == med(dist, pruned.member_ids)[0]
        else:
            assert build.tps is None
            full = small_table.matrices[:n_valid] if scheme is Scheme.BASELINE else small_table.matrices
            assert build.codebook.med == med(distance_matrix(full, channel=h), ids)[0]

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
