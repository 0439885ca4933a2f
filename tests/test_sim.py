"""Monte Carlo engine tests: determinism, accounting, interpolation, gains."""

import ast
import dataclasses
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from imjrc import enumeration, sim
from imjrc.channel import (
    TAG_BITS,
    TAG_CHANNEL,
    TAG_DESIGN_CHANNEL,
    TAG_NOISE,
    complex_normal,
    draw_channel,
    draw_trials,
    snr_to_sigma2,
    substream,
)
from imjrc.crps import Scheme, build_scheme, build_schemes
from imjrc.detector import channel_terms, codebook_terms
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive
from imjrc.sim import (
    EARLY_STOP_BIT_ERRORS,
    BerRecord,
    binomial_halfwidth,
    measure_gain,
    run_ber,
    snr_at_ber,
)
from oracles import member_matrices


@pytest.fixture(scope="module")
def small_baseline(small_table):
    return build_scheme(Scheme.BASELINE, small_table)


@pytest.fixture(scope="module")
def channel_aware_builds(default_params, default_table):
    """The distinct codebooks of the five schemes designed through the seeded channel."""
    channel = draw_channel(
        default_params.L_C, default_params.L_R, substream(default_params.master_seed, TAG_DESIGN_CHANNEL)
    )
    distinct = {}
    for build in build_schemes(list(Scheme), default_table, design_channel=channel):
        distinct.setdefault((build.codebook.member_ids, build.tps.d_index if build.tps else 0), build)
    assert len(distinct) == 4
    return list(distinct.values())


# the channel-aware benchmark's grid: at 2,048 pulses with early stop its
# cells run one or two chunks of 1,024
CHANNEL_AWARE_GRID = [-18.0, -14.0, -10.0, -6.0, -2.0, 2.0]


def _rec(snr_db, ber, scheme="baseline", pulses=10000, b=8):
    n_bits = pulses * b
    return BerRecord(
        scheme=scheme,
        snr_db=snr_db,
        pulses=pulses,
        bit_errors=round(ber * n_bits),
        ber=ber,
        ci_halfwidth=binomial_halfwidth(ber, n_bits),
    )


def _reseeded(builds, seed):
    """The same designs on one copy of their table whose master seed is ``seed``.

    run_ber keys its draws by the table's master seed, so this runs the
    given codebooks under another seed's draws.
    """
    table = builds[0].table
    table = dataclasses.replace(table, params=dataclasses.replace(table.params, master_seed=seed))
    return [dataclasses.replace(build, table=table) for build in builds]


def _gram_run_ber(build, snr_db_grid, n_pulses, early_stop=False):
    """The chunk loop run_ber ran before the noise-linear split, as a reference.

    It forms Y = H X_s + sigma N at every SNR point and decides it through
    the Gram expansion ||Y||^2 - 2 Re<H^H Y, X_r> + ||H X_r||^2 over the
    flattened hypotheses, with the same draws and early-stop cuts, in
    chunks of :data:`imjrc.sim.CHUNK` trials.
    """
    params, derived = build.table.params, build.table.derived
    seed, chunk = params.master_seed, sim.CHUNK
    mats = member_matrices(build)
    n = mats.shape[0]
    flat_conj = mats.reshape(n, -1).conj()
    row_gram = np.einsum("nrt,nqt->nrq", mats, mats.conj())
    scales = [math.sqrt(snr_to_sigma2(float(snr_db))) for snr_db in snr_db_grid]
    errors, pulses, active = [0] * len(scales), [0] * len(scales), [True] * len(scales)
    done = 0
    while done < n_pulses and any(active):
        size = min(chunk, n_pulses - done)
        trials = range(done, done + size)
        ranks = np.array([substream(seed, TAG_BITS, t).integers(n) for t in trials])
        h = np.stack(
            [draw_channel(params.L_C, params.L_R, substream(seed, TAG_CHANNEL, t)) for t in trials]
        )
        noise = np.stack(
            [complex_normal(substream(seed, TAG_NOISE, t), (params.L_C, derived.L_T)) for t in trials]
        )
        hh = np.einsum("bcr,bcq->brq", h.conj(), h)
        image_norm = np.einsum("brq,nqr->bn", hh, row_gram).real
        for k, scale in enumerate(scales):
            if not active[k]:
                continue
            y = h @ mats[ranks] + scale * noise
            hy = np.einsum("bcr,bct->brt", h.conj(), y).reshape(size, -1)
            y_norm = np.einsum("bct,bct->b", y, y.conj()).real
            metrics = y_norm[:, None] - 2.0 * (hy @ flat_conj.T).real + image_norm
            decoded = np.argmin(metrics, axis=1)
            errors[k] += int(np.bitwise_count(ranks ^ decoded).sum())
            pulses[k] += size
            if early_stop and errors[k] >= EARLY_STOP_BIT_ERRORS:
                active[k] = False
        done += size
    records = []
    for snr_db, point_pulses, point_errors in zip(snr_db_grid, pulses, errors):
        n_bits = point_pulses * derived.B
        ber = point_errors / n_bits
        halfwidth = binomial_halfwidth(ber, n_bits)
        records.append(
            BerRecord(build.scheme.value, float(snr_db), point_pulses, point_errors, ber, halfwidth)
        )
    return records


# the last seed spans two 32-bit words of SeedSequence entropy
EXACTNESS_SEEDS = [1729, 2718, 2**32 + 7]


class TestMatchesGramReference:
    """run_ber's noise-linear decisions equal the Gram-expanded loop's, record for record."""

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("chunk", [256, 1024])
    @pytest.mark.parametrize("seed", EXACTNESS_SEEDS)
    def test_small_scenario(self, small_table, seed, chunk, early_stop, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK", chunk)
        (build,) = _reseeded([build_scheme(Scheme.CODEBOOK_ONLY, small_table)], seed)
        grid = [-20.0, -12.0, -6.0, 0.0, 10.0, math.inf]
        args = (grid, 3000, early_stop)
        records = run_ber([build], *args)
        assert records == _gram_run_ber(build, *args)
        if early_stop:
            assert len({r.pulses for r in records}) > 1

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("chunk", [256, 1024])
    @pytest.mark.parametrize("seed", EXACTNESS_SEEDS[:2])
    def test_default_scenario(self, default_table, seed, chunk, early_stop, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK", chunk)
        (build,) = _reseeded([build_scheme(Scheme.CODEBOOK_ONLY, default_table)], seed)
        grid = [-16.0, -12.0, -8.0, -4.0]
        args = (grid, 2048, early_stop)
        records = run_ber([build], *args)
        assert records == _gram_run_ber(build, *args)
        assert all(r.bit_errors > 0 for r in records)
        if early_stop:
            assert len({r.pulses for r in records}) > 1

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("seed", EXACTNESS_SEEDS[:2])
    def test_scaled_codebook(self, default_scaled_build, seed, early_stop):
        assert default_scaled_build.tps.d_index != 0
        (build,) = _reseeded([default_scaled_build], seed)
        grid = [-16.0, -12.0, -8.0, -4.0, math.inf]
        args = (grid, 2048, early_stop)
        records = run_ber([build], *args)
        assert records == _gram_run_ber(build, *args)
        assert records[-1].bit_errors == 0


class TestSharedDraws:
    """One run over several builds equals one run per build, record for record."""

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("chunk", [256, 1024])
    def test_default_scenario(self, default_table, default_scaled_build, chunk, early_stop, monkeypatch):
        assert default_scaled_build.tps.d_index != 0
        monkeypatch.setattr(sim, "CHUNK", chunk)
        builds = _reseeded(
            [
                build_scheme(Scheme.BASELINE, default_table),
                default_scaled_build,
                build_scheme(Scheme.CODEBOOK_ONLY, default_table),
            ],
            2718,
        )
        grid = [-16.0, -12.0, -8.0, -4.0, math.inf]
        together = run_ber(builds, grid, 2048, early_stop)
        alone = [r for build in builds for r in run_ber([build], grid, 2048, early_stop)]
        assert together == alone
        assert [r.scheme for r in together] == [b.scheme.value for b in builds for _ in grid]
        if early_stop:
            assert len({r.pulses for r in together}) > 1

    @pytest.mark.parametrize("early_stop", [False, True])
    def test_small_scenario(self, small_table, small_baseline, early_stop, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK", 256)
        builds = [build_scheme(Scheme.CODEBOOK_ONLY, small_table), small_baseline]
        grid = [-20.0, -12.0, -6.0, 0.0, 10.0]
        together = run_ber(builds, grid, 3000, early_stop)
        alone = [r for build in builds for r in run_ber([build], grid, 3000, early_stop)]
        assert together == alone

    def test_a_stopped_build_leaves_the_others_running(self, small_table, small_baseline, monkeypatch):
        # at -12 dB and 16 pulses a chunk, the baseline stops two chunks
        # before codebook_only does, so codebook_only runs on alone
        monkeypatch.setattr(sim, "CHUNK", 16)
        builds = [small_baseline, build_scheme(Scheme.CODEBOOK_ONLY, small_table)]
        alone = [run_ber([build], [-12.0], 3000, early_stop=True)[0] for build in builds]
        assert alone[0].pulses < alone[1].pulses
        calls = 0

        def counting_terms(*args):
            nonlocal calls
            calls += 1
            return codebook_terms(*args)

        monkeypatch.setattr(sim, "codebook_terms", counting_terms)
        assert run_ber(builds, [-12.0], 3000, early_stop=True) == alone
        # a build whose every cell has stopped is not decided again
        assert calls == sum(r.pulses // 16 for r in alone)

    # below -6 dB every cell stops, and one build runs two chunks of 256 fewer
    @pytest.mark.parametrize("points,chunk", [(6, 1024), (3, 256)])
    def test_chunk_terms_are_formed_once_per_chunk(self, channel_aware_builds, points, chunk, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK", chunk)
        calls = {"chunk": 0, "codebook": 0}

        def counting(stage, fn):
            def counted(*args):
                calls[stage] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(sim, "channel_terms", counting("chunk", channel_terms))
        monkeypatch.setattr(sim, "codebook_terms", counting("codebook", codebook_terms))
        grid = CHANNEL_AWARE_GRID[:points]
        records = run_ber(channel_aware_builds, grid, 2048, early_stop=True)
        # a build is decided in a chunk while any of its cells runs
        chunks = [
            max(r.pulses for r in records[i : i + points]) // chunk for i in range(0, len(records), points)
        ]
        assert max(chunks) == 2048 // chunk
        assert (len(set(chunks)) > 1) == (chunk == 256)
        assert calls == {"chunk": max(chunks), "codebook": sum(chunks)}

    def test_rejects_builds_that_cannot_share_draws(self, small_baseline, small_params, default_table):
        with pytest.raises(ValueError):
            run_ber([], [0.0], 10)
        # another scenario's table, and the same scenario's under another seed
        reseeded = dataclasses.replace(small_params, master_seed=small_params.master_seed + 1)
        for table in (default_table, build_table(reseeded, derive(reseeded))):
            other = build_scheme(Scheme.BASELINE, table)
            with pytest.raises(ValueError, match="one codeword table"):
                run_ber([small_baseline, other], [0.0], 10)


class TestRunBer:
    def test_traced_peak_of_the_channel_aware_builds(self, channel_aware_builds):
        # the working set is allocated once; allocating the (chunk x n)
        # terms per chunk and build peaked at 13.0 MiB
        run_ber(channel_aware_builds, CHANNEL_AWARE_GRID, 64)  # warm imports and caches
        tracemalloc.start()
        try:
            run_ber(channel_aware_builds, CHANNEL_AWARE_GRID, 2048, early_stop=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12.5 * 2**20

    # the default 1 us pulse over two full chunks, and a 1 ms pulse (L_T =
    # 70,001) at three pulses, where one block of draws, held at L_C x M per
    # trial once projected, is most of the working set; with one build and
    # with two distinct ones, each holding its Gram cache
    @pytest.mark.parametrize("t_p,pulses", [(1e-6, 2048), (1e-3, 3)])
    def test_traced_peak_is_within_the_estimate(self, t_p, pulses):
        params = SystemParams(T_p=t_p, T_r=2 * t_p)
        table = build_table(params, derive(params))
        builds = build_schemes([Scheme.BASELINE, Scheme.CODEBOOK_ONLY], table)
        assert builds[0].codebook.member_ids != builds[1].codebook.member_ids
        for held in (builds[:1], builds):
            run_ber(held, [0.0], pulses)  # warm imports and caches
            tracemalloc.start()
            try:
                run_ber(held, [-4.0, 0.0], pulses)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 8 * sim.buffer_floats(table, pulses, len(held))

    def test_noiseless_gives_zero_errors(self, small_baseline):
        records = run_ber([small_baseline], [math.inf], 200)
        assert len(records) == 1
        assert records[0].bit_errors == 0
        assert records[0].ber == 0.0
        assert records[0].pulses == 200

    def test_record_accounting(self, small_baseline, small_derived):
        records = run_ber([small_baseline], [-10.0, 0.0], 300)
        assert [r.snr_db for r in records] == [-10.0, 0.0]
        for r in records:
            n_bits = r.pulses * small_derived.B
            assert r.ber == r.bit_errors / n_bits
            assert 0.0 <= r.ber <= 1.0
            assert r.ci_halfwidth == pytest.approx(binomial_halfwidth(r.ber, n_bits))
            assert r.scheme == "baseline"

    def test_replay_is_bitwise_identical(self, small_baseline):
        a = run_ber([small_baseline], [-5.0, 0.0], 400)
        b = run_ber([small_baseline], [-5.0, 0.0], 400)
        assert a == b

    def test_chunking_does_not_change_results(self, small_baseline, monkeypatch):
        # without early stop the records do not depend on where chunks fall
        monkeypatch.setattr(sim, "CHUNK", 7)
        a = run_ber([small_baseline], [-3.0], 257)
        monkeypatch.setattr(sim, "CHUNK", 64)
        b = run_ber([small_baseline], [-3.0], 257)
        assert a == b

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("chunk", [256, 1024])
    def test_grid_records_match_single_point_runs(
        self, small_baseline, early_stop, chunk, monkeypatch
    ):
        # the grid spans points that stop after one chunk, after several,
        # and never, so the per-point early-stop cuts are all exercised
        monkeypatch.setattr(sim, "CHUNK", chunk)
        grid = [-20.0, -12.0, -6.0, 0.0, 10.0]
        together = run_ber([small_baseline], grid, 3000, early_stop=early_stop)
        alone = [run_ber([small_baseline], [snr], 3000, early_stop=early_stop)[0] for snr in grid]
        assert together == alone
        if early_stop:
            assert len({r.pulses for r in together}) > 1

    def test_draws_each_trial_once_across_the_grid(
        self, small_baseline, small_table, monkeypatch
    ):
        monkeypatch.setattr(sim, "CHUNK", 64)
        drawn = []

        def counting_draw_trials(table, start, size):
            drawn.extend(range(start, start + size))
            return draw_trials(table, start, size)

        monkeypatch.setattr(sim, "draw_trials", counting_draw_trials)
        builds = [small_baseline, build_scheme(Scheme.CODEBOOK_ONLY, small_table)]
        grid = [-16.0 + 2.0 * k for k in range(11)]
        records = run_ber(builds, grid, 300)
        assert [r.pulses for r in records] == [300] * 22
        assert drawn == list(range(300))

    def test_refuses_buffers_over_the_budget_before_drawing(
        self, small_baseline, small_table, monkeypatch
    ):
        # small scenario (2^B = 16, L_C = 2, L_R = 4, M = 3, L_T = 13), one
        # chunk of 64: 3 x 16 + 2 x 4 x (4 + 3 x 3) = 152 detector floats a
        # trial (9,728), a Gram cache of 16 x 2 x 4 x (4 + 2 x 3) = 1,280, and
        # draws of 27 + 2 x 2 x (4 + 3) = 55 floats a trial (3,520), a block of
        # 64 at 4 x 2 x (13 + 4) = 136 a trial (8,704), W^H and the cast
        # buffer 2 x (3 x 13 + 8,192) = 16,462, and 2,048: 41,742 floats
        pruned = build_scheme(Scheme.CODEBOOK_ONLY, small_table)
        assert pruned.codebook.member_ids != small_baseline.codebook.member_ids
        drawn = []

        def counting_draw_trials(table, start, size):
            drawn.append(start)
            return draw_trials(table, start, size)

        monkeypatch.setattr(sim, "draw_trials", counting_draw_trials)
        monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", 8 * 41_742 - 1)
        with pytest.raises(ValueError, match=r"Monte Carlo buffers need about \d+\.\d GiB"):
            run_ber([small_baseline], [0.0], 64)
        assert drawn == []
        monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", 8 * 41_742)
        assert run_ber([small_baseline], [0.0], 64)[0].pulses == 64
        assert drawn == [0]
        # a second distinct codebook holds a second Gram cache: 43,022 floats
        monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", 8 * 43_022 - 1)
        with pytest.raises(ValueError, match=r"Monte Carlo buffers need about \d+\.\d GiB"):
            run_ber([small_baseline, pruned], [0.0], 64)
        assert drawn == [0]
        monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", 8 * 43_022)
        assert [r.pulses for r in run_ber([small_baseline, pruned], [0.0], 64)] == [64, 64]
        assert drawn == [0, 0]

    def test_the_tables_master_seed_keys_the_draws(self, small_baseline):
        a = run_ber([small_baseline], [0.0], 300)
        b = run_ber(_reseeded([small_baseline], 4242), [0.0], 300)
        c = run_ber(_reseeded([small_baseline], 4242), [0.0], 300)
        assert b == c
        assert a != b

    def test_early_stop_truncates_noisy_points(self, small_baseline, monkeypatch):
        full = run_ber([small_baseline], [-20.0], 20000)
        monkeypatch.setattr(sim, "CHUNK", 256)
        stopped = run_ber([small_baseline], [-20.0], 20000, early_stop=True)
        assert stopped[0].bit_errors >= EARLY_STOP_BIT_ERRORS
        assert stopped[0].pulses < full[0].pulses
        assert stopped[0].pulses % 256 == 0
        # the truncated estimate stays inside the joint confidence band
        gap = abs(stopped[0].ber - full[0].ber)
        assert gap <= stopped[0].ci_halfwidth + full[0].ci_halfwidth

    def test_early_stop_cuts_at_the_benchmark_chunk(self, small_baseline):
        # the benchmark's oracle checks every early-stopped cell against its
        # own copy of the chunk convention, read here without importing it
        tree = ast.parse((pathlib.Path(__file__).parents[1] / "benchmarks" / "oracle.py").read_text())
        oracle = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Constant)
        }
        assert (oracle["CHUNK"], oracle["EARLY_STOP_BIT_ERRORS"]) == (sim.CHUNK, EARLY_STOP_BIT_ERRORS)
        # cells that stop after one, two and four chunks, and one that never does
        records = run_ber([small_baseline], [-20.0, -4.0, 0.0, 4.0], 5000, early_stop=True)
        stopped = [r for r in records if r.pulses < 5000]
        assert [r.pulses // sim.CHUNK for r in stopped] == [1, 2, 4]
        for r in stopped:
            assert r.pulses % sim.CHUNK == 0
            assert r.bit_errors >= EARLY_STOP_BIT_ERRORS

    def test_rejects_bad_arguments(self, small_baseline):
        with pytest.raises(ValueError):
            run_ber([small_baseline], [0.0], 0)
        with pytest.raises(ValueError):
            run_ber([small_baseline], [], 10)

    def test_high_snr_floor(self, default_table):
        # at +30 dB the default scenario must be effectively error free
        build = build_scheme(Scheme.BASELINE, default_table)
        records = run_ber([build], [30.0], 10000)
        assert records[0].ber < 1e-4


class TestBinomialHalfwidth:
    def test_formula(self):
        assert binomial_halfwidth(0.1, 1000) == pytest.approx(
            1.96 * math.sqrt(0.1 * 0.9 / 1000), rel=1e-12
        )

    def test_degenerate_rates(self):
        assert binomial_halfwidth(0.0, 100) == 0.0
        assert binomial_halfwidth(1.0, 100) == 0.0

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            binomial_halfwidth(0.1, 0)


class TestSnrAtBer:
    def test_grid_point_hit(self):
        curve = [_rec(0.0, 1e-2), _rec(2.0, 1e-3), _rec(4.0, 1e-4)]
        assert snr_at_ber(curve, 1e-3) == pytest.approx(2.0, abs=1e-12)

    def test_log_linear_midpoint(self):
        curve = [_rec(0.0, 1e-2), _rec(2.0, 1e-3), _rec(4.0, 1e-4)]
        assert snr_at_ber(curve, 10**-3.5) == pytest.approx(3.0, abs=1e-12)

    def test_unsorted_input_is_sorted_first(self):
        curve = [_rec(4.0, 1e-4), _rec(0.0, 1e-2), _rec(2.0, 1e-3)]
        assert snr_at_ber(curve, 10**-2.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_ber_points_are_skipped(self):
        curve = [_rec(0.0, 1e-2), _rec(2.0, 1e-4), _rec(4.0, 0.0)]
        assert snr_at_ber(curve, 1e-3) == pytest.approx(1.0, abs=1e-12)

    def test_flat_segment_returns_left_edge(self):
        curve = [_rec(0.0, 1e-3), _rec(2.0, 1e-3)]
        assert snr_at_ber(curve, 1e-3) == 0.0

    def test_unbracketed_target_raises(self):
        curve = [_rec(0.0, 1e-2), _rec(2.0, 1e-3)]
        with pytest.raises(ValueError):
            snr_at_ber(curve, 1e-5)
        with pytest.raises(ValueError):
            snr_at_ber(curve, 0.5)

    def test_all_zero_curve_raises(self):
        curve = [_rec(0.0, 0.0), _rec(2.0, 0.0)]
        with pytest.raises(ValueError):
            snr_at_ber(curve, 1e-3)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            snr_at_ber([_rec(0.0, 1e-2)], 1e-3)
        with pytest.raises(ValueError):
            snr_at_ber([_rec(0.0, 1e-2), _rec(2.0, 1e-3)], 0.0)


class TestMeasureGain:
    def test_identical_curves_have_zero_gain(self):
        curve = [_rec(0.0, 1e-2), _rec(2.0, 1e-3), _rec(4.0, 1e-4)]
        report = measure_gain(curve, curve, 1e-3)
        assert report.gain_db == 0.0

    def test_exact_shift_recovers_gain(self):
        base = [_rec(0.0, 1e-2), _rec(2.0, 1e-3), _rec(4.0, 1e-4)]
        shifted = [_rec(r.snr_db - 3.0, r.ber, scheme="crps_only") for r in base]
        report = measure_gain(base, shifted, 1e-3)
        assert report.gain_db == pytest.approx(3.0, abs=1e-9)
        assert report.scheme == "crps_only"
        assert report.baseline == "baseline"
        assert report.snr_baseline == pytest.approx(2.0, abs=1e-9)
        assert report.snr_scheme == pytest.approx(-1.0, abs=1e-9)

    def test_negative_gain_when_scheme_is_worse(self):
        base = [_rec(0.0, 1e-2), _rec(2.0, 1e-3), _rec(4.0, 1e-4)]
        shifted = [_rec(r.snr_db + 1.5, r.ber, scheme="codebook_only") for r in base]
        report = measure_gain(base, shifted, 1e-3)
        assert report.gain_db == pytest.approx(-1.5, abs=1e-9)

    def test_propagates_no_bracket_error(self):
        base = [_rec(0.0, 1e-2), _rec(2.0, 1e-3)]
        with pytest.raises(ValueError):
            measure_gain(base, base, 1e-6)
