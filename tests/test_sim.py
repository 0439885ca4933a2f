"""Monte Carlo engine tests: determinism, accounting, interpolation, gains."""

import math

import numpy as np
import pytest

from imjrc import sim
from imjrc.channel import (
    TAG_BITS,
    TAG_CHANNEL,
    TAG_NOISE,
    complex_normal,
    draw_channel,
    draw_trials,
    snr_to_sigma2,
    substream,
)
from imjrc.crps import Scheme, build_scheme
from imjrc.detector import noise_linear_terms
from imjrc.sim import (
    EARLY_STOP_BIT_ERRORS,
    BerRecord,
    binomial_halfwidth,
    measure_gain,
    run_ber,
    snr_at_ber,
)


@pytest.fixture(scope="module")
def small_baseline(small_table):
    return build_scheme(Scheme.BASELINE, small_table)


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


def _gram_run_ber(build, table, snr_db_grid, n_pulses, master_seed=None, early_stop=False, batch=1024):
    """The chunk loop run_ber ran before the noise-linear split, as a reference.

    It forms Y = H X_s + sigma N at every SNR point and decides it through
    the Gram expansion ||Y||^2 - 2 Re<H^H Y, X_r> + ||H X_r||^2 over the
    flattened hypotheses, with the same draws and early-stop cuts.
    """
    params, derived = table.params, table.derived
    seed = params.master_seed if master_seed is None else master_seed
    mats = build.member_matrices
    n = mats.shape[0]
    flat_conj = mats.reshape(n, -1).conj()
    row_gram = np.einsum("nrt,nqt->nrq", mats, mats.conj())
    scales = [math.sqrt(snr_to_sigma2(float(snr_db))) for snr_db in snr_db_grid]
    errors, pulses, active = [0] * len(scales), [0] * len(scales), [True] * len(scales)
    done = 0
    while done < n_pulses and any(active):
        size = min(batch, n_pulses - done)
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
    @pytest.mark.parametrize("batch", [256, 1024])
    @pytest.mark.parametrize("seed", EXACTNESS_SEEDS)
    def test_small_scenario(self, small_table, seed, batch, early_stop):
        build = build_scheme(Scheme.CODEBOOK_ONLY, small_table)
        grid = [-20.0, -12.0, -6.0, 0.0, 10.0, math.inf]
        args = (small_table, grid, 3000)
        kwargs = dict(master_seed=seed, early_stop=early_stop, batch=batch)
        records = run_ber([build], *args, **kwargs)
        assert records == _gram_run_ber(build, *args, **kwargs)
        if early_stop:
            assert len({r.pulses for r in records}) > 1

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("batch", [256, 1024])
    @pytest.mark.parametrize("seed", EXACTNESS_SEEDS[:2])
    def test_default_scenario(self, default_table, seed, batch, early_stop):
        build = build_scheme(Scheme.CODEBOOK_ONLY, default_table)
        grid = [-16.0, -12.0, -8.0, -4.0]
        args = (default_table, grid, 2048)
        kwargs = dict(master_seed=seed, early_stop=early_stop, batch=batch)
        records = run_ber([build], *args, **kwargs)
        assert records == _gram_run_ber(build, *args, **kwargs)
        assert all(r.bit_errors > 0 for r in records)
        if early_stop:
            assert len({r.pulses for r in records}) > 1

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("seed", EXACTNESS_SEEDS[:2])
    def test_scaled_codebook(self, default_table, default_scaled_build, seed, early_stop):
        assert default_scaled_build.tps.d_index != 0
        grid = [-16.0, -12.0, -8.0, -4.0, math.inf]
        args = (default_table, grid, 2048)
        kwargs = dict(master_seed=seed, early_stop=early_stop, batch=1024)
        records = run_ber([default_scaled_build], *args, **kwargs)
        assert records == _gram_run_ber(default_scaled_build, *args, **kwargs)
        assert records[-1].bit_errors == 0


class TestSharedDraws:
    """One run over several builds equals one run per build, record for record."""

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("batch", [256, 1024])
    def test_default_scenario(self, default_table, default_scaled_build, batch, early_stop):
        assert default_scaled_build.tps.d_index != 0
        builds = [
            build_scheme(Scheme.BASELINE, default_table),
            default_scaled_build,
            build_scheme(Scheme.CODEBOOK_ONLY, default_table),
        ]
        grid = [-16.0, -12.0, -8.0, -4.0, math.inf]
        kwargs = dict(master_seed=2718, early_stop=early_stop, batch=batch)
        together = run_ber(builds, default_table, grid, 2048, **kwargs)
        alone = [r for build in builds for r in run_ber([build], default_table, grid, 2048, **kwargs)]
        assert together == alone
        assert [r.scheme for r in together] == [b.scheme.value for b in builds for _ in grid]
        if early_stop:
            assert len({r.pulses for r in together}) > 1

    @pytest.mark.parametrize("early_stop", [False, True])
    def test_small_scenario(self, small_table, small_baseline, early_stop):
        builds = [build_scheme(Scheme.CODEBOOK_ONLY, small_table), small_baseline]
        grid = [-20.0, -12.0, -6.0, 0.0, 10.0]
        kwargs = dict(early_stop=early_stop, batch=256)
        together = run_ber(builds, small_table, grid, 3000, **kwargs)
        alone = [r for build in builds for r in run_ber([build], small_table, grid, 3000, **kwargs)]
        assert together == alone

    def test_a_stopped_build_leaves_the_others_running(self, small_table, small_baseline, monkeypatch):
        # at -12 dB and 16 pulses a chunk, the baseline stops two chunks
        # before codebook_only does, so codebook_only runs on alone
        builds = [small_baseline, build_scheme(Scheme.CODEBOOK_ONLY, small_table)]
        kwargs = dict(early_stop=True, batch=16)
        alone = [run_ber([build], small_table, [-12.0], 3000, **kwargs)[0] for build in builds]
        assert alone[0].pulses < alone[1].pulses
        calls = 0

        def counting_terms(*args):
            nonlocal calls
            calls += 1
            return noise_linear_terms(*args)

        monkeypatch.setattr(sim, "noise_linear_terms", counting_terms)
        assert run_ber(builds, small_table, [-12.0], 3000, **kwargs) == alone
        # a build whose every cell has stopped is not decided again
        assert calls == sum(r.pulses // 16 for r in alone)

    def test_rejects_builds_that_cannot_share_draws(self, small_baseline, small_table, default_table):
        with pytest.raises(ValueError):
            run_ber([], small_table, [0.0], 10)
        larger = build_scheme(Scheme.BASELINE, default_table)
        with pytest.raises(ValueError):
            run_ber([small_baseline, larger], small_table, [0.0], 10)


class TestRunBer:
    def test_noiseless_gives_zero_errors(self, small_baseline, small_table):
        records = run_ber([small_baseline], small_table, [math.inf], 200)
        assert len(records) == 1
        assert records[0].bit_errors == 0
        assert records[0].ber == 0.0
        assert records[0].pulses == 200

    def test_record_accounting(self, small_baseline, small_table, small_derived):
        records = run_ber([small_baseline], small_table, [-10.0, 0.0], 300)
        assert [r.snr_db for r in records] == [-10.0, 0.0]
        for r in records:
            n_bits = r.pulses * small_derived.B
            assert r.ber == r.bit_errors / n_bits
            assert 0.0 <= r.ber <= 1.0
            assert r.ci_halfwidth == pytest.approx(binomial_halfwidth(r.ber, n_bits))
            assert r.scheme == "baseline"

    def test_replay_is_bitwise_identical(self, small_baseline, small_table):
        a = run_ber([small_baseline], small_table, [-5.0, 0.0], 400)
        b = run_ber([small_baseline], small_table, [-5.0, 0.0], 400)
        assert a == b

    def test_chunking_does_not_change_results(self, small_baseline, small_table):
        a = run_ber([small_baseline], small_table, [-3.0], 257, batch=7)
        b = run_ber([small_baseline], small_table, [-3.0], 257, batch=64)
        assert a == b

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("batch", [256, 1024])
    def test_grid_records_match_single_point_runs(
        self, small_baseline, small_table, early_stop, batch
    ):
        # the grid spans points that stop after one chunk, after several,
        # and never, so the per-point early-stop cuts are all exercised
        grid = [-20.0, -12.0, -6.0, 0.0, 10.0]
        together = run_ber(
            [small_baseline], small_table, grid, 3000, early_stop=early_stop, batch=batch
        )
        alone = [
            run_ber([small_baseline], small_table, [snr], 3000, early_stop=early_stop, batch=batch)[0]
            for snr in grid
        ]
        assert together == alone
        if early_stop:
            assert len({r.pulses for r in together}) > 1

    def test_draws_each_trial_once_across_the_grid(
        self, small_baseline, small_table, monkeypatch
    ):
        drawn = []

        def counting_draw_trials(master_seed, start, n_members, ranks, h, noise):
            drawn.extend(range(start, start + len(ranks)))
            return draw_trials(master_seed, start, n_members, ranks, h, noise)

        monkeypatch.setattr(sim, "draw_trials", counting_draw_trials)
        builds = [small_baseline, build_scheme(Scheme.CODEBOOK_ONLY, small_table)]
        grid = [-16.0 + 2.0 * k for k in range(11)]
        records = run_ber(builds, small_table, grid, 300, batch=64)
        assert [r.pulses for r in records] == [300] * 22
        assert drawn == list(range(300))

    def test_explicit_master_seed_overrides_scenario_seed(self, small_baseline, small_table):
        a = run_ber([small_baseline], small_table, [0.0], 300)
        b = run_ber([small_baseline], small_table, [0.0], 300, master_seed=4242)
        c = run_ber([small_baseline], small_table, [0.0], 300, master_seed=4242)
        assert b == c
        assert a != b

    def test_early_stop_truncates_noisy_points(self, small_baseline, small_table):
        full = run_ber([small_baseline], small_table, [-20.0], 20000)
        stopped = run_ber([small_baseline], small_table, [-20.0], 20000, early_stop=True, batch=256)
        assert stopped[0].bit_errors >= EARLY_STOP_BIT_ERRORS
        assert stopped[0].pulses < full[0].pulses
        assert stopped[0].pulses % 256 == 0
        # the truncated estimate stays inside the joint confidence band
        gap = abs(stopped[0].ber - full[0].ber)
        assert gap <= stopped[0].ci_halfwidth + full[0].ci_halfwidth

    def test_rejects_bad_arguments(self, small_baseline, small_table):
        with pytest.raises(ValueError):
            run_ber([small_baseline], small_table, [0.0], 0)
        with pytest.raises(ValueError):
            run_ber([small_baseline], small_table, [0.0], 10, batch=0)
        with pytest.raises(ValueError):
            run_ber([small_baseline], small_table, [], 10)

    def test_high_snr_floor(self, default_table):
        # at +30 dB the default scenario must be effectively error free
        build = build_scheme(Scheme.BASELINE, default_table)
        records = run_ber([build], default_table, [30.0], 10000)
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
