"""Monte Carlo engine tests: determinism, accounting, interpolation, gains."""

import math

import numpy as np
import pytest

from imjrc import sim
from imjrc.channel import substream
from imjrc.crps import Scheme, build_scheme
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


class TestRunBer:
    def test_noiseless_gives_zero_errors(self, small_baseline, small_table):
        records = run_ber(small_baseline, small_table, [math.inf], 200)
        assert len(records) == 1
        assert records[0].bit_errors == 0
        assert records[0].ber == 0.0
        assert records[0].pulses == 200

    def test_record_accounting(self, small_baseline, small_table, small_derived):
        records = run_ber(small_baseline, small_table, [-10.0, 0.0], 300)
        assert [r.snr_db for r in records] == [-10.0, 0.0]
        for r in records:
            n_bits = r.pulses * small_derived.B
            assert r.ber == r.bit_errors / n_bits
            assert 0.0 <= r.ber <= 1.0
            assert r.ci_halfwidth == pytest.approx(binomial_halfwidth(r.ber, n_bits))
            assert r.scheme == "baseline"

    def test_replay_is_bitwise_identical(self, small_baseline, small_table):
        a = run_ber(small_baseline, small_table, [-5.0, 0.0], 400)
        b = run_ber(small_baseline, small_table, [-5.0, 0.0], 400)
        assert a == b

    def test_chunking_does_not_change_results(self, small_baseline, small_table):
        a = run_ber(small_baseline, small_table, [-3.0], 257, batch=7)
        b = run_ber(small_baseline, small_table, [-3.0], 257, batch=64)
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
            small_baseline, small_table, grid, 3000, early_stop=early_stop, batch=batch
        )
        alone = [
            run_ber(small_baseline, small_table, [snr], 3000, early_stop=early_stop, batch=batch)[0]
            for snr in grid
        ]
        assert together == alone
        if early_stop:
            assert len({r.pulses for r in together}) > 1

    def test_draws_each_trial_once_across_the_grid(
        self, small_baseline, small_table, monkeypatch
    ):
        calls = 0

        def counting_substream(*args):
            nonlocal calls
            calls += 1
            return substream(*args)

        monkeypatch.setattr(sim, "substream", counting_substream)
        grid = [-16.0 + 2.0 * k for k in range(11)]
        records = run_ber(small_baseline, small_table, grid, 300)
        assert [r.pulses for r in records] == [300] * 11
        assert calls == 3 * 300

    def test_explicit_master_seed_overrides_scenario_seed(self, small_baseline, small_table):
        a = run_ber(small_baseline, small_table, [0.0], 300)
        b = run_ber(small_baseline, small_table, [0.0], 300, master_seed=4242)
        c = run_ber(small_baseline, small_table, [0.0], 300, master_seed=4242)
        assert b == c
        assert a != b

    def test_early_stop_truncates_noisy_points(self, small_baseline, small_table):
        full = run_ber(small_baseline, small_table, [-20.0], 20000)
        stopped = run_ber(small_baseline, small_table, [-20.0], 20000, early_stop=True, batch=256)
        assert stopped[0].bit_errors >= EARLY_STOP_BIT_ERRORS
        assert stopped[0].pulses < full[0].pulses
        assert stopped[0].pulses % 256 == 0
        # the truncated estimate stays inside the joint confidence band
        gap = abs(stopped[0].ber - full[0].ber)
        assert gap <= stopped[0].ci_halfwidth + full[0].ci_halfwidth

    def test_rejects_bad_arguments(self, small_baseline, small_table):
        with pytest.raises(ValueError):
            run_ber(small_baseline, small_table, [0.0], 0)
        with pytest.raises(ValueError):
            run_ber(small_baseline, small_table, [0.0], 10, batch=0)
        with pytest.raises(ValueError):
            run_ber(small_baseline, small_table, [], 10)

    def test_high_snr_floor(self, default_table):
        # at +30 dB the default scenario must be effectively error free
        build = build_scheme(Scheme.BASELINE, default_table)
        records = run_ber(build, default_table, [30.0], 10000)
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
