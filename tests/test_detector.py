"""ML detector tests: exactness, tie-breaks, oracle agreement, batch audit."""

import numpy as np
import pytest

from imjrc.channel import TAG_BITS, TAG_CHANNEL, TAG_NOISE, complex_normal, draw_channel, substream
from imjrc.crps import apply_tps
from imjrc.detector import detect, detect_batch, gram_cache, image_norms


def _brute_force(y, h, member_mats):
    """Residual scan written against the raw definition, member by member."""
    best_rank, best_metric = -1, None
    for r in range(member_mats.shape[0]):
        image = h @ member_mats[r]
        metric = float(np.sum(np.abs(y - image) ** 2))
        if best_metric is None or metric < best_metric:
            best_rank, best_metric = r, metric
    return best_rank, best_metric


class TestDetect:
    def test_noiseless_recovers_every_rank(self, small_table):
        mats = small_table.matrices[:16]
        for trial in range(100):
            h = draw_channel(2, 4, substream(5, TAG_CHANNEL, trial))
            rank = trial % 16
            result = detect(h @ mats[rank], h, mats)
            assert result.rank == rank
            assert result.metric < 1e-12

    def test_midway_tie_takes_smallest_rank(self, small_table):
        # the origin is exactly midway between A and -A, and negating a
        # hypothesis negates its image bit for bit, so both residuals are
        # identical and the scan must keep the smaller rank
        a = small_table.matrices[2]
        mats = np.stack([5.0 * a, a, 4.0 * a, -a])
        h = draw_channel(2, 4, substream(6, TAG_CHANNEL, 0))
        y = np.zeros((2, 13), dtype=complex)
        result = detect(y, h, mats)
        assert result.rank == 1

    def test_duplicate_hypotheses_take_smallest_rank(self, small_table):
        mats = small_table.matrices[:6].copy()
        mats[4] = mats[2]
        h = draw_channel(2, 4, substream(7, TAG_CHANNEL, 0))
        result = detect(h @ mats[4], h, mats)
        assert result.rank == 2

    def test_agrees_with_brute_force(self, small_table):
        mats = small_table.matrices[:16]
        for trial in range(100):
            h = draw_channel(2, 4, substream(8, TAG_CHANNEL, trial))
            rank = int(substream(8, TAG_BITS, trial).integers(16))
            noise = complex_normal(substream(8, TAG_NOISE, trial), (2, 13))
            y = h @ mats[rank] + 0.8 * noise
            result = detect(y, h, mats)
            brute_rank, brute_metric = _brute_force(y, h, mats)
            assert result.rank == brute_rank
            assert result.metric == pytest.approx(brute_metric, rel=1e-9)

    def test_alpha_argument_matches_prescaled_hypotheses(self, small_table):
        rng = np.random.default_rng(9)
        mats = small_table.matrices[:8]
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = draw_channel(2, 4, rng)
        y = h @ apply_tps(mats[5], alpha) + 0.1 * complex_normal(rng, (2, 13))
        via_alpha = detect(y, h, mats, alpha=alpha)
        via_mats = detect(y, h, apply_tps(mats, alpha))
        assert via_alpha.rank == via_mats.rank
        assert via_alpha.metric == pytest.approx(via_mats.metric, rel=1e-12)

    def test_argmin_scale_invariance(self, small_table):
        rng = np.random.default_rng(10)
        mats = small_table.matrices[:16]
        h = draw_channel(2, 4, rng)
        y = h @ mats[7] + 0.7 * complex_normal(rng, (2, 13))
        plain = detect(y, h, mats)
        scaled = detect(3.0 * y, 3.0 * h, mats)
        assert plain.rank == scaled.rank

    def test_rejects_mismatched_dimensions(self, small_table):
        mats = small_table.matrices[:4]
        rng = np.random.default_rng(11)
        good_h = draw_channel(2, 4, rng)
        good_y = good_h @ mats[0]
        with pytest.raises(ValueError):
            detect(good_y, draw_channel(2, 3, rng), mats)
        with pytest.raises(ValueError):
            detect(good_y[:, :-1], good_h, mats)
        with pytest.raises(ValueError):
            detect(good_y, good_h, mats[0])


class TestDetectBatch:
    def test_rank_identical_to_reference_on_audit(self, small_table):
        # the fast Gram expansion must agree with the direct residual scan
        mats = small_table.matrices[:16]
        trials = 1000
        h = np.empty((trials, 2, 4), dtype=complex)
        y = np.empty((trials, 2, 13), dtype=complex)
        for t in range(trials):
            h[t] = draw_channel(2, 4, substream(12, TAG_CHANNEL, t))
            rank = int(substream(12, TAG_BITS, t).integers(16))
            noise = complex_normal(substream(12, TAG_NOISE, t), (2, 13))
            y[t] = h[t] @ mats[rank] + noise
        ranks, metrics = detect_batch(y, h, mats)
        for t in range(trials):
            single = detect(y[t], h[t], mats)
            assert ranks[t] == single.rank
            assert metrics[t] == pytest.approx(single.metric, rel=1e-6, abs=1e-9)

    def test_cache_reuse_is_bit_identical(self, small_table):
        mats = small_table.matrices[:16]
        rng = np.random.default_rng(13)
        h = rng.standard_normal((50, 2, 4)) + 1j * rng.standard_normal((50, 2, 4))
        y = rng.standard_normal((50, 2, 13)) + 1j * rng.standard_normal((50, 2, 13))
        fresh = detect_batch(y, h, mats)
        cached = detect_batch(y, h, mats, cache=gram_cache(mats))
        assert np.array_equal(fresh[0], cached[0])
        assert np.array_equal(fresh[1], cached[1])

    def test_precomputed_image_norm_is_bit_identical(self, small_table):
        mats = small_table.matrices[:16]
        rng = np.random.default_rng(17)
        h = rng.standard_normal((50, 2, 4)) + 1j * rng.standard_normal((50, 2, 4))
        y = rng.standard_normal((50, 2, 13)) + 1j * rng.standard_normal((50, 2, 13))
        cache = gram_cache(mats)
        norms = image_norms(h, cache)
        assert norms.shape == (50, 16) and norms.dtype == float and norms.flags.c_contiguous
        fresh = detect_batch(y, h, mats, cache)
        reused = detect_batch(y, h, mats, cache, image_norm=norms)
        assert np.array_equal(fresh[0], reused[0])
        assert np.array_equal(fresh[1], reused[1])

    def test_noiseless_batch(self, small_table):
        mats = small_table.matrices[:16]
        rng = np.random.default_rng(14)
        ranks_tx = rng.integers(16, size=64)
        h = rng.standard_normal((64, 2, 4)) + 1j * rng.standard_normal((64, 2, 4))
        y = np.einsum("bcr,brt->bct", h, mats[ranks_tx])
        ranks, metrics = detect_batch(y, h, mats)
        assert np.array_equal(ranks, ranks_tx)
        assert np.all(metrics < 1e-10)

    def test_rejects_disagreeing_batches(self, small_table):
        mats = small_table.matrices[:4]
        rng = np.random.default_rng(15)
        h = rng.standard_normal((5, 2, 4)) + 0j
        y = rng.standard_normal((4, 2, 13)) + 0j
        with pytest.raises(ValueError):
            detect_batch(y, h, mats)

    def test_symbol_errors_shrink_with_snr(self, small_table):
        # statistical harness: symbol error rate over the same trial seeds
        # must be non-increasing in SNR, up to one inversion inside the
        # binomial noise band
        mats = small_table.matrices[:16]
        trials = 3000
        h = np.empty((trials, 2, 4), dtype=complex)
        ranks_tx = np.empty(trials, dtype=np.int64)
        noise = np.empty((trials, 2, 13), dtype=complex)
        for t in range(trials):
            ranks_tx[t] = substream(16, TAG_BITS, t).integers(16)
            h[t] = draw_channel(2, 4, substream(16, TAG_CHANNEL, t))
            noise[t] = complex_normal(substream(16, TAG_NOISE, t), (2, 13))
        signal = np.einsum("bcr,brt->bct", h, mats[ranks_tx])
        sers, cis = [], []
        for snr_db in (-10.0, -5.0, 0.0, 5.0):
            sigma = 10 ** (-snr_db / 20.0)
            ranks, _ = detect_batch(signal + sigma * noise, h, mats)
            ser = float(np.mean(ranks != ranks_tx))
            sers.append(ser)
            cis.append(1.96 * np.sqrt(max(ser, 1e-12) * (1 - ser) / trials))
        inversions = sum(1 for a, b in zip(sers, sers[1:]) if b > a)
        hard = sum(
            1
            for (a, ca), (b, cb) in zip(zip(sers, cis), zip(sers[1:], cis[1:]))
            if b - cb > a + ca
        )
        assert hard == 0
        assert inversions <= 1
