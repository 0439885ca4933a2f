"""Fading, noise, and seeded substream tests."""

import math

import numpy as np
import pytest

from imjrc import channel
from imjrc.channel import (
    TAG_BITS,
    TAG_CHANNEL,
    TAG_DESIGN_CHANNEL,
    TAG_NOISE,
    TAG_TPS,
    complex_normal,
    draw_channel,
    draw_trials,
    snr_to_sigma2,
    substream,
)
from oracles import codeword_matrices, projected, receive


class TestSubstreams:
    def test_same_key_replays(self):
        a = substream(42, TAG_CHANNEL, 7).standard_normal(16)
        b = substream(42, TAG_CHANNEL, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_tags_decorrelate(self):
        a = substream(42, TAG_CHANNEL, 7).standard_normal(16)
        b = substream(42, TAG_NOISE, 7).standard_normal(16)
        c = substream(42, TAG_CHANNEL, 8).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_master_seed_matters(self):
        a = substream(1, TAG_BITS, 0).integers(1 << 30)
        b = substream(2, TAG_BITS, 0).integers(1 << 30)
        assert a != b

    def test_tags_are_distinct(self):
        tags = {TAG_TPS, TAG_BITS, TAG_CHANNEL, TAG_NOISE, TAG_DESIGN_CHANNEL}
        assert len(tags) == 5


ALL_TAGS = (TAG_TPS, TAG_BITS, TAG_CHANNEL, TAG_NOISE, TAG_DESIGN_CHANNEL)
# 2^96 + 1 is run entropy of exactly four uint32 words, as many as the pool
# holds; 2^128 + 3 and 2^160 + 9 are five and six, one and two beyond it
BULK_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**128 + 3, 2**160 + 9]
# (start, size): single trials of one and two words, a chunk that straddles
# 2^32, so one call mixes keys of different word counts, and the last two
# trials of two words
BULK_TRIALS = [(0, 1), (2**32 - 1, 1), (2**32, 1), (2**40 + 7, 1), (2**32 - 3, 6), (2**64 - 2, 2)]


def _substream_loop(seed, start, n_members, l_c, l_r, waveforms, size):
    """One chunk drawn trial by trial through ``substream``, the reference; its
    full-width noise projected onto the waveforms in one product for the chunk."""
    trials = range(start, start + size)
    l_t = waveforms.shape[1]
    ranks = np.array([substream(seed, TAG_BITS, t).integers(n_members) for t in trials])
    h = np.stack([draw_channel(l_c, l_r, substream(seed, TAG_CHANNEL, t)) for t in trials])
    noise = np.stack([complex_normal(substream(seed, TAG_NOISE, t), (l_c, l_t)) for t in trials])
    return ranks, h, projected(noise, waveforms)


def _bulk(seed, start, n_members, l_c, l_r, waveforms, size):
    ranks = np.empty(size, dtype=np.int64)
    h = np.empty((size, l_c, l_r), dtype=complex)
    noise_w = np.empty((size, l_c, len(waveforms)), dtype=complex)
    draw_trials(seed, start, n_members, waveforms, ranks, h, noise_w)
    return ranks, h, noise_w


class TestBulkSeeding:
    @pytest.mark.parametrize("seed", BULK_SEEDS)
    def test_states_equal_seedsequence(self, seed):
        # the words PCG64 asks a SeedSequence for, one C-contiguous row a stream
        for start, size in BULK_TRIALS:
            seeds = channel._stream_seeds(seed, ALL_TAGS, start, size)
            assert seeds.shape == (len(ALL_TAGS), size, 4) and seeds.flags.c_contiguous
            for tag, tag_seeds in zip(ALL_TAGS, seeds):
                want = [
                    np.random.SeedSequence(seed, spawn_key=(tag, t)).generate_state(4, np.uint64)
                    for t in range(start, start + size)
                ]
                assert np.array_equal(tag_seeds, want)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            channel._stream_seeds(-1, (TAG_BITS,), 0, 1)

    @pytest.mark.parametrize("start,size", [(2**64 - 2, 3), (2**64, 1), (2**70, 4), (-1, 2)])
    def test_rejects_trials_beyond_two_words(self, start, size):
        with pytest.raises(ValueError, match=r"0 \.\. 2\*\*64 - 1"):
            channel._stream_seeds(1729, (TAG_BITS,), start, size)


class TestDrawTrials:
    @pytest.mark.parametrize("seed", [1729, 2**64 + 5])
    @pytest.mark.parametrize("start,size", [(0, 300), (2**32 - 150, 300)])
    def test_small_scenario_equals_substream_loop(self, small_params, small_table, seed, start, size):
        dims = (16, small_params.L_C, small_params.L_R, small_table.waveforms, size)
        got = _bulk(seed, start, *dims)
        want = _substream_loop(seed, start, *dims)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("start,size", [(0, 1024), (1024, 1000)])
    def test_default_scenario_equals_substream_loop(self, default_params, default_table, start, size):
        n_members = 1 << default_table.derived.B
        dims = (n_members, default_params.L_C, default_params.L_R, default_table.waveforms, size)
        seed = default_params.master_seed
        got = _bulk(seed, start, *dims)
        want = _substream_loop(seed, start, *dims)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    # chunks of one block, a block and one trial (a one-trial tail would be a
    # one-row product at L_C = 1), and two blocks and one trial
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 129])
    @pytest.mark.parametrize("l_c", [1, 4])
    def test_blocks_project_as_one_product(self, default_params, default_table, l_c, size):
        dims = (256, l_c, default_params.L_R, default_table.waveforms, size)
        got = _bulk(2718, 77, *dims)
        want = _substream_loop(2718, 77, *dims)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_rejects_unusable_buffers(self, small_table):
        waveforms = small_table.waveforms  # M = 3
        ranks = np.empty(4, dtype=np.int64)
        h = np.empty((4, 2, 3), dtype=complex)
        noise_w = np.empty((4, 2, 6), dtype=complex)
        draw_trials(1, 0, 8, waveforms, ranks, h, noise_w[:, :, ::2])  # any layout
        for bad_h, bad_noise_w in (
            (h[:3], noise_w[:, :, :3]),  # a trial short
            (h, noise_w[:, :1, :3]),  # an antenna short
            (h, noise_w[:, :, :4]),  # a carrier too many
            (h[:, :, ::2], noise_w[:, :, :3]),  # h is drawn into in place
        ):
            with pytest.raises(ValueError):
                draw_trials(1, 0, 8, waveforms, ranks, bad_h, bad_noise_w)


class TestComplexNormal:
    def test_shape_and_dtype(self):
        z = complex_normal(np.random.default_rng(0), (3, 5))
        assert z.shape == (3, 5)
        assert z.dtype == np.complex128

    def test_unit_variance_split_between_components(self):
        z = complex_normal(np.random.default_rng(1), (400, 250))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)
        assert np.var(z.real) == pytest.approx(0.5, abs=0.02)
        assert np.var(z.imag) == pytest.approx(0.5, abs=0.02)
        assert abs(np.mean(z)) < 0.01


class TestDrawChannel:
    def test_shape(self):
        h = draw_channel(4, 6, np.random.default_rng(2))
        assert h.shape == (4, 6)
        assert h.dtype == np.complex128

    def test_unit_average_entry_power(self):
        rng = np.random.default_rng(3)
        draws = np.stack([draw_channel(4, 6, rng) for _ in range(4000)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_unit_received_entry_power(self, small_table):
        # E|row of H times codeword|^2 is 1 per entry because codeword rows
        # carry 1/L_R power each; this anchors the snr = 1/sigma^2 convention
        x = codeword_matrices(small_table, [3])[0]
        rng = np.random.default_rng(4)
        acc = 0.0
        trials = 3000
        for _ in range(trials):
            h = draw_channel(2, 4, rng)
            acc += np.mean(np.abs(h @ x) ** 2)
        assert acc / trials == pytest.approx(1.0, abs=0.02)


class TestSnrToSigma2:
    @pytest.mark.parametrize(
        "snr_db,sigma2",
        [(0.0, 1.0), (10.0, 0.1), (-10.0, 10.0), (20.0, 0.01), (3.0, 10 ** (-0.3))],
    )
    def test_known_values(self, snr_db, sigma2):
        assert snr_to_sigma2(snr_db) == pytest.approx(sigma2, rel=1e-12)

    def test_infinite_snr_is_noiseless(self):
        assert snr_to_sigma2(math.inf) == 0.0


class TestReceive:
    def test_noiseless_is_exact_product(self, small_table):
        x = codeword_matrices(small_table, [0])[0]
        rng = np.random.default_rng(5)
        h = draw_channel(2, 4, rng)
        y = receive(x, h, 0.0, rng)
        assert np.array_equal(y, h @ x)

    def test_noise_power_matches_sigma2(self, small_table):
        x = codeword_matrices(small_table, [1])[0]
        rng = np.random.default_rng(6)
        h = draw_channel(2, 4, rng)
        sigma2 = 0.25
        residuals = []
        for _ in range(2000):
            y = receive(x, h, sigma2, rng)
            residuals.append(np.abs(y - h @ x) ** 2)
        assert np.mean(residuals) == pytest.approx(sigma2, rel=0.05)

    def test_deterministic_given_stream(self, small_table):
        x = codeword_matrices(small_table, [2])[0]
        h = draw_channel(2, 4, substream(7, TAG_CHANNEL, 0))
        a = receive(x, h, 0.5, substream(7, TAG_NOISE, 0))
        b = receive(x, h, 0.5, substream(7, TAG_NOISE, 0))
        assert np.array_equal(a, b)

    def test_rejects_mismatched_shapes(self, small_table):
        x = codeword_matrices(small_table, [0])[0]
        rng = np.random.default_rng(8)
        h = draw_channel(2, 3, rng)
        with pytest.raises(ValueError):
            receive(x, h, 0.1, rng)
