"""Fading, noise, and seeded substream tests."""

import dataclasses
import math
import tracemalloc

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
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive
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


def _reseeded(table, seed, **changes):
    """``table`` drawn under another master seed, and other fields of its params."""
    return dataclasses.replace(
        table, params=dataclasses.replace(table.params, master_seed=seed, **changes)
    )


def _substream_loop(table, start, size):
    """One chunk drawn trial by trial through ``substream``, the reference; its
    full-width noise projected onto the waveforms in one product for the chunk."""
    params, waveforms = table.params, table.waveforms
    seed, trials = params.master_seed, range(start, start + size)
    ranks = np.array([substream(seed, TAG_BITS, t).integers(1 << table.derived.B) for t in trials])
    h = np.stack(
        [draw_channel(params.L_C, params.L_R, substream(seed, TAG_CHANNEL, t)) for t in trials]
    )
    shape = (params.L_C, waveforms.shape[1])
    noise = np.stack([complex_normal(substream(seed, TAG_NOISE, t), shape) for t in trials])
    return ranks, h, projected(noise, waveforms)


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

    # one trial, a block and one trial, a chunk, four chunks, and four chunks
    # of which half lie below 2^32 and half have a high word
    @pytest.mark.parametrize(
        "start,size", [(0, 1), (0, 65), (0, 300), (0, 1024), (0, 4096), (2**32 - 2048, 4096)]
    )
    def test_traced_peak_is_within_208_bytes_a_trial(self, start, size):
        # three streams' uint32 state words beside the uint64 words read from them
        tags = (TAG_BITS, TAG_CHANNEL, TAG_NOISE)
        channel._stream_seeds(1729, tags, start, size)  # warm imports and caches
        tracemalloc.start()
        try:
            seeds = channel._stream_seeds(1729, tags, start, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seeds.nbytes < peak <= 208 * size + 4096


class TestDrawTrials:
    @pytest.mark.parametrize("seed", [1729, 2**64 + 5])
    @pytest.mark.parametrize("start,size", [(0, 300), (2**32 - 150, 300)])
    def test_small_scenario_equals_substream_loop(self, small_table, seed, start, size):
        table = _reseeded(small_table, seed)
        got = draw_trials(table, start, size)
        want = _substream_loop(table, start, size)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("start,size", [(0, 1024), (1024, 1000)])
    def test_default_scenario_equals_substream_loop(self, default_table, start, size):
        got = draw_trials(default_table, start, size)
        want = _substream_loop(default_table, start, size)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    # chunks of one block, a block and one trial (a one-trial tail would be a
    # one-row product at L_C = 1), and two blocks and one trial
    @pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 129])
    @pytest.mark.parametrize("l_c", [1, 4])
    def test_blocks_project_as_one_product(self, default_table, l_c, size):
        table = _reseeded(default_table, 2718, L_C=l_c)
        got = draw_trials(table, 77, size)
        want = _substream_loop(table, 77, size)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    # the default 1 us pulse over a full chunk, a 30 us pulse (L_T = 2,101)
    # over one, and a 1 ms pulse (L_T = 70,001) at three trials, where one
    # block of noise is nearly all of it
    @pytest.mark.parametrize("t_p,size", [(1e-6, 1024), (3e-5, 1024), (1e-3, 3)])
    def test_traced_peak_is_within_the_estimate(self, t_p, size):
        params = SystemParams(T_p=t_p, T_r=2 * t_p)
        table = build_table(params, derive(params))
        draw_trials(table, 0, size)  # warm imports and caches
        tracemalloc.start()
        try:
            draws = draw_trials(table, 0, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in draws) < peak <= 8 * channel.draw_floats(table, size)


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
