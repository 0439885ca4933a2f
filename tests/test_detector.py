"""ML detector tests: exactness, tie-breaks, oracle agreement, batch audit."""

import tracemalloc

import numpy as np
import pytest

from imjrc.channel import TAG_BITS, TAG_CHANNEL, TAG_NOISE, complex_normal, draw_channel, substream
from imjrc.crps import Scheme, build_scheme
from imjrc.detector import channel_terms, codebook_terms, decide, gram_cache
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive
from oracles import codeword_matrices, detect, member_matrices, projected


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
        mats = codeword_matrices(small_table, range(16))
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
        a = codeword_matrices(small_table, [2])[0]
        mats = np.stack([5.0 * a, a, 4.0 * a, -a])
        h = draw_channel(2, 4, substream(6, TAG_CHANNEL, 0))
        y = np.zeros((2, 13), dtype=complex)
        result = detect(y, h, mats)
        assert result.rank == 1

    def test_duplicate_hypotheses_take_smallest_rank(self, small_table):
        mats = codeword_matrices(small_table, range(6))
        mats[4] = mats[2]
        h = draw_channel(2, 4, substream(7, TAG_CHANNEL, 0))
        result = detect(h @ mats[4], h, mats)
        assert result.rank == 2

    def test_agrees_with_brute_force(self, small_table):
        mats = codeword_matrices(small_table, range(16))
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
        mats = codeword_matrices(small_table, range(8))
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = draw_channel(2, 4, rng)
        y = h @ (mats[5] * alpha[:, None]) + 0.1 * complex_normal(rng, (2, 13))
        via_alpha = detect(y, h, mats, alpha=alpha)
        via_mats = detect(y, h, mats * alpha[:, None])
        assert via_alpha.rank == via_mats.rank
        assert via_alpha.metric == pytest.approx(via_mats.metric, rel=1e-12)

    def test_argmin_scale_invariance(self, small_table):
        rng = np.random.default_rng(10)
        mats = codeword_matrices(small_table, range(16))
        h = draw_channel(2, 4, rng)
        y = h @ mats[7] + 0.7 * complex_normal(rng, (2, 13))
        plain = detect(y, h, mats)
        scaled = detect(3.0 * y, 3.0 * h, mats)
        assert plain.rank == scaled.rank

    def test_rejects_mismatched_dimensions(self, small_table):
        mats = codeword_matrices(small_table, range(4))
        rng = np.random.default_rng(11)
        good_h = draw_channel(2, 4, rng)
        good_y = good_h @ mats[0]
        with pytest.raises(ValueError):
            detect(good_y, draw_channel(2, 3, rng), mats)
        with pytest.raises(ValueError):
            detect(good_y[:, :-1], good_h, mats)
        with pytest.raises(ValueError):
            detect(good_y, good_h, mats[0])


def test_gram_cache_holds_one_copy_of_the_waveforms():
    # a 1 ms pulse (L_T = 70,001): W^H is formed once, beside the waveforms,
    # and the maps are formed after it is freed
    params = SystemParams(T_p=1e-3, T_r=2e-3)
    table = build_table(params, derive(params))
    _cache(table, range(256))  # warm imports and caches
    tracemalloc.start()
    try:
        cache = _cache(table, range(256))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    maps = sum(a.nbytes for a in cache)
    assert table.waveforms.nbytes < peak <= table.waveforms.nbytes + maps


def _cache(table, member_ids, alpha=None):
    """Gram cache of table rows ``member_ids``, unscaled or with rows times ``alpha``."""
    carriers = table.carriers[np.asarray(member_ids)]
    return gram_cache(table.coefficients(alpha), carriers, table.waveforms)


def _terms(h, ranks, noise, waveforms, cache):
    """(base, cross) of one chunk: its noise projected onto the waveforms, the chunk's
    terms, then the codebook's, into the caller's (batch, n) buffers, as
    :func:`imjrc.sim.run_ber` forms them."""
    base, cross = np.empty((2, len(ranks), cache.carrier_map.shape[1]))
    codebook_terms(*channel_terms(h, projected(noise, waveforms)), ranks, cache, base, cross)
    return base, cross


def _draw(seed, trials, n, l_c, l_r, l_t):
    ranks = np.empty(trials, dtype=np.int64)
    h = np.empty((trials, l_c, l_r), dtype=complex)
    noise = np.empty((trials, l_c, l_t), dtype=complex)
    for t in range(trials):
        ranks[t] = substream(seed, TAG_BITS, t).integers(n)
        h[t] = draw_channel(l_c, l_r, substream(seed, TAG_CHANNEL, t))
        noise[t] = complex_normal(substream(seed, TAG_NOISE, t), (l_c, l_t))
    return ranks, h, noise


@pytest.fixture(scope="module")
def default_builds(default_table, default_scaled_build):
    """Baseline, pruned, and pruned-then-scaled builds of the default scenario."""
    return {
        "baseline": build_scheme(Scheme.BASELINE, default_table),
        "pruned": build_scheme(Scheme.CODEBOOK_ONLY, default_table),
        "scaled": default_scaled_build,
    }


class TestCarrierDomain:
    @pytest.mark.parametrize("kind", ["baseline", "pruned", "scaled"])
    def test_coefficients_times_waveforms_reproduce_members(self, default_table, default_builds, kind):
        build = default_builds[kind]
        assert (build.tps is not None and build.tps.d_index != 0) == (kind == "scaled")
        mats, coef = member_matrices(build), default_table.coefficients(build.alpha)
        # every waveform's sample 0 is exactly 1: the coefficient is sample 0 of each row
        assert np.array_equal(mats[:, :, 0], np.broadcast_to(coef, mats.shape[:2]))
        carriers = default_table.carriers[np.asarray(build.codebook.member_ids)]
        rebuilt = coef[:, None] * default_table.waveforms[carriers]
        assert np.abs(rebuilt - mats).max() < 1e-12

    def test_carrier_map_layout(self, small_table):
        ids = [0, 5, 9, 17]
        p = small_table.params
        m = p.M
        z = np.random.default_rng(3).standard_normal((2, p.L_R))
        for alpha in (None, z[0] + 1j * z[1]):
            cache = _cache(small_table, ids, alpha)
            cmap = cache.carrier_map[0::2] - 1j * cache.carrier_map[1::2]
            assert cmap.shape == (p.L_R * m, len(ids))
            coef = small_table.steering / np.sqrt(p.L_R)
            coef = coef if alpha is None else coef * alpha
            expect = np.zeros_like(cmap)
            for r, g in enumerate(ids):
                row0 = codeword_matrices(small_table, [g], alpha)[0, :, 0]
                for l, c in enumerate(small_table.carriers[g]):
                    expect[l * m + c, r] = np.conj(coef[l])
                    # bit-equal to sample 0 of the codeword row it stands for
                    assert np.conj(row0[l]) == expect[l * m + c, r]
            assert np.array_equal(cmap, expect)

    @pytest.mark.parametrize("kind", ["baseline", "pruned", "scaled"])
    def test_terms_match_direct_inner_products(self, default_table, default_builds, kind):
        build = default_builds[kind]
        mats = member_matrices(build)
        cache = _cache(default_table, build.codebook.member_ids, build.alpha)
        p, d = default_table.params, default_table.derived
        ranks, h, noise = _draw(21, 64, mats.shape[0], p.L_C, p.L_R, d.L_T)
        base, cross = _terms(h, ranks, noise, default_table.waveforms, cache)
        images = np.einsum("bcr,nrt->bnct", h, mats)
        signal = images[np.arange(64), ranks]
        image_norm = np.einsum("bnct,bnct->bn", images, images.conj()).real
        want_base = image_norm - 2.0 * np.einsum("bct,bnct->bn", signal, images.conj()).real
        want_cross = np.einsum("bct,bnct->bn", noise, images.conj()).real
        assert base.shape == cross.shape == (64, mats.shape[0])
        assert np.abs(base - want_base).max() < 1e-9
        assert np.abs(cross - want_cross).max() < 1e-9

    @pytest.mark.parametrize("kind", ["baseline", "pruned", "scaled"])
    def test_zero_noise_decodes_every_rank(self, default_table, default_builds, kind):
        # sigma = 0 is the math.inf grid point of acceptance check 5(a)
        build = default_builds[kind]
        mats = member_matrices(build)
        cache = _cache(default_table, build.codebook.member_ids, build.alpha)
        p, d = default_table.params, default_table.derived
        ranks, h, noise = _draw(22, 1024, mats.shape[0], p.L_C, p.L_R, d.L_T)
        base, cross = _terms(h, ranks, noise, default_table.waveforms, cache)
        assert np.array_equal(decide(base, cross, 0.0), ranks)

    def test_rejects_misshapen_carriers(self, small_table):
        coef, carriers = small_table.coefficients(), small_table.carriers[:4]
        w = small_table.waveforms
        for bad_coef, bad_carriers in (
            (coef, carriers[:, :3]),  # one carrier short per member
            (coef, carriers[0]),  # not one carrier word per member
            (np.append(coef, coef[0]), carriers),  # a coefficient too many
            (coef[:3], carriers),  # a coefficient short
        ):
            with pytest.raises(ValueError):
                gram_cache(bad_coef, bad_carriers, w)


class TestDetectBatch:
    """The noise-linear batch decision against the reference :func:`detect`."""

    def test_rank_identical_to_reference_on_audit(self, small_table):
        mats = codeword_matrices(small_table, range(16))
        cache = _cache(small_table, range(16))
        ranks_tx, h, noise = _draw(12, 1000, 16, 2, 4, 13)
        base, cross = _terms(h, ranks_tx, noise, small_table.waveforms, cache)
        ranks = decide(base, cross, 1.0)
        for t in range(1000):
            y = h[t] @ mats[ranks_tx[t]] + noise[t]
            single = detect(y, h[t], mats)
            assert ranks[t] == single.rank
            # the batch metric leaves out ||Y||^2, which every hypothesis shares
            metric = base[t, ranks[t]] - 2.0 * cross[t, ranks[t]] + np.sum(np.abs(y) ** 2)
            assert metric == pytest.approx(single.metric, rel=1e-6, abs=1e-9)

    def test_noiseless_batch(self, small_table):
        mats = codeword_matrices(small_table, range(16))
        cache = _cache(small_table, range(16))
        rng = np.random.default_rng(14)
        ranks_tx = rng.integers(16, size=64)
        h = rng.standard_normal((64, 2, 4)) + 1j * rng.standard_normal((64, 2, 4))
        noise = rng.standard_normal((64, 2, 13)) + 1j * rng.standard_normal((64, 2, 13))
        base, cross = _terms(h, ranks_tx, noise, small_table.waveforms, cache)
        ranks = decide(base, cross, 0.0)
        assert np.array_equal(ranks, ranks_tx)
        image_norm = np.sum(np.abs(np.einsum("bcr,brt->bct", h, mats[ranks_tx])) ** 2, axis=(1, 2))
        assert np.all(np.abs(base[np.arange(64), ranks] + image_norm) < 1e-10)

    def test_rejects_disagreeing_batches(self, small_table):
        cache = _cache(small_table, range(4))
        rng = np.random.default_rng(15)
        h = rng.standard_normal((5, 2, 4)) + 0j
        noise_w = rng.standard_normal((4, 2, 3)) + 0j
        with pytest.raises(ValueError):
            channel_terms(h, noise_w)
        with pytest.raises(ValueError):
            channel_terms(h[:4], noise_w[0])
        hh, noise_spec = channel_terms(h[:4], noise_w)
        base, cross = np.empty((2, 4, 4))
        for ranks, buffers in (
            (np.zeros(5, dtype=np.int64), (base, cross)),  # a rank too many
            (np.zeros(4, dtype=np.int64), (base[:3], cross)),  # a buffer row short
            (np.zeros(4, dtype=np.int64), (base, cross[:3])),
        ):
            with pytest.raises(ValueError):
                codebook_terms(hh, noise_spec, ranks, cache, *buffers)

    def test_reused_buffers_decide_like_the_reference(self, small_table):
        # one working set, as run_ber holds it: a full chunk, then a shorter
        # one through [:size] views that still hold the full chunk's terms
        mats = codeword_matrices(small_table, range(16))
        cache = _cache(small_table, range(16))
        base_buf, cross_buf, metric_buf = np.empty((3, 64, 16))
        for seed, size in ((17, 64), (18, 23)):
            ranks_tx, h, noise = _draw(seed, size, 16, 2, 4, 13)
            base, cross, metric = base_buf[:size], cross_buf[:size], metric_buf[:size]
            noise_w = projected(noise, small_table.waveforms)
            codebook_terms(*channel_terms(h, noise_w), ranks_tx, cache, base, cross)
            for sigma in (0.5, 2.0):
                ranks = decide(base, cross, sigma, metric)
                ys = h @ mats[ranks_tx] + sigma * noise
                assert ranks.tolist() == [detect(ys[t], h[t], mats).rank for t in range(size)]
                assert np.array_equal(ranks, metric.argmin(axis=1))

    def test_symbol_errors_shrink_with_snr(self, small_table):
        # statistical harness: symbol error rate over the same trial seeds
        # must be non-increasing in SNR, up to one inversion inside the
        # binomial noise band
        cache = _cache(small_table, range(16))
        trials = 3000
        ranks_tx, h, noise = _draw(16, trials, 16, 2, 4, 13)
        base, cross = _terms(h, ranks_tx, noise, small_table.waveforms, cache)
        sers, cis = [], []
        for snr_db in (-10.0, -5.0, 0.0, 5.0):
            ranks = decide(base, cross, 10 ** (-snr_db / 20.0))
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
