"""ML detector tests: exactness, tie-breaks, oracle agreement, batch audit."""

import numpy as np
import pytest

from imjrc.channel import TAG_BITS, TAG_CHANNEL, TAG_NOISE, complex_normal, draw_channel, substream
from imjrc.crps import Scheme, apply_tps, build_scheme
from imjrc.detector import decide, gram_cache, noise_linear_terms
from oracles import detect


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


def _cache(table, member_ids, mats=None):
    """Gram cache of table rows ``member_ids``, or of ``mats`` built on them."""
    ids = np.asarray(member_ids)
    mats = table.matrices[ids] if mats is None else mats
    return gram_cache(mats, table.carriers[ids], table.waveforms)


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
        mats = build.member_matrices
        carriers = default_table.carriers[np.asarray(build.codebook.member_ids)]
        rebuilt = mats[:, :, 0, None] * default_table.waveforms[carriers]
        assert np.abs(rebuilt - mats).max() < 1e-12

    def test_carrier_map_layout(self, small_table):
        ids = [0, 5, 9, 17]
        cache = _cache(small_table, ids)
        m = small_table.params.M
        cmap = cache.carrier_map[0::2] - 1j * cache.carrier_map[1::2]
        assert cmap.shape == (small_table.params.L_R * m, len(ids))
        expect = np.zeros_like(cmap)
        for r, g in enumerate(ids):
            for l, c in enumerate(small_table.carriers[g]):
                expect[l * m + c, r] = np.conj(small_table.matrices[g, l, 0])
        assert np.array_equal(cmap, expect)

    @pytest.mark.parametrize("kind", ["baseline", "pruned", "scaled"])
    def test_terms_match_direct_inner_products(self, default_table, default_builds, kind):
        build = default_builds[kind]
        mats = build.member_matrices
        cache = _cache(default_table, build.codebook.member_ids, mats)
        p, d = default_table.params, default_table.derived
        ranks, h, noise = _draw(21, 64, mats.shape[0], p.L_C, p.L_R, d.L_T)
        base, cross = noise_linear_terms(h, ranks, noise, cache)
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
        mats = build.member_matrices
        cache = _cache(default_table, build.codebook.member_ids, mats)
        p, d = default_table.params, default_table.derived
        ranks, h, noise = _draw(22, 1024, mats.shape[0], p.L_C, p.L_R, d.L_T)
        base, cross = noise_linear_terms(h, ranks, noise, cache)
        assert np.array_equal(decide(base, cross, 0.0), ranks)

    def test_rejects_misshapen_carriers(self, small_table):
        with pytest.raises(ValueError):
            gram_cache(small_table.matrices[:4], small_table.carriers[:3], small_table.waveforms)


class TestDetectBatch:
    """The noise-linear batch decision against the reference :func:`detect`."""

    def test_rank_identical_to_reference_on_audit(self, small_table):
        mats = small_table.matrices[:16]
        cache = _cache(small_table, range(16))
        ranks_tx, h, noise = _draw(12, 1000, 16, 2, 4, 13)
        base, cross = noise_linear_terms(h, ranks_tx, noise, cache)
        ranks = decide(base, cross, 1.0)
        for t in range(1000):
            y = h[t] @ mats[ranks_tx[t]] + noise[t]
            single = detect(y, h[t], mats)
            assert ranks[t] == single.rank
            # the batch metric leaves out ||Y||^2, which every hypothesis shares
            metric = base[t, ranks[t]] - 2.0 * cross[t, ranks[t]] + np.sum(np.abs(y) ** 2)
            assert metric == pytest.approx(single.metric, rel=1e-6, abs=1e-9)

    def test_noiseless_batch(self, small_table):
        mats = small_table.matrices[:16]
        cache = _cache(small_table, range(16))
        rng = np.random.default_rng(14)
        ranks_tx = rng.integers(16, size=64)
        h = rng.standard_normal((64, 2, 4)) + 1j * rng.standard_normal((64, 2, 4))
        noise = rng.standard_normal((64, 2, 13)) + 1j * rng.standard_normal((64, 2, 13))
        base, cross = noise_linear_terms(h, ranks_tx, noise, cache)
        ranks = decide(base, cross, 0.0)
        assert np.array_equal(ranks, ranks_tx)
        image_norm = np.sum(np.abs(np.einsum("bcr,brt->bct", h, mats[ranks_tx])) ** 2, axis=(1, 2))
        assert np.all(np.abs(base[np.arange(64), ranks] + image_norm) < 1e-10)

    def test_rejects_disagreeing_batches(self, small_table):
        cache = _cache(small_table, range(4))
        rng = np.random.default_rng(15)
        h = rng.standard_normal((5, 2, 4)) + 0j
        noise = rng.standard_normal((4, 2, 13)) + 0j
        with pytest.raises(ValueError):
            noise_linear_terms(h, np.zeros(4, dtype=np.int64), noise, cache)
        with pytest.raises(ValueError):
            noise_linear_terms(h, np.zeros(5, dtype=np.int64), noise, cache)

    def test_symbol_errors_shrink_with_snr(self, small_table):
        # statistical harness: symbol error rate over the same trial seeds
        # must be non-increasing in SNR, up to one inversion inside the
        # binomial noise band
        cache = _cache(small_table, range(16))
        trials = 3000
        ranks_tx, h, noise = _draw(16, trials, 16, 2, 4, 13)
        base, cross = noise_linear_terms(h, ranks_tx, noise, cache)
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
