"""Rayleigh block-fading channel, noise, and deterministic random streams.

Every random draw in the package comes from a named substream of one
master seed: ``substream(master_seed, tag, *key)``.  Per-pulse streams are
keyed by the trial index alone, so a pulse sees the same channel, payload,
and noise realization regardless of scheme, SNR point, or how trials are
chunked.  That makes scheme comparisons paired and results reproducible
bit for bit.

:func:`draw_trials` draws a chunk of per-pulse streams without building a
``SeedSequence`` per stream.  numpy mixes the master seed and each tag
into a ``SeedSequence`` pool; a port of its mixing and ``generate_state``,
in numpy's order over uint32 arrays, mixes in a chunk's trial words and
hashes out each stream's seed words, which numpy's own ``PCG64`` takes as
from the ``SeedSequence``.  The draws are the ones ``substream`` gives,
bit for bit, in new arrays, with the noise N handed on as N W^H, all the
detector reads; :func:`draw_floats` counts what a chunk's draws take.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .enumeration import CodewordTable

TAG_TPS = 1
TAG_BITS = 2
TAG_CHANNEL = 3
TAG_NOISE = 4
TAG_DESIGN_CHANNEL = 5


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one named purpose under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# trials whose full-width noise is drawn, combined and projected onto W^H at once
_DRAW_BLOCK = 64


def _stream_seeds(master_seed: int, tags: Sequence[int], start: int, size: int) -> np.ndarray:
    """PCG64 seed words of ``substream(master_seed, tag, trial)``, (tags, trials, 4) uint64.

    Covers trials ``start .. start + size - 1``; each stream's four words
    are one C-contiguous row.  numpy mixes the master seed and the tag into
    each tag's pool (``SeedSequence(master_seed, spawn_key=(tag,)).pool``);
    this goes on from there with ``SeedSequence``'s own two loops, in numpy's
    order, over one (tags, 4, trials) pool updated in place: each trial word
    is hashed and mixed into every pool word in turn, then the pool is hashed
    out into the eight uint32 words ``generate_state`` reads as four uint64.
    """
    if start < 0 or start + size > 1 << 64:
        raise ValueError(f"trials {start} .. {start + size - 1} lie outside 0 .. 2**64 - 1")
    pools = [np.random.SeedSequence(master_seed, spawn_key=(tag,)).pool for tag in tags]
    pool = np.repeat(np.array(pools)[:, :, None], size, axis=2)
    # numpy's hashmix calls so far: 4 to fill the pool from the run words
    # (padded to 4), 12 to cross-mix it, 4 per run word beyond it, 4 for the tag
    run_words = max(_POOL_SIZE, -(-int(master_seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 20 + 4 * (run_words - _POOL_SIZE), 1 << 32) & _MASK32
    trials = np.arange(size, dtype=np.uint64) + np.uint64(start)
    # a trial's low word (the uint32 cast), then its high word, which only trials from 2^32 have
    high_from = min(max((1 << 32) - start, 0), size)
    words = (0, trials.astype(np.uint32)), (high_from, (trials[high_from:] >> 32).astype(np.uint32))
    for first, word in words:
        for dst in range(_POOL_SIZE):
            hashed = word ^ np.uint32(const)
            const = const * _MULT_A & _MASK32
            hashed *= np.uint32(const)
            hashed ^= hashed >> _XSHIFT
            mixed = pool[:, dst, first:]
            np.subtract(_MIX_MULT_L * mixed, _MIX_MULT_R * hashed, out=mixed)
            mixed ^= mixed >> _XSHIFT
    del trials, words, word, hashed, mixed  # only the pool is read from here on
    state, const = np.empty((len(tags), size, 2 * _POOL_SIZE), dtype=np.uint32), _INIT_B
    for dst in range(2 * _POOL_SIZE):
        hashed = pool[:, dst % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        hashed *= np.uint32(const)
        hashed ^= hashed >> _XSHIFT
        state[:, :, dst] = hashed
    del pool, hashed  # generate_state's last line follows, one copy on a little-endian machine
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """One stream's precomputed seed words, given to ``PCG64`` as its seed sequence.

    ``PCG64`` asks for ``generate_state(4, np.uint64)``, the only request
    this answers, and reads the returned array's buffer, so ``words`` must
    be a C-contiguous (4,) uint64 row.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words


def draw_trials(
    table: CodewordTable, start: int, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials ``start .. start + size - 1`` of ``table``'s scenario, as (ranks, h, noise_w).

    Trial t gives ``ranks[i]``, ``h[i]`` (L_C x L_R) and ``noise_w[i]``
    (L_C x M), i = t - start, exactly as these do under the table's master seed,
    W being its (M, L_T) waveforms and the product one (chunk L_C, L_T) matmul::

        substream(master_seed, TAG_BITS, t).integers(2**B)
        draw_channel(L_C, L_R, substream(master_seed, TAG_CHANNEL, t))
        complex_normal(substream(master_seed, TAG_NOISE, t), (L_C, L_T)) @ W^H

    The chunk's seed words are mixed in one pass.  A trial's channel normals are
    drawn into its ``h``, and a block's noise into one buffer, reused per block.
    """
    params, n_members, (m, l_t) = table.params, 1 << table.derived.B, table.waveforms.shape
    l_c, l_r = params.L_C, params.L_R
    ranks = np.empty(size, dtype=np.int64)
    h, noise_w = np.empty((size, l_c, l_r), complex), np.empty((size, l_c, m), complex)
    raw_h = h.view(float).reshape(size, 2, l_c, l_r)
    seeds = _stream_seeds(params.master_seed, (TAG_BITS, TAG_CHANNEL, TAG_NOISE), start, size)
    raw_noise = np.empty((min(size, _DRAW_BLOCK + 1), 2, l_c, l_t))
    block_noise = np.empty((len(raw_noise), l_c, l_t), dtype=complex)
    w_adj = np.conjugate(table.waveforms.T, order="C")
    # a one-trial tail joins the block before it: at L_C = 1 it would be a
    # one-row product, which BLAS rounds as gemv, not as a row of a gemm
    bounds = [*range(0, max(size - 1, 1), _DRAW_BLOCK), size]
    for s, e in zip(bounds, bounds[1:]):
        raw, noise = raw_noise[: e - s], block_noise[: e - s]
        for i in range(s, e):
            bits, channel, unit_noise = (
                np.random.Generator(np.random.PCG64(_SeedWords(words))) for words in seeds[:, i]
            )
            ranks[i] = bits.integers(n_members)
            channel.standard_normal(out=raw_h[i])
            unit_noise.standard_normal(out=raw[i - s])
        # the right-hand side reads the block's raw normals before they are overwritten
        h[s:e] = (raw_h[s:e, 0] + 1j * raw_h[s:e, 1]) / np.sqrt(2.0)
        # the ufuncs of (re + 1j * im) / sqrt(2) in turn, so the same bits, in one buffer
        np.add(raw[:, 0], np.multiply(1j, raw[:, 1], out=noise), out=noise)
        np.true_divide(noise, np.sqrt(2.0), out=noise)
        np.matmul(noise.reshape(-1, l_t), w_adj, out=noise_w[s:e].reshape(-1, m))
    return ranks, h, noise_w


def draw_floats(table: CodewordTable, size: int) -> int:
    """Floats :func:`draw_trials` allocates at most for ``size`` trials of ``table``: per
    trial its rank, H, N W^H, and 26 floats of seed words (at most 24 held: three streams'
    uint32 state words and the uint64 words read from them); per trial of a block (at most
    ``_DRAW_BLOCK + 1``) its raw and combined noise and its channel's two complex
    temporaries; W^H; the complex buffer of ``np.getbufsize()`` entries numpy casts raw
    normals through; and 2,048 floats of seed pools, per-trial generators and headers."""
    params, (m, l_t) = table.params, table.waveforms.shape
    l_c, block = params.L_C, min(size, _DRAW_BLOCK + 1)
    trials = size * (27 + 2 * l_c * (params.L_R + m)) + block * 4 * l_c * (l_t + params.L_R)
    return trials + 2 * (m * l_t + np.getbufsize()) + 2048


def complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries, unit variance each."""
    z = rng.standard_normal((2,) + shape)
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def draw_channel(l_c: int, l_r: int, rng: np.random.Generator) -> np.ndarray:
    """One L_C x L_R Rayleigh channel, entries CN(0, 1)."""
    if l_c < 1 or l_r < 1:
        raise ValueError(f"channel dimensions must be positive, got {l_c} x {l_r}")
    return complex_normal(rng, (l_c, l_r))


def snr_to_sigma2(snr_db: float) -> float:
    """Per-entry noise variance for a given SNR in dB.

    Codewords have unit average power per transmit entry and the channel
    has unit-variance entries, so the average per-entry receive power is 1
    and SNR = 1 / sigma^2.
    """
    return 10.0 ** (-snr_db / 10.0)
