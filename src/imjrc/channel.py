"""Rayleigh block-fading channel, noise, and deterministic random streams.

Every random draw in the package comes from a named substream of one
master seed: ``substream(master_seed, tag, *key)``.  Per-pulse streams are
keyed by the trial index alone, so a pulse sees the same channel, payload,
and noise realization regardless of scheme, SNR point, or how trials are
chunked.  That makes scheme comparisons paired and results reproducible
bit for bit.

:func:`draw_trials` draws a chunk of per-pulse streams without building a
``SeedSequence`` per stream.  numpy mixes the master seed and each tag
into a ``SeedSequence`` pool; a port of its documented mixing, over uint32
arrays, mixes in the trial words of the whole chunk at once, and numpy's
own ``PCG64`` seeds each stream from the words that gives, as it would
from the ``SeedSequence``.  The draws are the ones ``substream`` gives,
bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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

# trials whose raw normals are combined into complex entries per block, so
# the complex temporaries stay small whatever the chunk size
_DRAW_BLOCK = 64


def _hashmix(values: list[np.ndarray], const: int, mult: int) -> list[np.ndarray]:
    """SeedSequence's ``hashmix`` of each of ``values`` in turn, from running constant ``const``."""
    hashed = []
    for value in values:
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        hashed.append(value ^ (value >> _XSHIFT))
    return hashed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _stream_seeds(master_seed: int, tags: Sequence[int], start: int, size: int) -> np.ndarray:
    """PCG64 seed words of ``substream(master_seed, tag, trial)``, (tags, trials, 4) uint64.

    Covers trials ``start .. start + size - 1``; each stream's four words
    are one C-contiguous row.  numpy mixes the master seed and the tag into
    each tag's pool (``SeedSequence(master_seed, spawn_key=(tag,)).pool``);
    this goes on from there as ``SeedSequence`` would, mixing in each
    trial's low uint32 word and, for a trial at or above 2^32, its high
    word, then hashing the pool out into the words ``PCG64`` asks for.
    """
    if start < 0 or start + size > 1 << 64:
        raise ValueError(f"trials {start} .. {start + size - 1} lie outside 0 .. 2**64 - 1")
    pools = np.array([np.random.SeedSequence(master_seed, spawn_key=(tag,)).pool for tag in tags])
    # numpy's hashmix calls so far: 4 to fill the pool from the run words
    # (padded to 4), 12 to cross-mix it, 4 per run word beyond it, 4 for the tag
    run_words = max(_POOL_SIZE, -(-int(master_seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 20 + 4 * (run_words - _POOL_SIZE), 1 << 32) & _MASK32
    trials = np.arange(size, dtype=np.uint64) + np.uint64(start)
    low = (trials & np.uint64(_MASK32)).astype(np.uint32)
    high = (trials >> np.uint64(32)).astype(np.uint32)
    # each word is mixed into every pool word; a trial below 2^32 has no high word
    hashed = _hashmix([low] * _POOL_SIZE + [high] * _POOL_SIZE, const, _MULT_A)
    pool = [_mix(pools[:, dst, None], hashed[dst]) for dst in range(_POOL_SIZE)]
    pool = [np.where(high != 0, _mix(w, hashed[_POOL_SIZE + dst]), w) for dst, w in enumerate(pool)]
    words = _hashmix([pool[i % _POOL_SIZE] for i in range(2 * _POOL_SIZE)], _INIT_B, _MULT_B)
    words = [w.astype(np.uint64) for w in words]
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(words[::2], words[1::2])], axis=-1)


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
    master_seed: int,
    start: int,
    n_members: int,
    ranks: np.ndarray,
    h: np.ndarray,
    noise: np.ndarray,
) -> None:
    """Draw trials ``start .. start + len(ranks) - 1`` into the given buffers.

    Trial t fills ``ranks[i]``, ``h[i]`` (L_C x L_R) and ``noise[i]``
    (L_C x L_T), i = t - start, with exactly what these give::

        substream(master_seed, TAG_BITS, t).integers(n_members)
        draw_channel(L_C, L_R, substream(master_seed, TAG_CHANNEL, t))
        complex_normal(substream(master_seed, TAG_NOISE, t), (L_C, L_T))

    ``h`` and ``noise`` must be C-contiguous complex arrays.  The chunk's
    seed words are mixed in one pass.  Each trial's raw normals are drawn
    into the bytes of its own slot, and each block of trials is combined
    into complex entries there, so no scratch or temporary grows with the
    chunk.
    """
    size = len(ranks)
    if h.shape[0] != size or noise.shape[0] != size:
        raise ValueError(f"buffers disagree: {size} ranks, h {h.shape}, noise {noise.shape}")
    if not (h.flags.c_contiguous and noise.flags.c_contiguous):
        raise ValueError("h and noise must be C-contiguous")
    raw_h = h.view(float).reshape(size, 2, *h.shape[1:])
    raw_noise = noise.view(float).reshape(size, 2, *noise.shape[1:])
    seeds = _stream_seeds(master_seed, (TAG_BITS, TAG_CHANNEL, TAG_NOISE), start, size)
    for s in range(0, size, _DRAW_BLOCK):
        e = min(size, s + _DRAW_BLOCK)
        for i in range(s, e):
            bits, channel, unit_noise = (
                np.random.Generator(np.random.PCG64(_SeedWords(words))) for words in seeds[:, i]
            )
            ranks[i] = bits.integers(n_members)
            channel.standard_normal(out=raw_h[i])
            unit_noise.standard_normal(out=raw_noise[i])
        # the right-hand sides read the block's raw normals before they are overwritten
        h[s:e] = (raw_h[s:e, 0] + 1j * raw_h[s:e, 1]) / np.sqrt(2.0)
        noise[s:e] = (raw_noise[s:e, 0] + 1j * raw_noise[s:e, 1]) / np.sqrt(2.0)


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
