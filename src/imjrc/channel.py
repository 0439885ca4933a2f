"""Rayleigh block-fading channel, noise, and deterministic random streams.

Every random draw in the package comes from a named substream of one
master seed: ``substream(master_seed, tag, *key)``.  Per-pulse streams are
keyed by the trial index alone, so a pulse sees the same channel, payload,
and noise realization regardless of scheme, SNR point, or how trials are
chunked.  That makes scheme comparisons paired and results reproducible
bit for bit.

:func:`draw_trials` draws a chunk of per-pulse streams without building a
``SeedSequence`` per stream.  It ports numpy's documented ``SeedSequence``
mixing to uint32 arrays, vectorised over the chunk's keys, derives each
stream's PCG64 ``(state, inc)`` from it, and sets that state on one reused
``PCG64``.  The draws are the ones ``substream`` gives, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1

# trials seeded and combined per block: large enough to amortise the
# vectorised seeding, small enough that its states and temporaries stay small
_DRAW_BLOCK = 64


def _uint32_words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, as SeedSequence coerces an int."""
    if n < 0:
        raise ValueError(f"seed words must be non-negative, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


class _HashMix:
    """SeedSequence's ``hashmix`` over uint32 arrays, carrying its running constant."""

    def __init__(self, init: int, mult: int) -> None:
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence`` entropy, one key per column.

    ``entropy`` is the (words, keys) uint32 array SeedSequence assembles:
    the run entropy padded to the pool size, then the spawn key.  Returns
    the (4, keys) uint64 array ``generate_state(4, np.uint64)`` gives.
    """
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[0]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(words[::2], words[1::2])])


def _stream_states(master_seed: int, tags: Sequence[int], start: int, size: int) -> list[list[dict]]:
    """PCG64 state of ``substream(master_seed, tag, trial)``, as ``PCG64.state`` gives it.

    One list per tag, over trials ``start .. start + size - 1``.  Keys are
    mixed in groups of equal word count, since a trial index at or above
    2^32 spans more than one uint32 word.
    """
    run = _uint32_words(int(master_seed))
    run += [0] * (_POOL_SIZE - len(run))
    states: list[list[dict]] = [[] for _ in tags]
    trial, stop = start, start + size
    while trial < stop:
        n_words = len(_uint32_words(trial))
        group = range(trial, min(stop, 1 << (32 * n_words)))
        trial_words = np.array([_uint32_words(t) for t in group], dtype=np.uint32).T
        entropy = np.empty((len(run) + 1 + n_words, len(tags), len(group)), dtype=np.uint32)
        entropy[: len(run)] = np.array(run, dtype=np.uint32)[:, None, None]
        entropy[len(run)] = np.array(tags, dtype=np.uint32)[:, None]
        entropy[len(run) + 1 :] = trial_words[:, None, :]
        seeds = _pcg64_seeds(entropy.reshape(entropy.shape[0], -1)).tolist()
        for k, (s_hi, s_lo, i_hi, i_lo) in enumerate(zip(*seeds)):
            # pcg64_set_seed, then pcg_setseq_128_srandom_r
            inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            states[k // len(group)].append(
                {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
            )
        trial = group.stop
    return states


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

    ``h`` and ``noise`` must be C-contiguous complex arrays.  Each trial's
    raw normals are drawn into the bytes of its own slot, and each block of
    trials is combined into complex entries there, so no scratch or
    temporary grows with the chunk.
    """
    size = len(ranks)
    if h.shape[0] != size or noise.shape[0] != size:
        raise ValueError(f"buffers disagree: {size} ranks, h {h.shape}, noise {noise.shape}")
    if not (h.flags.c_contiguous and noise.flags.c_contiguous):
        raise ValueError("h and noise must be C-contiguous")
    raw_h = h.view(float).reshape(size, 2, *h.shape[1:])
    raw_noise = noise.view(float).reshape(size, 2, *noise.shape[1:])
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for s in range(0, size, _DRAW_BLOCK):
        e = min(size, s + _DRAW_BLOCK)
        states = _stream_states(master_seed, (TAG_BITS, TAG_CHANNEL, TAG_NOISE), start + s, e - s)
        for i, (bits, channel, unit_noise) in enumerate(zip(*states), start=s):
            bitgen.state = bits
            ranks[i] = rng.integers(n_members)
            bitgen.state = channel
            rng.standard_normal(out=raw_h[i])
            bitgen.state = unit_noise
            rng.standard_normal(out=raw_noise[i])
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
