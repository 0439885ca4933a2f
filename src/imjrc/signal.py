"""Steering weights, sampled carrier waveforms, and codeword synthesis.

A codeword is the L_R x L_T complex baseband matrix one pulse transmits:
row l carries the steering weight of antenna l times the sampled waveform
of whichever active carrier that antenna is allocated to, scaled by
1/sqrt(L_R) so every codeword has Frobenius norm squared L_T.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import C_LIGHT, DerivedParams, SystemParams


def steering_vector(params: SystemParams) -> np.ndarray:
    """Unit-modulus per-antenna weights pointing the array at ``theta``.

    Element spacing is 10 wavelengths of the carrier, so the carrier
    frequency cancels and only the pointing angle matters.
    """
    l = np.arange(params.L_R)
    d = 10.0 * C_LIGHT / params.f_c
    phase = 2.0 * np.pi * params.f_c * d * l * np.sin(params.theta) / C_LIGHT
    return np.exp(1j * phase)


def sampled_waveform(c: int, params: SystemParams, derived: DerivedParams) -> np.ndarray:
    """L_T samples of carrier offset index ``c``, phase step c/M per sample.

    Sampling at T_s = 1/(M * delta_f) makes distinct offsets orthogonal
    over any window of exactly M samples.
    """
    if not 0 <= c < params.M:
        raise ValueError(f"carrier index must lie in [0, {params.M}), got {c}")
    i = np.arange(derived.L_T)
    return np.exp(2j * np.pi * c * i / params.M)


def synthesize_codeword(
    freq_subset: Sequence[int],
    allocation: Sequence[int],
    params: SystemParams,
    derived: DerivedParams,
) -> np.ndarray:
    """Build the L_R x L_T codeword for one frequency subset and allocation.

    ``freq_subset`` lists the K active carrier offsets in strictly
    increasing order; ``allocation[l]`` names the subset slot antenna l
    transmits on, with exactly L_K antennas per slot.
    """
    if len(freq_subset) != params.K:
        raise ValueError(
            f"freq_subset must have K={params.K} entries, got {len(freq_subset)}"
        )
    for a, b in zip(freq_subset, freq_subset[1:]):
        if a >= b:
            raise ValueError(f"freq_subset must be strictly increasing, got {tuple(freq_subset)}")
    if len(allocation) != params.L_R:
        raise ValueError(
            f"allocation must have L_R={params.L_R} entries, got {len(allocation)}"
        )
    counts = [0] * params.K
    for slot in allocation:
        if not 0 <= slot < params.K:
            raise ValueError(f"allocation slots must lie in [0, {params.K}), got {slot}")
        counts[slot] += 1
    if any(n != derived.L_K for n in counts):
        raise ValueError(
            f"allocation must place L_K={derived.L_K} antennas per slot, got counts {counts}"
        )

    waveforms = np.stack([sampled_waveform(c, params, derived) for c in freq_subset])
    w = steering_vector(params)
    alloc = np.asarray(allocation)
    return w[:, None] * waveforms[alloc] / np.sqrt(params.L_R)

