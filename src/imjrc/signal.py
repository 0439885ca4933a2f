"""Steering weights and sampled carrier waveforms.

A codeword is the L_R x L_T complex baseband matrix one pulse transmits:
row l carries the steering weight of antenna l times the sampled waveform
of whichever active carrier that antenna is allocated to, scaled by
1/sqrt(L_R) so every codeword has Frobenius norm squared L_T.
:func:`imjrc.enumeration.build_table` synthesises every codeword from these.
"""

from __future__ import annotations

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
