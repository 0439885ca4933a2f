"""Monte Carlo BER measurement and SNR-gain readout.

One trial is one pulse: draw a uniform payload rank, a fresh Rayleigh
channel, and fresh noise; transmit the ranked codeword; ML-decode; count
bit errors as the Hamming distance between the natural-binary labels of
the sent and decoded ranks.  Per-trial substreams keyed by trial index
make every cell of the (scheme x SNR) grid reuse the same channel and
payload realizations, so scheme comparisons are paired.

The loop is chunk-outer: a chunk of trials is drawn once and then decided
at every SNR point, instead of being redrawn for each point.  Early stop is
tracked per SNR point at chunk boundaries, so a point's pulse count is the
same as if it had been run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    TAG_BITS,
    TAG_CHANNEL,
    TAG_NOISE,
    complex_normal,
    draw_channel,
    snr_to_sigma2,
    substream,
)
from .crps import SchemeBuild
from .detector import detect_batch, gram_cache, image_norms
from .enumeration import CodewordTable

EARLY_STOP_BIT_ERRORS = 500
"""Bit errors after which an early-stopped SNR point may end."""


@dataclass(frozen=True)
class BerRecord:
    """One (scheme, SNR) measurement."""

    scheme: str
    snr_db: float
    pulses: int
    bit_errors: int
    ber: float
    ci_halfwidth: float


@dataclass(frozen=True)
class GainReport:
    """Horizontal distance between two BER curves at one target BER."""

    scheme: str
    baseline: str
    target_ber: float
    snr_baseline: float
    snr_scheme: float
    gain_db: float


def binomial_halfwidth(ber: float, n_bits: int) -> float:
    """95% normal-approximation confidence halfwidth for a bit error rate."""
    if n_bits < 1:
        raise ValueError(f"bit count must be >= 1, got {n_bits}")
    return 1.96 * math.sqrt(ber * (1.0 - ber) / n_bits)


def run_ber(
    build: SchemeBuild,
    table: CodewordTable,
    snr_db_grid: Sequence[float],
    n_pulses: int,
    master_seed: int | None = None,
    early_stop: bool = False,
    batch: int = 1024,
) -> list[BerRecord]:
    """Measure BER at each SNR point for one scheme.

    The loop runs chunk by chunk: each chunk of ``batch`` trials is drawn
    once, its SNR-independent detector term is computed once, and then it
    is decided at every SNR point still active.  ``early_stop`` ends an SNR
    point at the first chunk boundary with at least
    :data:`EARLY_STOP_BIT_ERRORS` bit errors; the record's ``pulses``
    reflects the trials actually run at that point, and the loop ends once
    no point is active.  Results are independent of ``batch`` because
    randomness is keyed by trial index, not by chunk.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if len(snr_db_grid) == 0:
        raise ValueError("SNR grid is empty")
    params, derived = table.params, table.derived
    seed = params.master_seed if master_seed is None else master_seed
    mats = build.member_matrices
    n_members = mats.shape[0]
    b_bits = derived.B
    cache = gram_cache(mats)
    l_c, l_t = params.L_C, derived.L_T

    noise_scales = [math.sqrt(snr_to_sigma2(float(snr_db))) for snr_db in snr_db_grid]
    bit_errors = [0] * len(noise_scales)
    pulses = [0] * len(noise_scales)
    active = [True] * len(noise_scales)
    # one set of draw buffers serves every chunk; allocating them per chunk
    # fragments the heap and raises the peak resident memory of a run
    width = min(batch, n_pulses)
    ranks_buf = np.empty(width, dtype=np.int64)
    h_buf = np.empty((width, l_c, params.L_R), dtype=complex)
    noise_buf = np.empty((width, l_c, l_t), dtype=complex)
    done = 0
    while done < n_pulses and any(active):
        size = min(batch, n_pulses - done)
        ranks, h, noise = ranks_buf[:size], h_buf[:size], noise_buf[:size]
        for i in range(size):
            trial = done + i
            ranks[i] = substream(seed, TAG_BITS, trial).integers(n_members)
            h[i] = draw_channel(l_c, params.L_R, substream(seed, TAG_CHANNEL, trial))
            noise[i] = complex_normal(substream(seed, TAG_NOISE, trial), (l_c, l_t))
        image_norm = image_norms(h, cache)
        for k, noise_scale in enumerate(noise_scales):
            if not active[k]:
                continue
            # the signal is rebuilt per point rather than held across the
            # loop, which keeps one fewer chunk-sized array alive
            y = h @ mats[ranks] + noise_scale * noise
            decoded, _ = detect_batch(y, h, mats, cache, image_norm=image_norm)
            bit_errors[k] += int(np.bitwise_count(ranks ^ decoded).sum())
            pulses[k] += size
            if early_stop and bit_errors[k] >= EARLY_STOP_BIT_ERRORS:
                active[k] = False
        done += size

    records = []
    for snr_db, point_pulses, point_errors in zip(snr_db_grid, pulses, bit_errors):
        n_bits = point_pulses * b_bits
        ber = point_errors / n_bits
        records.append(
            BerRecord(
                scheme=build.scheme.value,
                snr_db=float(snr_db),
                pulses=point_pulses,
                bit_errors=point_errors,
                ber=ber,
                ci_halfwidth=binomial_halfwidth(ber, n_bits),
            )
        )
    return records


def snr_at_ber(records: Sequence[BerRecord], target_ber: float) -> float:
    """SNR where a measured curve crosses ``target_ber``.

    Interpolates linearly in (snr_db, log10 ber) between the first adjacent
    pair of grid points bracketing the target.  Raises ValueError when no
    pair brackets it (including when the only candidates hit BER 0).
    """
    if target_ber <= 0.0:
        raise ValueError(f"target BER must be positive, got {target_ber}")
    pts = sorted(records, key=lambda r: r.snr_db)
    if len(pts) < 2:
        raise ValueError("need at least two SNR points to interpolate")
    log_t = math.log10(target_ber)
    for lo, hi in zip(pts, pts[1:]):
        if hi.ber <= 0.0 or lo.ber <= 0.0:
            continue
        if lo.ber >= target_ber >= hi.ber:
            if lo.ber == hi.ber:
                return lo.snr_db
            y1, y2 = math.log10(lo.ber), math.log10(hi.ber)
            return lo.snr_db + (log_t - y1) * (hi.snr_db - lo.snr_db) / (y2 - y1)
    raise ValueError(
        f"target BER {target_ber} is not bracketed by the measured curve "
        f"({pts[0].ber:g} at {pts[0].snr_db:g} dB to {pts[-1].ber:g} at {pts[-1].snr_db:g} dB)"
    )


def measure_gain(
    baseline_records: Sequence[BerRecord],
    scheme_records: Sequence[BerRecord],
    target_ber: float,
) -> GainReport:
    """SNR gain of a scheme over a baseline at one target BER.

    Positive gain means the scheme reaches the target at a lower SNR.
    """
    snr_base = snr_at_ber(baseline_records, target_ber)
    snr_scheme = snr_at_ber(scheme_records, target_ber)
    return GainReport(
        scheme=scheme_records[0].scheme,
        baseline=baseline_records[0].scheme,
        target_ber=target_ber,
        snr_baseline=snr_base,
        snr_scheme=snr_scheme,
        gain_db=snr_base - snr_scheme,
    )
