"""Monte Carlo BER measurement and SNR-gain readout.

One trial is one pulse: draw a uniform payload rank, a fresh Rayleigh
channel, and fresh noise; transmit the ranked codeword; ML-decode; count
bit errors as the Hamming distance between the natural-binary labels of
the sent and decoded ranks.  Per-trial substreams keyed by trial index
make every cell of the (scheme x SNR) grid reuse the same channel and
payload realizations, so scheme comparisons are paired.

The loop is chunk-outer: a chunk of trials is drawn once and then decided
for every codebook at every SNR point, instead of being redrawn for each
codebook or point.  The received pulse is never formed.  Its ML metric is
noise-linear: a noise-free term and a unit-noise term, both (batch x n),
are computed once per chunk and codebook in the carrier domain (see
:mod:`imjrc.detector`), and each SNR point decides the chunk with one
axpy and one argmin.  Early stop is tracked per (codebook, SNR) cell at
chunk boundaries, so a cell's pulse count is the same as if it had been
run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import draw_trials, snr_to_sigma2
from .crps import SchemeBuild
from .detector import decide, gram_cache, noise_linear_terms
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
    builds: Sequence[SchemeBuild],
    table: CodewordTable,
    snr_db_grid: Sequence[float],
    n_pulses: int,
    master_seed: int | None = None,
    early_stop: bool = False,
    batch: int = 1024,
) -> list[BerRecord]:
    """Measure BER at each SNR point for each build, on one set of draws.

    Returns the records build by build, in the order of ``builds``, each
    build's in grid order.  The loop runs chunk by chunk: each chunk of
    ``batch`` trials is drawn once; then, one build at a time, its two
    detector terms are computed and it is decided at every SNR point
    still active for that build.  ``early_stop`` ends a (build, SNR) cell
    at the first chunk boundary with at least :data:`EARLY_STOP_BIT_ERRORS`
    bit errors; the record's ``pulses`` reflects the trials actually run
    in that cell, and the loop ends once no cell is active.  A build's
    records equal those of a run over that build alone, and results are
    independent of ``batch``, because randomness is keyed by trial index.
    """
    if not builds:
        raise ValueError("no builds to simulate")
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if len(snr_db_grid) == 0:
        raise ValueError("SNR grid is empty")
    n_members = builds[0].member_matrices.shape[0]
    if any(build.member_matrices.shape[0] != n_members for build in builds):
        sizes = [build.member_matrices.shape[0] for build in builds]
        raise ValueError(f"builds must share one member count to share draws, got {sizes}")
    params, derived = table.params, table.derived
    seed = params.master_seed if master_seed is None else master_seed
    caches = [
        gram_cache(
            build.member_matrices,
            table.carriers[np.asarray(build.codebook.member_ids)],
            table.waveforms,
        )
        for build in builds
    ]

    noise_scales = [math.sqrt(snr_to_sigma2(float(snr_db))) for snr_db in snr_db_grid]
    bit_errors = [[0] * len(noise_scales) for _ in builds]
    pulses = [[0] * len(noise_scales) for _ in builds]
    active = [[True] * len(noise_scales) for _ in builds]
    # one set of draw buffers serves every chunk; allocating them per chunk
    # fragments the heap and raises the peak resident memory of a run
    width = min(batch, n_pulses)
    ranks_buf = np.empty(width, dtype=np.int64)
    h_buf = np.empty((width, params.L_C, params.L_R), dtype=complex)
    noise_buf = np.empty((width, params.L_C, derived.L_T), dtype=complex)
    done = 0
    while done < n_pulses and any(map(any, active)):
        size = min(batch, n_pulses - done)
        ranks, h, noise = ranks_buf[:size], h_buf[:size], noise_buf[:size]
        draw_trials(seed, done, n_members, ranks, h, noise)
        for b, cache in enumerate(caches):
            if not any(active[b]):
                continue
            base, cross = noise_linear_terms(h, ranks, noise, cache)
            for k, noise_scale in enumerate(noise_scales):
                if not active[b][k]:
                    continue
                decoded = decide(base, cross, noise_scale)
                bit_errors[b][k] += int(np.bitwise_count(ranks ^ decoded).sum())
                pulses[b][k] += size
                if early_stop and bit_errors[b][k] >= EARLY_STOP_BIT_ERRORS:
                    active[b][k] = False
            # freed before the next build's terms, which would otherwise
            # raise the run's peak memory by two (batch x n) arrays
            del base, cross
        done += size

    records = []
    for build, build_pulses, build_errors in zip(builds, pulses, bit_errors):
        for snr_db, cell_pulses, cell_errors in zip(snr_db_grid, build_pulses, build_errors):
            n_bits = cell_pulses * derived.B
            ber = cell_errors / n_bits
            records.append(
                BerRecord(
                    scheme=build.scheme.value,
                    snr_db=float(snr_db),
                    pulses=cell_pulses,
                    bit_errors=cell_errors,
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
