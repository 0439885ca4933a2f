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
noise-linear: a noise-free term and a unit-noise term, both (chunk x n),
computed in the carrier domain (see :mod:`imjrc.detector`), so the noise
is drawn as N W^H.  The channel and noise products they share are formed
once per chunk, each codebook's two terms are written into (chunk x n)
buffers allocated once per run, and each SNR point decides the chunk with
one axpy and one argmin into a third such buffer.  Early stop is tracked
per (codebook, SNR) cell at chunk boundaries, so a cell's pulse count is
the same as if it had been run alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import _DRAW_BLOCK, draw_trials, snr_to_sigma2
from .crps import SchemeBuild
from .detector import channel_terms, codebook_terms, decide, gram_cache
from .enumeration import CodewordTable, check_budget

EARLY_STOP_BIT_ERRORS = 500
"""Bit errors after which an early-stopped SNR point may end."""

CHUNK = 1024
"""Trials drawn and decided together; early stop cuts only at a multiple of it."""


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


def buffer_floats(table: CodewordTable, n_pulses: int) -> int:
    """Floats of the working set :func:`run_ber` allocates for ``n_pulses`` on ``table``,
    refused over the design budget: per trial of a chunk, three detector rows, H, N W^H,
    H^H H, H^H N W^H, and one codebook's H^H H X_s W^H and the X_s W^H it gathers; per
    trial of one block of draws, its noise and two complex temporaries; and W^H."""
    params, derived = table.params, table.derived
    l_c, l_r, m, l_t = params.L_C, params.L_R, params.M, derived.L_T
    width, n = min(CHUNK, n_pulses), 1 << derived.B
    block = min(width, _DRAW_BLOCK + 1)  # a one-trial tail joins the block before it
    per_trial = 3 * n + 2 * l_c * (l_r + m) + 2 * l_r * (l_r + 3 * m)
    floats = width * per_trial + 2 * l_t * (3 * block * l_c + m)
    sizes = f"chunk={width}, 2^B={n}, L_C={l_c}, L_T={l_t}"
    check_budget(8 * floats, "Monte Carlo buffers need", sizes)
    return floats


def run_ber(
    builds: Sequence[SchemeBuild],
    snr_db_grid: Sequence[float],
    n_pulses: int,
    early_stop: bool = False,
    timings: dict[str, float] | None = None,
) -> list[BerRecord]:
    """Measure BER at each SNR point for each build, on one set of draws.

    Returns the records build by build, in the order of ``builds``, each
    build's in grid order.  The loop runs chunk by chunk: each chunk of
    :data:`CHUNK` trials is drawn once and its channel and noise products
    are formed once; then, one build at a time, its two detector terms are
    written into the run's buffers and it is decided at every SNR point
    still active for that build.  ``early_stop`` ends a (build, SNR) cell
    at the first chunk boundary with at least :data:`EARLY_STOP_BIT_ERRORS`
    bit errors, so its ``pulses`` is a multiple of :data:`CHUNK` unless it
    ran them all; the loop ends once no cell is active.  A build's records
    equal those of a run over that build alone.  Draws are keyed by the
    table's master seed and the trial index, so without early stop the
    records do not depend on where chunks fall.  Every build must come
    from one codeword table, whose 2^B ranks the draws pick from.  The
    run's buffers must fit the design budget (:func:`buffer_floats`) before
    anything is drawn.  If ``timings`` is given, the wall seconds of
    :func:`~imjrc.channel.draw_trials`, draws and projection, go under ``draw_s``.
    """
    if not builds:
        raise ValueError("no builds to simulate")
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    if len(snr_db_grid) == 0:
        raise ValueError("SNR grid is empty")
    table = builds[0].table
    if any(build.table is not table for build in builds):
        raise ValueError("builds must share one codeword table to share draws")
    params, derived = table.params, table.derived
    buffer_floats(table, n_pulses)  # refused before anything is drawn
    width, n = min(CHUNK, n_pulses), 1 << derived.B
    caches = []
    for build in builds:
        carriers = table.carriers[list(build.codebook.member_ids)]
        caches.append(gram_cache(table.coefficients(build.alpha), carriers, table.waveforms))

    noise_scales = [math.sqrt(snr_to_sigma2(float(snr_db))) for snr_db in snr_db_grid]
    bit_errors = [[0] * len(noise_scales) for _ in builds]
    pulses = [[0] * len(noise_scales) for _ in builds]
    active = [[True] * len(noise_scales) for _ in builds]
    # allocated once: every fresh (chunk x n) array would fault its pages in again
    base_buf, cross_buf, metric_buf = np.empty((3, width, n))
    ranks_buf = np.empty(width, dtype=np.int64)
    h_buf = np.empty((width, params.L_C, params.L_R), dtype=complex)
    noise_w_buf = np.empty((width, params.L_C, params.M), dtype=complex)
    draw_s = 0.0
    done = 0
    while done < n_pulses and any(map(any, active)):
        size = min(CHUNK, n_pulses - done)
        ranks, h, noise_w = ranks_buf[:size], h_buf[:size], noise_w_buf[:size]
        base, cross, metric = base_buf[:size], cross_buf[:size], metric_buf[:size]
        t0 = time.perf_counter()
        draw_trials(params.master_seed, done, n, table.waveforms, ranks, h, noise_w)
        draw_s += time.perf_counter() - t0
        hh, noise_spec = channel_terms(h, noise_w)
        for b, cache in enumerate(caches):
            if not any(active[b]):
                continue
            codebook_terms(hh, noise_spec, ranks, cache, base, cross)
            for k, noise_scale in enumerate(noise_scales):
                if not active[b][k]:
                    continue
                decoded = decide(base, cross, noise_scale, metric)
                bit_errors[b][k] += int(np.bitwise_count(ranks ^ decoded).sum())
                pulses[b][k] += size
                if early_stop and bit_errors[b][k] >= EARLY_STOP_BIT_ERRORS:
                    active[b][k] = False
        del hh, noise_spec  # freed before the next chunk's are formed
        done += size
    if timings is not None:
        timings["draw_s"] = draw_s

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
