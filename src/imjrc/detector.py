"""Maximum-likelihood detection of the transmitted codeword rank.

With perfect channel knowledge the ML decision under white Gaussian noise
is the codeword minimizing ||Y - H X_r||_F^2 over the codebook.  The
reference path :func:`detect` evaluates that residual directly, one pulse
at a time.

The batched path decides a chunk of simulated pulses Y = H X_s + sigma N,
with X_s the sent codeword and N unit noise.  ||Y||^2 is the same for
every hypothesis, so the decision is the argmin over r of

    base - 2 sigma cross,
    base  = ||H X_r||^2 - 2 Re<H^H H X_s, X_r>,
    cross = Re<H^H N, X_r>,

where <A, B> = sum A conj(B).  Both (batch x n) terms are computed once per
chunk; each SNR point is then one axpy and one argmin.

The inner products are taken in the carrier domain.  Antenna row l of
member r is a coefficient times one of the M sampled waveforms W (M x
L_T), coef[r, l] W[c[r, l]], so <V, X_r> = sum_l conj(coef[r, l])
(V W^H)[l, c[r, l]].  A pulse's L_R x L_T matrix V reduces to the L_R x M
matrix V W^H, and the carrier map, an (L_R M x n) matrix holding
conj(coef[r, l]) at row l M + c[r, l] of column r, turns those L_R M
numbers into all n inner products with one matmul.  ||H X_r||^2 is
<H^H H, X_r X_r^H> over the L_R x L_R row Grams in the same way.  Exact
ties resolve to the smallest rank.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DetectionResult(NamedTuple):
    rank: int
    metric: float


def detect(
    y: np.ndarray,
    h: np.ndarray,
    member_mats: np.ndarray,
    alpha: np.ndarray | None = None,
) -> DetectionResult:
    """Decide one pulse by direct residual evaluation.

    ``member_mats[r]`` is the hypothesis for rank r; ``alpha`` optionally
    applies a row pre-scaling to every hypothesis first (for codebooks
    stored unscaled).
    """
    member_mats = np.asarray(member_mats)
    if member_mats.ndim != 3:
        raise ValueError(f"expected (n, L_R, L_T) hypotheses, got shape {member_mats.shape}")
    if alpha is not None:
        member_mats = member_mats * np.asarray(alpha)[None, :, None]
    if h.shape[1] != member_mats.shape[1]:
        raise ValueError(
            f"channel columns ({h.shape[1]}) must match codeword rows ({member_mats.shape[1]})"
        )
    if y.shape != (h.shape[0], member_mats.shape[2]):
        raise ValueError(
            f"received pulse must have shape {(h.shape[0], member_mats.shape[2])}, got {y.shape}"
        )
    images = np.einsum("cr,nrt->nct", h, member_mats)
    diff = y[None, :, :] - images
    metrics = np.einsum("nct,nct->n", diff, diff.conj()).real
    rank = int(np.argmin(metrics))
    return DetectionResult(rank=rank, metric=float(metrics[rank]))


class GramCache(NamedTuple):
    """Codebook-dependent precomputation shared by every pulse.

    The two maps are stored in the real form :func:`_real_rows` gives, so
    the real part of a complex product is one real matmul.
    """

    waveforms_h: np.ndarray  # (L_T, M), W^H
    member_spectra: np.ndarray  # (n, L_R, M), X_r W^H
    gram_map: np.ndarray  # (2 L_R^2, n), conjugated row Grams X_r X_r^H
    carrier_map: np.ndarray  # (2 L_R M, n), the carrier map


def _real_rows(m: np.ndarray) -> np.ndarray:
    """(2K, n) real matrix B such that ``a.view(float) @ B == Re(a @ m)``.

    ``a`` is a contiguous complex (batch, K) array, whose float view
    interleaves the real and imaginary part of each entry.
    """
    return np.stack([m.real, -m.imag], axis=1).reshape(-1, m.shape[1])


def gram_cache(member_mats: np.ndarray, carriers: np.ndarray, waveforms: np.ndarray) -> GramCache:
    """Precompute the maps of a codebook whose rows are coefficients times waveforms.

    ``carriers[r, l]`` indexes the row of ``waveforms`` (M x L_T) that
    antenna row l of ``member_mats[r]`` is a multiple of.  Every waveform's
    sample 0 is exactly 1, so the coefficient, steering weight and any
    pre-scaling included, is ``member_mats[r, l, 0]``.
    """
    member_mats = np.asarray(member_mats)
    carriers = np.asarray(carriers)
    n, l_r, _ = member_mats.shape
    m = waveforms.shape[0]
    if carriers.shape != (n, l_r):
        raise ValueError(f"expected ({n}, {l_r}) carrier indices, got shape {carriers.shape}")
    waveforms_h = np.ascontiguousarray(waveforms.conj().T)
    row_gram = np.einsum("nrt,nqt->nrq", member_mats, member_mats.conj())
    cmap = np.zeros((l_r * m, n), dtype=complex)
    cmap[np.arange(l_r) * m + carriers, np.arange(n)[:, None]] = member_mats[:, :, 0].conj()
    return GramCache(
        waveforms_h=waveforms_h,
        member_spectra=member_mats @ waveforms_h,
        gram_map=_real_rows(row_gram.reshape(n, -1).conj().T),
        carrier_map=_real_rows(cmap),
    )


def noise_linear_terms(
    h: np.ndarray,
    ranks: np.ndarray,
    noise: np.ndarray,
    cache: GramCache,
) -> tuple[np.ndarray, np.ndarray]:
    """(base, cross) of a chunk of pulses Y = H X_s + sigma N, each (batch, n).

    ``h`` is (batch, L_C, L_R), ``ranks`` the sent ranks s and ``noise``
    (batch, L_C, L_T) the unit noise N.  ||Y - H X_r||^2 - ||Y||^2 equals
    base - 2 sigma cross at every sigma; see :func:`decide`.
    """
    h = np.asarray(h)
    noise = np.asarray(noise)
    if h.ndim != 3 or noise.ndim != 3 or not h.shape[0] == len(ranks) == noise.shape[0]:
        raise ValueError(
            f"batch shapes disagree: h {h.shape}, ranks {np.shape(ranks)}, noise {noise.shape}"
        )
    batch = h.shape[0]
    h_adj = np.conj(h).transpose(0, 2, 1)
    hh = h_adj @ h  # (batch, L_R, L_R)
    signal = hh @ cache.member_spectra[ranks]  # H^H H X_s W^H
    noise_spec = h_adj @ (noise @ cache.waveforms_h)  # H^H N W^H
    image_norm = hh.reshape(batch, -1).view(float) @ cache.gram_map
    base = image_norm - 2.0 * (signal.reshape(batch, -1).view(float) @ cache.carrier_map)
    cross = noise_spec.reshape(batch, -1).view(float) @ cache.carrier_map
    return base, cross


def decide(base: np.ndarray, cross: np.ndarray, noise_scale: float) -> np.ndarray:
    """ML ranks at noise scale sigma: argmin over r of base - 2 sigma cross."""
    return np.argmin(base - (2.0 * noise_scale) * cross, axis=1)
