"""Maximum-likelihood detection of the transmitted codeword rank.

With perfect channel knowledge the ML decision under white Gaussian noise
is the codeword minimizing ||Y - H X_r||_F^2 over the codebook.  The
reference path evaluates that residual directly; the batched path expands
it through Gram matrices so a whole chunk of pulses is decided with a few
matmuls.  Both resolve exact ties to the smallest rank.
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
    """Codebook-dependent precomputation shared by every pulse."""

    flat_conj: np.ndarray  # (n, L_R * L_T), conjugated flattened hypotheses
    row_gram: np.ndarray  # (n, L_R, L_R), X_r X_r^H


def gram_cache(member_mats: np.ndarray) -> GramCache:
    member_mats = np.asarray(member_mats)
    n = member_mats.shape[0]
    flat_conj = member_mats.reshape(n, -1).conj()
    row_gram = np.einsum("nrt,nqt->nrq", member_mats, member_mats.conj())
    return GramCache(flat_conj=flat_conj, row_gram=row_gram)


def image_norms(h: np.ndarray, cache: GramCache) -> np.ndarray:
    """||H X_r||^2 for every pulse and hypothesis, as a (batch, n) real array.

    The term depends on the channel and the codebook but not on the noise,
    so a caller deciding the same channels at several SNR points can
    compute it once and pass it to :func:`detect_batch`.
    """
    h = np.asarray(h)
    hh = np.einsum("bcr,bcq->brq", h.conj(), h)
    return np.ascontiguousarray(np.einsum("brq,nqr->bn", hh, cache.row_gram).real)


def detect_batch(
    y: np.ndarray,
    h: np.ndarray,
    member_mats: np.ndarray,
    cache: GramCache | None = None,
    image_norm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decide a batch of pulses at once.

    Expands ||Y - H X_r||^2 = ||Y||^2 - 2 Re<H^H Y, X_r> + tr(H^H H X_r X_r^H),
    so the scan over hypotheses becomes one (batch x n) matmul plus one
    contraction against the cached row Grams.

    Parameters
    ----------
    y : (batch, L_C, L_T) received pulses.
    h : (batch, L_C, L_R) channels, one per pulse.
    member_mats : (n, L_R, L_T) hypotheses (pre-scaled if applicable).
    cache : optional :func:`gram_cache` of ``member_mats``.
    image_norm : optional :func:`image_norms` of ``h`` and ``cache``.

    Returns (ranks, metrics), each of length batch.
    """
    y = np.asarray(y)
    h = np.asarray(h)
    member_mats = np.asarray(member_mats)
    if cache is None:
        cache = gram_cache(member_mats)
    if y.ndim != 3 or h.ndim != 3 or y.shape[0] != h.shape[0]:
        raise ValueError(f"batch shapes disagree: y {y.shape}, h {h.shape}")
    if image_norm is None:
        image_norm = image_norms(h, cache)
    batch = y.shape[0]
    # H^H Y, flattened to match the cached hypothesis layout
    hy = np.einsum("bcr,bct->brt", h.conj(), y).reshape(batch, -1)
    cross = (hy @ cache.flat_conj.T).real
    y_norm = np.einsum("bct,bct->b", y, y.conj()).real
    metrics = y_norm[:, None] - 2.0 * cross + image_norm
    ranks = np.argmin(metrics, axis=1)
    return ranks, metrics[np.arange(batch), ranks]
