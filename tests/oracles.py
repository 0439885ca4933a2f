"""Direct reference computations that the tests check the package against.

Each one computes a quantity the package computes in a faster or
restructured form: one codeword from its definition, one received pulse
``Y = H X + N``, and ML detection as a residual scan over every hypothesis.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from imjrc.channel import complex_normal
from imjrc.params import DerivedParams, SystemParams
from imjrc.signal import sampled_waveform, steering_vector


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


def receive(
    x: np.ndarray,
    h: np.ndarray,
    sigma2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One received pulse, Y = H X + N with N entries CN(0, sigma2)."""
    if sigma2 < 0.0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    if h.shape[1] != x.shape[0]:
        raise ValueError(
            f"channel columns ({h.shape[1]}) must match codeword rows ({x.shape[0]})"
        )
    noise = complex_normal(rng, (h.shape[0], x.shape[1]))
    return h @ x + np.sqrt(sigma2) * noise


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
