"""Maximum-likelihood detection of the transmitted codeword rank.

With perfect channel knowledge the ML decision under white Gaussian noise
is the codeword minimizing ||Y - H X_r||_F^2 over the codebook.  This
module decides a chunk of simulated pulses Y = H X_s + sigma N,
with X_s the sent codeword and N unit noise.  ||Y||^2 is the same for
every hypothesis, so the decision is the argmin over r of

    base - 2 sigma cross,
    base  = ||H X_r||^2 - 2 Re<H^H H X_s, X_r>,
    cross = Re<H^H N, X_r>,

where <A, B> = sum A conj(B).  The work splits in two stages.
:func:`channel_terms` forms H^H H and H^H N W^H, which no codebook changes,
once per chunk.  :func:`codebook_terms` writes one codebook's two
(chunk x n) terms into buffers the caller owns, so a run that reuses them
allocates no (chunk x n) array per chunk; each SNR point is then one axpy
into a third buffer and one argmin, :func:`decide`.

The inner products are taken in the carrier domain.  Antenna row l of
member r is the row's coefficient times one of the M sampled waveforms W
(M x L_T), coef[l] W[c[r, l]], so <V, X_r> = sum_l conj(coef[l]) (V W^H)[l,
c[r, l]].  A pulse's L_R x L_T matrix V reduces to the L_R x M matrix V W^H,
and the carrier map, an (L_R M x n) matrix holding conj(coef[l]) at row
l M + c[r, l] of column r, turns those L_R M numbers into all n inner
products with one matmul (so :mod:`imjrc.channel` draws the noise as
N W^H).  ||H X_r||^2 is <H^H H, X_r X_r^H> over the row Grams in the same
way.  Exact ties resolve to the smallest rank.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class GramCache(NamedTuple):
    """Codebook-dependent precomputation shared by every pulse.

    The two maps are stored in the real form :func:`_real_rows` gives, so
    the real part of a complex product is one real matmul.
    """

    member_spectra: np.ndarray  # (n, L_R, M), X_r W^H
    gram_map: np.ndarray  # (2 L_R^2, n), conjugated row Grams X_r X_r^H
    carrier_map: np.ndarray  # (2 L_R M, n), the carrier map


def _real_rows(m: np.ndarray) -> np.ndarray:
    """(2K, n) real matrix B such that ``a.view(float) @ B == Re(a @ m)``.

    ``a`` is a contiguous complex (batch, K) array, whose float view
    interleaves the real and imaginary part of each entry.
    """
    return np.stack([m.real, -m.imag], axis=1).reshape(-1, m.shape[1])


def gram_cache(coef: np.ndarray, carriers: np.ndarray, waveforms: np.ndarray) -> GramCache:
    """Precompute the maps of a codebook from its row coefficient and carrier words.

    Antenna row l of member r is ``coef[l] * waveforms[carriers[r, l]]``,
    ``waveforms`` (M x L_T).  Member spectra are ``coef[l] G[c_rl, :]`` and
    row Grams ``coef[l] conj(coef[q]) G[c_rl, c_rq]``, with G = W W^H (one W^H copy).
    """
    carriers = np.asarray(carriers)
    if carriers.ndim != 2 or coef.shape != carriers.shape[1:]:
        raise ValueError(f"expected (n, {coef.size}) carrier indices, got shape {carriers.shape}")
    n, l_r = carriers.shape
    m = waveforms.shape[0]
    g = waveforms @ np.conjugate(waveforms.T, order="C")
    row_gram = np.outer(coef, coef.conj()) * g[carriers[:, :, None], carriers[:, None, :]]
    cmap = np.zeros((l_r * m, n), dtype=complex)
    cmap[np.arange(l_r) * m + carriers, np.arange(n)[:, None]] = coef.conj()
    return GramCache(
        member_spectra=coef[:, None] * g[carriers],
        gram_map=_real_rows(row_gram.reshape(n, -1).conj().T),
        carrier_map=_real_rows(cmap),
    )


def channel_terms(h: np.ndarray, noise_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H^H H, H^H N W^H) of a chunk, (batch, L_R, L_R) and (batch, L_R, M), from
    ``h`` (batch, L_C, L_R) and ``noise_w`` (batch, L_C, M), the unit noise as N W^H.
    Neither term depends on the codebook, so a chunk needs them once."""
    if h.ndim != 3 or noise_w.ndim != 3 or h.shape[0] != noise_w.shape[0]:
        raise ValueError(f"batch shapes disagree: h {h.shape}, noise_w {noise_w.shape}")
    h_adj = np.conj(h).transpose(0, 2, 1)
    return h_adj @ h, h_adj @ noise_w


def codebook_terms(
    hh: np.ndarray,
    noise_spec: np.ndarray,
    ranks: np.ndarray,
    cache: GramCache,
    base: np.ndarray,
    cross: np.ndarray,
) -> None:
    """Write (base, cross) of one codebook into the given (batch, n) buffers.

    ``hh`` and ``noise_spec`` come from :func:`channel_terms` and ``ranks``
    are the sent ranks s.  ||Y - H X_r||^2 - ||Y||^2 equals
    base - 2 sigma cross at every sigma; see :func:`decide`.
    """
    batch = hh.shape[0]
    if not len(ranks) == batch == noise_spec.shape[0] == len(base) == len(cross):
        raise ValueError(
            f"batch shapes disagree: {len(ranks)} ranks, terms {hh.shape} and {noise_spec.shape}, "
            f"buffers {base.shape} and {cross.shape}"
        )
    signal = hh @ cache.member_spectra[ranks]  # H^H H X_s W^H
    # base = image_norm - 2 * signal_term, formed in place: a - 2b and
    # (-2b) + a round the same; cross holds image_norm until it is added
    np.matmul(signal.reshape(batch, -1).view(float), cache.carrier_map, out=base)
    base *= -2.0
    base += np.matmul(hh.reshape(batch, -1).view(float), cache.gram_map, out=cross)
    np.matmul(noise_spec.reshape(batch, -1).view(float), cache.carrier_map, out=cross)


def decide(
    base: np.ndarray, cross: np.ndarray, noise_scale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """ML ranks at noise scale sigma: argmin over r of base - 2 sigma cross.

    The metric is formed in ``out``, a (batch, n) buffer, or in a new one.
    """
    # (-2 sigma cross) + base rounds as base - 2 sigma cross
    metric = np.multiply(cross, -2.0 * noise_scale, out=out)
    metric += base
    return np.argmin(metric, axis=1)
