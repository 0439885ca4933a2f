"""Direct reference computations that the tests check the package against.

Each one computes a quantity the package computes in a faster or
restructured form, or, for codeword matrices, one the package never forms:
one codeword from its definition, the matrices of a table's codewords and
of a build's members from those, one received pulse
``Y = H X + N``, a batch of noise projected onto the waveforms in one
product, ML detection as a residual scan over every hypothesis,
every pair's distance from the codeword matrices, through a channel if
given, and each candidate's MED from those, a member set's MED from a copy
of its submatrix, each pair's row-difference code built one antenna row at
a time, each pair's class from full-size int64 codes, each pair class's
distance from four gathers of the waveform Gram, in one product or one
feature at a time, and the candidate pool drawn one candidate at a time.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import itertools
import math

import numpy as np

from imjrc.channel import complex_normal
from imjrc.crps import SchemeBuild
from imjrc.enumeration import CodewordTable, enumerate_allocations, enumerate_subsets
from imjrc.params import DerivedParams, SystemParams

C_LIGHT = 3.0e8  # m/s


def synthesize_codeword(
    freq_subset: Sequence[int],
    allocation: Sequence[int],
    params: SystemParams,
    derived: DerivedParams,
) -> np.ndarray:
    """Build the L_R x L_T codeword for one frequency subset and allocation.

    ``freq_subset`` lists the K active carrier offsets in strictly
    increasing order; ``allocation[l]`` names the subset slot antenna l
    transmits on, with exactly L_K antennas per slot.  Row l is the
    steering weight of antenna l, for elements 10 wavelengths apart, times
    the waveform of its carrier c sampled at 1/(M delta_f), exp(2 pi j c i / M)
    at sample i, over sqrt(L_R).
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

    i = np.arange(derived.L_T)
    waveforms = np.stack([np.exp(2j * np.pi * c * i / params.M) for c in freq_subset])
    l = np.arange(params.L_R)
    d = 10.0 * C_LIGHT / params.f_c
    w = np.exp(1j * (2.0 * np.pi * params.f_c * d * l * np.sin(params.theta) / C_LIGHT))
    alloc = np.asarray(allocation)
    return w[:, None] * waveforms[alloc] / np.sqrt(params.L_R)


_MATRICES: dict[SystemParams, np.ndarray] = {}


def codeword_matrices(
    table: CodewordTable, ids: Sequence[int] | None = None, alpha: np.ndarray | None = None
) -> np.ndarray:
    """The (len(ids), L_R, L_T) matrices of codewords ``ids`` of ``table``, all if None,
    each row times ``alpha`` if given.

    Each codeword is :func:`synthesize_codeword` of its subset and allocation,
    in global-index order: subset-major, allocation-minor.  A table is a function of its params, so each params' matrices are
    synthesised once and copied out.
    """
    mats = _MATRICES.get(table.params)
    if mats is None:
        params = table.params
        words = itertools.product(
            enumerate_subsets(params.M, params.K), list(enumerate_allocations(params.L_R, params.K))
        )
        mats = _MATRICES[params] = np.stack(
            [synthesize_codeword(s, a, params, table.derived) for s, a in words]
        )
    mats = mats[np.arange(len(table)) if ids is None else np.asarray(ids, dtype=np.intp)]
    return mats if alpha is None else mats * np.asarray(alpha)[:, None]


def member_matrices(build: SchemeBuild) -> np.ndarray:
    """Each rank's codeword of a build, as sent under its factor."""
    return codeword_matrices(build.table, build.member_ids, build.alpha)


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


def projected(noise: np.ndarray, waveforms: np.ndarray) -> np.ndarray:
    """N W^H of a batch of full-width noise (batch, L_C, L_T), as one
    (batch L_C, L_T) x (L_T, M) product: the sufficient statistic the detector reads."""
    batch, l_c, l_t = noise.shape
    return (noise.reshape(-1, l_t) @ np.ascontiguousarray(waveforms.conj().T)).reshape(batch, l_c, -1)


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


def distance_matrix(mats: np.ndarray, channel: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Frobenius distances between codeword matrices (n, L_R, L_T).

    Through ``channel`` (L_C, L_R) the distances are those of ``channel @ mats``.
    From the Gram of the flattened matrices, ||u - v||^2 = ||u||^2 + ||v||^2
    - 2 Re<u, v>, clamped at zero, its upper triangle mirrored: exactly
    symmetric with a zero diagonal.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError(f"expected (n, L_R, L_T) matrices, got shape {mats.shape}")
    flat = (mats if channel is None else channel @ mats).reshape(len(mats), -1)
    sq = np.sum(np.abs(flat) ** 2, axis=1)
    dist = np.triu(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.conj().T).real, 0.0), 1)
    return dist + dist.T


def candidate_meds(
    candidates: Sequence[np.ndarray],
    mats: np.ndarray,
    member_sets: Sequence[Sequence[int]],
    channel: np.ndarray | None = None,
) -> np.ndarray:
    """MED of each member set (rows of ``mats``) under each row factor, one row per set."""
    meds = np.empty((len(member_sets), len(candidates)))
    for d, alpha in enumerate(candidates):
        dist = distance_matrix(mats * np.asarray(alpha)[:, None], channel)
        for s, ids in enumerate(member_sets):
            ids = np.asarray(ids)
            meds[s, d] = dist[np.ix_(ids, ids)][np.triu_indices(ids.size, 1)].min()
    return meds


def pair_pattern_codes(carriers: np.ndarray, m: int, l_t: int) -> tuple[np.ndarray, np.ndarray]:
    """The waveform distance levels and each pair's pattern code, one n x n gather per row.

    Carriers a and b are 2 L_T - 2 sum_{t < L_T mod M} cos(2 pi k t / M)
    apart, k = (a - b) mod M folded onto min(k, M - k).  A pair's code is
    its row levels as a number in base (level count), row 0 the most
    significant digit.
    """
    k, t = np.arange(m), np.arange(l_t % m)
    gaps = [2.0 * l_t - 2.0 * math.fsum(np.cos(2 * np.pi * c * t / m)) for c in k[1 : m // 2 + 1]]
    levels, level = np.unique([0.0, *gaps], return_inverse=True)
    n, l_r = carriers.shape
    base, space = levels.size, levels.size**l_r
    code = np.zeros((n, n), dtype=np.min_scalar_type(space - 1))
    level = level.astype(code.dtype)[np.minimum(k, m - k)[(k[:, None] - k[None, :]) % m]]
    for c in carriers.T:
        code *= code.dtype.type(base)
        code += np.take(level[c], c, axis=1)
    return levels, code


def pair_class_codes(
    carriers: np.ndarray, waveforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class index, class words and carrier-pair table of every pair, from n x n int64 codes.

    A word's shape is its carriers less its first, mod M, numbered in
    lexicographic order.  A pair's code is (shape_i count + shape_j) M +
    (first_j - first_i) mod M, the smaller of its two orders, with the
    diagonal's 0.  The codes are numbered by ``np.unique``; the index takes
    the smallest unsigned type of the class count when the code space,
    count^2 M, is no larger than n^2, else ``np.unique``'s own type.
    """
    m = len(waveforms)
    shapes, shape = np.unique((carriers - carriers[:, :1]) % m, axis=0, return_inverse=True)
    shape = shape.reshape(-1).astype(np.int64)
    count, first = len(shapes), carriers[:, 0].astype(np.int64)
    code = (shape[:, None] * count + shape) * m + (first - first[:, None]) % m
    code = np.minimum(code, code.T)
    np.fill_diagonal(code, 0)
    codes, index = np.unique(code, return_inverse=True)
    index = index.reshape(code.shape)
    if count * count * m <= code.size:
        index = index.astype(np.min_scalar_type(codes.size - 1))
    pair, offset = np.divmod(codes, m)
    kind = np.min_scalar_type(2 * m - 2)
    words = np.stack(
        [shapes[pair // count], (shapes[pair % count] + offset[:, None]) % m], axis=1
    ).astype(kind)
    g = waveforms @ waveforms.conj().T
    table = g[:, None, :, None] - g[:, None, None, :] - g[None, :, :, None] + g[None, :, None, :]
    return index, words, table.reshape(m * m, m * m)


def med_of_submatrix(
    dist: np.ndarray, members: Sequence[int], values: np.ndarray | None = None
) -> tuple[float, tuple[int, int]]:
    """Minimum pairwise distance over a member set and its pair, from a copy of its submatrix.

    The diagonal of the copy is masked and the first row-major minimum taken:
    the lexicographically smallest (i, j) of global indices, i < j.
    """
    idx = np.asarray(sorted(members))
    sub = dist[np.ix_(idx, idx)]
    np.fill_diagonal(sub, np.iinfo(sub.dtype).max if sub.dtype.kind in "iu" else np.inf)
    a, b = divmod(int(np.argmin(sub)), idx.size)
    i, j = sorted((int(idx[a]), int(idx[b])))
    return float(sub[a, b] if values is None else values[sub[a, b]]), (i, j)


def _hermitian_parts(h: np.ndarray, off_diagonal: float = 1.0) -> np.ndarray:
    """L^2 reals of each Hermitian (.., L, L) matrix: its diagonal, then the
    real and the imaginary parts of its upper triangle times ``off_diagonal``."""
    i, j = np.triu_indices(h.shape[-1], 1)
    upper = off_diagonal * h[..., i, j]
    return np.concatenate([np.diagonal(h, axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


def _class_parts(words: np.ndarray, waveforms: np.ndarray, block: slice) -> np.ndarray:
    """L_R^2 reals of each class's K[l, q] = G[a_l, a_q] - G[a_l, b_q] - G[b_l, a_q] + G[b_l, b_q],
    gathered from the Gram G = W W^H of the waveforms, four (classes, L_R, L_R) gathers."""
    a, b = words[block, 0], words[block, 1]
    g = waveforms @ waveforms.conj().T
    k = g[a[:, :, None], a[:, None, :]] - g[a[:, :, None], b[:, None, :]]
    k -= g[b[:, :, None], a[:, None, :]]
    k += g[b[:, :, None], b[:, None, :]]
    return _hermitian_parts(k)


def _map_parts(maps: Sequence[np.ndarray]) -> np.ndarray:
    """L_R^2 reals of each P = B^H B, off-diagonal parts twice, one row per row map B."""
    maps = np.asarray(maps)
    return _hermitian_parts(np.einsum("dcl,dcq->dlq", maps.conj(), maps), 2.0)


def class_distances(
    words: np.ndarray, waveforms: np.ndarray, maps: Sequence[np.ndarray], block: slice = slice(None)
) -> np.ndarray:
    """Distance of each pair class in ``block`` under each row map, (classes, maps), at least zero.

    The L_R^2 reals of each class's K meet those of each P in one product.
    """
    dist = _class_parts(words, waveforms, block) @ _map_parts(maps).T
    return np.maximum(dist, 0.0, out=dist)


def class_distances_in_order(words: np.ndarray, waveforms: np.ndarray, row_map: np.ndarray) -> np.ndarray:
    """Distance of each pair class under one row map, at least zero: its L_R^2
    products with the map's reals added one at a time, in the order of the reals."""
    dist = np.zeros(len(words))
    for column, weight in zip(_class_parts(words, waveforms, slice(None)).T, _map_parts([row_map])[0]):
        dist += column * weight
    return np.maximum(dist, 0.0, out=dist)


def tps_pool(d_count: int, l_r: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The identity, then d_count - 1 random power-normalised factors, one draw each."""
    candidates = [np.ones(l_r, dtype=complex)]
    for _ in range(d_count - 1):
        z = rng.standard_normal((2, l_r))
        alpha = (z[0] + 1j * z[1]) / np.sqrt(2.0)
        power = np.sum(np.abs(alpha) ** 2)
        candidates.append(alpha * np.sqrt(l_r / power))
    return candidates
