"""Pairwise distances and greedy worst-codeword elimination.

All distances are squared Frobenius distances between codeword matrices.
Without a channel they follow from carrier words alone
(:func:`pair_patterns`), exactly; through a channel they are taken from
the matrices (:func:`distance_matrix`).  The design objective everywhere
is the minimum pairwise distance (MED) of a member set; the greedy pass
below removes, one at a time, whichever endpoint of the current closest
pair is easier to separate from the rest, until only the target count
survives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .enumeration import CodewordTable, rank_to_bits


@dataclass(frozen=True)
class Codebook:
    """An ordered member set with its MED under the design-time metric.

    ``provenance`` names how it was produced: a recipe label of :mod:`imjrc.crps`.
    """

    member_ids: tuple[int, ...]
    med: float
    provenance: str


def _gram_distances(
    flat: np.ndarray,
    out: np.ndarray | None = None,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Squared distances between the rows of ``flat``, clamped at zero.

    Uses the Gram identity ||u - v||^2 = ||u||^2 + ||v||^2 - 2 Re<u, v>,
    one matmul for all pairs; rounding can leave tiny negatives, which the
    clamp removes.  ``out`` (n x n, float) and ``gram`` (n x n, the dtype
    of ``flat``), when given, are filled instead of allocated, so a caller
    that scores many matrices of one size reuses the same memory.
    """
    conj = flat.conj()
    sq = np.einsum("nt,nt->n", flat, conj).real
    gram = np.matmul(flat, conj.T, out=gram)
    dist = np.add(sq[:, None], sq[None, :], out=out)
    twice = gram.real
    twice *= 2.0
    dist -= twice
    return np.maximum(dist, 0.0, out=dist)


def distance_matrix(mats: np.ndarray, channel: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Frobenius distances between codeword matrices.

    Parameters
    ----------
    mats : (n, L_R, L_T) complex array of codewords.  To measure distances
        after pre-scaling, pass the scaled matrices.
    channel : optional (L_C, L_R) matrix; distances are computed between
        channel @ mats[i] instead of the codewords themselves.

    The result is exactly symmetric with a zero diagonal and no negative
    entries.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError(f"expected (n, L_R, L_T) matrices, got shape {mats.shape}")
    if channel is not None:
        mats = np.einsum("cr,nrt->nct", channel, mats)
    dist = np.triu(_gram_distances(mats.reshape(mats.shape[0], -1)), 1)
    return dist + dist.T


@dataclass(frozen=True)
class PairPatterns:
    """The row-difference pattern of every pair of n codewords.

    ``levels`` are the distinct squared distances between two sampled
    carrier waveforms, 0 first.  ``patterns[p, l]`` indexes the level of
    row l in the p-th distinct pattern, and ``index[i, j]`` is the pattern
    of codewords i and j (all zero on the diagonal).
    """

    levels: np.ndarray
    patterns: np.ndarray
    index: np.ndarray

    def distances(self, alphas: np.ndarray) -> np.ndarray:
        """Distance of each pattern under each row factor, (patterns, factors).

        The sum over levels k, in increasing order, of ``levels[k]`` times
        the summed |alpha_l|^2 of the rows at level k, divided by L_R once,
        last.  Under the identity those sums are row counts, so equal
        multisets of levels give bit-equal distances: exact rationals,
        correctly rounded, when the levels are integers.  No sum uses BLAS.
        """
        weights = np.abs(np.atleast_2d(alphas)) ** 2
        dist = np.zeros((len(self.patterns), len(weights)))
        for k in range(1, self.levels.size):
            at_level = np.zeros_like(dist)
            for l, row in enumerate(self.patterns.T):
                at_level[row == k] += weights[:, l]
            dist += self.levels[k] * at_level
        return dist / self.patterns.shape[1]

    def matrix(self, alpha: np.ndarray) -> np.ndarray:
        """All-pairs distances under one row factor: exactly symmetric, zero diagonal."""
        return self.distances(alpha)[:, 0][self.index]

    def meds(self, alphas: list[np.ndarray], member_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """MED of each set of distinct codewords under each row factor, one row per set."""
        dist, meds = self.distances(alphas), []
        for ids in member_sets:
            sub = self.index.take(ids, axis=0).take(ids, axis=1)
            np.fill_diagonal(sub, sub[0, 1])  # the diagonal holds no pair
            meds.append(dist[np.isin(np.arange(len(dist)), sub)].min(axis=0))
        return np.stack(meds)


def pair_patterns(carriers: np.ndarray, m: int, l_t: int) -> PairPatterns:
    """The row-difference patterns of the codewords with carrier words ``carriers`` (n, L_R).

    Row l of a codeword is a unit-modulus steering weight over sqrt(L_R)
    times the waveform of its carrier.  Carriers a and b are
    2 L_T - 2 sum_{t < L_T mod M} cos(2 pi k t / M) apart, k = (a - b) mod M
    folded onto min(k, M - k), as full periods of M samples cancel; every
    k != 0 gives 2 (L_T - 1) when L_T = 1 (mod M).  Patterns are numbers in
    base (level count), row 0 the most significant digit, in increasing
    order: a code space no larger than the n x n pairs is marked, a larger
    one sorted.
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
    if space <= code.size:
        seen = np.isin(np.arange(space), code)
        codes, index = np.flatnonzero(seen), (np.cumsum(seen) - 1).astype(code.dtype)[code]
    else:
        codes, index = np.unique(code, return_inverse=True)
    patterns = codes[:, None].astype(np.int64) // base ** np.arange(l_r - 1, -1, -1) % base
    return PairPatterns(levels=levels, patterns=patterns, index=index.reshape(n, n))


def med(dist: np.ndarray, members: Sequence[int]) -> tuple[float, tuple[int, int]]:
    """Minimum pairwise distance over a member set and the pair achieving it.

    Ties resolve to the lexicographically smallest (i, j) pair of global
    indices, i < j.
    """
    idx = np.asarray(sorted(members))
    if idx.size < 2:
        raise ValueError("MED needs at least two members")
    sub = dist[np.ix_(idx, idx)]
    np.fill_diagonal(sub, np.inf)
    flat = int(np.argmin(sub))
    a, b = divmod(flat, idx.size)
    i, j = int(idx[a]), int(idx[b])
    if i > j:
        i, j = j, i
    return float(sub[a, b]), (i, j)


def greedy_prune(dist: np.ndarray, target: int) -> tuple[Codebook, np.ndarray]:
    """Eliminate codewords one at a time until ``target`` remain.

    Each step finds the closest surviving pair, then removes the endpoint
    whose second-smallest distance to the rest (partner excluded) is
    smaller, i.e. the endpoint that is also crowded by someone else.  A
    tie removes the larger global index.  MED ties pick the
    lexicographically smallest pair.

    The closest pair comes from cached row minima instead of a scan of the
    whole matrix.  ``rowmin[r]`` and ``rowarg[r]`` are the minimum of row r
    of the working matrix and its first column.  ``argmin(rowmin)`` is the
    first row holding the global minimum, and ``rowarg`` of that row is its
    first column holding it: the same pair a row-major ``argmin`` over the
    whole matrix returns.  Removing a codeword sets its row and column to
    inf, which changes the cached minimum only of rows whose ``rowarg`` was
    that column, so only those rows are scanned again.

    Returns the codebook, labelled "pruned", and the MED trajectory: entry
    0 is the MED of the full set, entry q the MED after q eliminations.  The
    trajectory is non-decreasing because removing a codeword never shrinks
    any surviving pair's distance.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    if target < 2:
        raise ValueError(f"target must be >= 2, got {target}")
    if target > n:
        raise ValueError(f"target {target} exceeds {n} available codewords")

    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    rowarg = work.argmin(axis=1)
    rowmin = work[np.arange(n), rowarg]
    alive = np.ones(n, dtype=bool)
    meds = np.empty(n - target + 1)

    for step in range(n - target):
        i = int(np.argmin(rowmin))
        j = int(rowarg[i])
        if i > j:
            i, j = j, i
        meds[step] = work[i, j]
        # second-smallest distance of each endpoint, partner excluded
        row_i = work[i]
        saved = row_i[j]
        row_i[j] = np.inf
        second_i = row_i.min()
        row_i[j] = saved
        row_j = work[j]
        saved = row_j[i]
        row_j[i] = np.inf
        second_j = row_j.min()
        row_j[i] = saved
        # the more crowded endpoint goes; on a tie the larger index goes
        drop = i if second_i < second_j else j
        alive[drop] = False
        work[drop, :] = np.inf
        work[:, drop] = np.inf
        rowmin[drop] = np.inf
        stale = np.flatnonzero(alive & (rowarg == drop))
        if stale.size:
            args = work[stale].argmin(axis=1)
            rowarg[stale] = args
            rowmin[stale] = work[stale, args]

    survivors = tuple(int(g) for g in np.flatnonzero(alive))
    # eliminated rows are inf, so this is the survivor MED
    meds[-1] = rowmin.min()
    book = Codebook(member_ids=survivors, med=float(meds[-1]), provenance="pruned")
    return book, meds


def export_codebook_csv(book: Codebook, table: CodewordTable, path: str) -> None:
    """Write one row per member: rank, bit label, indices, subset, allocation."""
    b = table.derived.B
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "bits", "global_index", "freq_subset", "allocation", "provenance", "med"]
        )
        for rank, g in enumerate(book.member_ids):
            bits = "".join(map(str, rank_to_bits(rank, b)))
            writer.writerow([rank, bits, g, *table.text_of(g), book.provenance, repr(book.med)])
