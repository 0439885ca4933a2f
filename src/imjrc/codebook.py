"""Pairwise distances and greedy worst-codeword elimination.

All distances are squared Frobenius distances between codeword matrices.
The design objective everywhere is the minimum pairwise distance (MED) of
a member set; the greedy pass below removes, one at a time, whichever
endpoint of the current closest pair is easier to separate from the rest,
until only the target count survives.
"""

from __future__ import annotations

import csv
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


def pair_row_distances(mats: np.ndarray) -> np.ndarray:
    """Per-antenna-row squared distances for every unordered codeword pair.

    rowdist[p, l] is ||mats[i, l] - mats[j, l]||^2 for the p-th pair i < j
    of ``np.triu_indices(n, 1)``.  Weighting rowdist by |alpha_l|^2 and
    summing over l gives the pair distance after row pre-scaling, which is
    what makes candidate scoring cheap.
    """
    mats = np.asarray(mats)
    n, l_r = mats.shape[0], mats.shape[1]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    rowdist = np.empty((n * (n - 1) // 2, l_r))
    dist, gram = np.empty((n, n)), np.empty((n, n), dtype=mats.dtype)
    for l in range(l_r):
        rowdist[:, l] = _gram_distances(mats[:, l, :], out=dist, gram=gram)[upper]
    return rowdist


def med(dist: np.ndarray, members: Sequence[int]) -> tuple[float, tuple[int, int]]:
    """Minimum pairwise distance over a member set and the pair achieving it.

    Ties resolve to the lexicographically smallest (i, j) pair of global
    indices, i < j.
    """
    idx = np.asarray(sorted(members))
    if idx.size < 2:
        raise ValueError("MED needs at least two members")
    sub = dist[np.ix_(idx, idx)].copy()
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
            writer.writerow(
                [
                    rank,
                    bits,
                    g,
                    "-".join(map(str, table.subset_of(g))),
                    "-".join(map(str, table.allocation_of(g))),
                    book.provenance,
                    repr(book.med),
                ]
            )
