"""Pairwise distances and greedy worst-codeword elimination.

All distances are squared Frobenius distances between codeword matrices,
taken from carrier words alone: without a channel from each pair's
row-difference pattern (:func:`pair_patterns`), exactly, and through a
channel from each pair's class (:func:`pair_classes`).  Pruning reads
either as ranks (:meth:`PairPatterns.ranks`, :meth:`PairClasses.ranks`),
and no codeword matrix is formed.  The design objective everywhere is the
minimum pairwise distance (MED) of a member set; the greedy pass below
removes, one at a time, whichever endpoint of the current closest pair is
easier to separate from the rest, until only the target count survives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .enumeration import CodewordTable


@dataclass(frozen=True)
class Codebook:
    """An ordered member set with its MED under the design-time metric.

    ``provenance`` names how it was produced: a recipe label of :mod:`imjrc.crps`.
    """

    member_ids: tuple[int, ...]
    med: float
    provenance: str


_CLASS_BLOCK = 2048
"""Classes whose distances are held at once: under every factor while the
minimum over each member set's classes is taken, or under one row map
while they are ranked."""

_ROW_BLOCK = 128
"""Rows of an n x n pair index read at once: while the values a member set's
rows hold are marked (:func:`_held`), or while values are gathered through it
(:func:`_looked_up`)."""


def _numbered(code: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``code``, increasing, and each entry's position among them.

    A value space no larger than ``code`` is marked over every row from its
    own column on (:func:`_held`), so ``code`` must be symmetric, as both
    callers' are; the positions take the smallest integer type that holds
    them and are gathered through ``code`` (:func:`_looked_up`).  Neither
    walk holds a temporary as large as ``code``.  A larger space is sorted.
    """
    if space > code.size:
        codes, index = np.unique(code, return_inverse=True)
        return codes, index.reshape(code.shape)
    seen = _held(code, np.arange(len(code)), space)
    codes = np.flatnonzero(seen)
    # the count can exceed the type by one, but a wrapped sum less one is
    # still each marked value's position
    positions = np.cumsum(seen, dtype=np.min_scalar_type(codes.size - 1))
    positions -= 1
    return codes, _looked_up(positions, code)


def _distinct_rows(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows``, entries below ``base``, and each row's number among them.

    The distinct rows come in lexicographic order, as ``np.unique(rows,
    axis=0)`` gives them.  They are numbered one column at a time: a row's
    number over its first c + 1 entries is the position of its number over
    the first c, times ``base``, plus entry c.  So no integer reaches
    n ``base``, however many columns there are.
    """
    number = np.zeros(len(rows), dtype=np.intp)
    for column in rows.T:
        _, number = np.unique(number * base + column, return_inverse=True)
    distinct = np.zeros((number.max(initial=-1) + 1, rows.shape[1]), dtype=rows.dtype)
    distinct[number] = rows
    return distinct, number


def _held(index: np.ndarray, ids: np.ndarray, count: int) -> np.ndarray:
    """Which of ``count`` values the rows of members ``ids`` of an n x n ``index`` hold,
    each row from its own member on: ``index[ids][:, ids]`` on and above its diagonal.

    The rows are read :data:`_ROW_BLOCK` at a time, in place when ``ids``
    are the first codewords, in order, and gathered otherwise.
    """
    held, n = np.zeros(count, dtype=bool), len(ids)
    prefix = np.array_equal(ids, np.arange(n))
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        if prefix:
            held[index[start:stop, start:n]] = True
        else:
            held[index.take(ids[start:stop], axis=0).take(ids[start:], axis=1)] = True
    return held


def _looked_up(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]``, gathered :data:`_ROW_BLOCK` rows of ``index`` at a time straight
    into the result, so no temporary is as large as ``index``."""
    out = np.empty(index.shape, dtype=values.dtype)
    for start in range(0, len(index), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        # every entry of ``index`` is in range; "clip" writes straight into ``out``
        np.take(values, index[rows], out=out[rows], mode="clip")
    return out


def _set_minima(
    index: np.ndarray,
    count: int,
    distances: Callable[[slice], np.ndarray],
    member_sets: Sequence[Sequence[int]],
) -> np.ndarray:
    """Minimum distance of each set of distinct codewords under each factor, one row per set.

    ``index[i, j]`` is the class, one of ``count``, of codewords i and j,
    symmetric in i and j, and ``distances(block)`` the (classes, factors)
    distances of a slice of the classes, :data:`_CLASS_BLOCK` at a time.
    A set's classes are those its rows hold from each row's own member on
    (:func:`_held`), less class 0: both pair kinds keep class 0 for the
    diagonal alone, so it is held by no pair of distinct codewords.

    :meth:`PairPatterns.meds` and :meth:`PairClasses.meds` read every
    member set's MED under every factor through it.
    """
    if any(len(ids) < 2 for ids in member_sets):
        raise ValueError("candidate scoring needs at least two members")
    present = []
    for ids in member_sets:
        mask = _held(index, np.asarray(ids), count)
        mask[0] = False  # the diagonal
        present.append(mask)
    meds = []
    for start in range(0, count, _CLASS_BLOCK):
        block = slice(start, start + _CLASS_BLOCK)
        dist = distances(block)
        meds.append([dist[mask[block]].min(axis=0, initial=np.inf) for mask in present])
    return np.min(meds, axis=0)


@dataclass(frozen=True)
class PairPatterns:
    """The row-difference pattern of every pair of n codewords.

    ``levels`` are the distinct squared distances between two sampled
    carrier waveforms, 0 first.  ``patterns[p, l]`` indexes the level of
    row l in pattern p, and ``index[i, j]``, an n x n array of small
    unsigned integers, is the pattern of codewords i and j (pattern 0, no
    row differing, on the diagonal).  Patterns are numbered in increasing
    order of their codes, and when every code fits below n the number is
    the code itself, so some patterns may be held by no pair.
    """

    levels: np.ndarray
    patterns: np.ndarray
    index: np.ndarray

    def distances(self, alphas: np.ndarray, block: slice = slice(None)) -> np.ndarray:
        """Distance of each pattern in ``block`` under each row factor, (patterns, factors).

        The sum over levels k, in increasing order, of ``levels[k]`` times
        the summed |alpha_l|^2 of the rows at level k, divided by L_R once,
        last.  Under the identity those sums are row counts, so equal
        multisets of levels give bit-equal distances: exact rationals,
        correctly rounded, when the levels are integers.  No sum uses BLAS.
        """
        weights = np.abs(np.atleast_2d(alphas)) ** 2
        patterns = self.patterns[block]
        dist = np.zeros((len(patterns), len(weights)))
        for k in range(1, self.levels.size):
            at_level = np.zeros_like(dist)
            for l, row in enumerate(patterns.T):
                at_level[row == k] += weights[:, l]
            dist += self.levels[k] * at_level
        return dist / patterns.shape[1]

    def ranks(self, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs distances under one row factor as ranks, and the distances they rank.

        ``values[ranks]`` is :meth:`distances` under ``alpha`` gathered
        through ``index``: exactly symmetric, zero diagonal.  See :func:`_ranked`.
        """
        return _ranked(self.distances(alpha)[:, 0], self.index)

    def meds(self, alphas: list[np.ndarray], member_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """MED of each set of distinct codewords under each row factor, one row per set."""
        return _set_minima(
            self.index, len(self.patterns), lambda block: self.distances(alphas, block), member_sets
        )


def _ranked(distances: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry of ``distances[index]`` as its position among the distinct ``distances``, and those.

    The positions keep order and ties, equal positions being bit-equal
    distances, and take the smallest unsigned type that also holds one
    value above them: the unused largest value :func:`greedy_prune` marks
    excluded entries with.  Each class's position is gathered through
    ``index`` (:func:`_looked_up`).
    """
    values, rank = np.unique(distances, return_inverse=True)
    return _looked_up(rank.astype(np.min_scalar_type(values.size)), index), values


def pair_patterns(carriers: np.ndarray, m: int, l_t: int) -> PairPatterns:
    """The row-difference patterns of the codewords with carrier words ``carriers`` (n, L_R).

    Row l of a codeword is a unit-modulus steering weight over sqrt(L_R)
    times the waveform of its carrier.  Carriers a and b are
    2 L_T - 2 sum_{t < L_T mod M} cos(2 pi k t / M) apart, k = (a - b) mod M
    folded onto min(k, M - k), as full periods of M samples cancel; every
    k != 0 gives 2 (L_T - 1) when L_T = 1 (mod M).  A pair's code is its
    row levels as a number in base (level count), row 0 the most
    significant digit, in the smallest unsigned type that holds every code.
    The rows split into two halves, and each half's code is read from a
    table over the pairs of that half's distinct words
    (:func:`_distinct_rows`), its columns gathered for each codeword, the
    first half's times base^(second-half rows).  The n x n codes are written
    once, :data:`_ROW_BLOCK` rows at a time: the first half's rows, plus the
    second half's through one reused buffer.  When the code space is no
    larger than n a code is its pattern's number; otherwise the codes that
    occur are numbered in increasing order.
    """
    k, t = np.arange(m), np.arange(l_t % m)
    gaps = [2.0 * l_t - 2.0 * math.fsum(np.cos(2 * np.pi * c * t / m)) for c in k[1 : m // 2 + 1]]
    levels, level = np.unique([0.0, *gaps], return_inverse=True)
    n, l_r = carriers.shape
    base, space = levels.size, levels.size**l_r
    code = np.empty((n, n), dtype=np.min_scalar_type(space - 1))
    level = level.astype(code.dtype)[np.minimum(k, m - k)[(k[:, None] - k[None, :]) % m]]
    halves = []
    for half in (carriers[:, : l_r // 2], carriers[:, l_r // 2 :]):
        words, word = _distinct_rows(half, m)
        pairs = np.zeros((len(words), len(words)), dtype=code.dtype)
        for c in words.T:
            pairs *= code.dtype.type(base)
            pairs += np.take(level[c], c, axis=1)
        halves.append((np.take(pairs, word, axis=1), word))
    (high, high_word), (low, low_word) = halves
    high *= code.dtype.type(base ** (l_r - l_r // 2))
    low_rows = np.empty((min(n, _ROW_BLOCK), n), dtype=code.dtype)
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        # every word is in range; "clip" writes straight into ``out``
        block = np.take(high, high_word[rows], axis=0, out=code[rows], mode="clip")
        block += np.take(low, low_word[rows], axis=0, out=low_rows[: len(block)], mode="clip")
    codes, index = (np.arange(space), code) if space <= n else _numbered(code, space)
    patterns = codes[:, None].astype(np.int64) // base ** np.arange(l_r - 1, -1, -1) % base
    return PairPatterns(levels=levels, patterns=patterns, index=index)


def _map_features(maps: np.ndarray) -> np.ndarray:
    """L_R^2 reals of P = B^H B for each row map B (maps, L_R^2): its diagonal, then
    the real and the imaginary parts of its upper triangle, each times two."""
    maps = np.asarray(maps)
    p = np.einsum("dcl,dcq->dlq", maps.conj(), maps)
    i, j = np.triu_indices(p.shape[-1], 1)
    upper = 2.0 * p[:, i, j]
    return np.concatenate([np.diagonal(p, axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


@dataclass(frozen=True)
class PairClasses:
    """Every pair of n codewords, in classes of equal distance through any channel.

    Row l of a codeword is a coefficient times the waveform of its carrier
    a_l, so under a row map B (L_C x L_R: a channel times the row
    coefficients, each times its factor) codewords a and b are
    sum_{l,q} P[l, q] K[q, l] apart, with P = B^H B and
    K[l, q] = G[a_l, a_q] - G[a_l, b_q] - G[b_l, a_q] + G[b_l, b_q], where
    G = W W^H of the M sampled waveforms W.  G[x, y] depends only on
    (x - y) mod M, so K stays when both words shift by one carrier offset,
    or swap.  ``table`` (M^2, M^2) holds that four-term sum for every two
    carrier pairs: ``table[x M + y, u M + v]`` = G[x, u] - G[x, v] - G[y, u]
    + G[y, v], so K[l, q] = ``table[r_l, r_q]`` at the carrier-pair rows
    r_l = a_l M + b_l.  ``rows[c]`` (L_R) are those rows of class c, whose
    first word starts at carrier 0, in the smallest unsigned type that holds
    M^2 - 1.  ``index[i, j]`` is the class of codewords i and j; class 0, a
    word and itself, holds the diagonal and no other pair.
    """

    table: np.ndarray
    rows: np.ndarray
    index: np.ndarray

    def ranks(self, map: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs distances under one row map as ranks, and the distances they rank.

        A class's distance is the sum of its L_R^2 feature products in the
        order of :func:`_map_features`, added one feature at a time over
        every class: a feature is gathered for all classes at once, from the
        table's real diagonal or from the real or the imaginary parts of the
        table, at each class's carrier-pair rows.  No BLAS product takes
        part: its rounding of a class can follow the thread count and the
        class's place in the product, and a tie with it.  The distances agree
        to rounding with the product :meth:`meds` scores.  See :func:`_ranked`.
        """
        (weights,) = _map_features([map])
        pairs = len(self.table)
        # one contiguous row of classes per antenna row
        rows = np.ascontiguousarray(self.rows.T)
        l_r = len(rows)
        i, j = np.triu_indices(l_r, 1)
        dist = np.zeros(len(self.rows))
        diagonal = self.table.diagonal().real
        for row, weight in zip(rows, weights[:l_r]):
            dist += diagonal[row] * weight
        for part, part_weights in zip((self.table.real, self.table.imag), np.split(weights[l_r:], 2)):
            flat = part.reshape(-1)
            for l, q, weight in zip(i, j, part_weights):
                dist += flat[rows[l] * np.intp(pairs) + rows[q]] * weight
        return _ranked(np.maximum(dist, 0.0, out=dist), self.index)

    def _features(self, block: slice) -> np.ndarray:
        """The L_R^2 reals of each class in ``block``, (classes, L_R^2), each one entry of
        ``table``: K's diagonal, from the table's real diagonal, then the real and the
        imaginary parts of its upper triangle, from one complex gather."""
        pairs = np.intp(len(self.table))
        rows = self.rows[block]
        i, j = np.triu_indices(rows.shape[-1], 1)
        upper = self.table.reshape(-1)[rows[:, i] * pairs + rows[:, j]]
        return np.concatenate([self.table.diagonal().real[rows], upper.real, upper.imag], axis=1)

    def _distances(self, map_features: np.ndarray, block: slice) -> np.ndarray:
        """Distance of each class in ``block`` under each map, (classes, maps), at least zero.

        K and P are Hermitian, so the sum is that of the diagonal products
        and of twice Re(conj(P[l, q]) K[l, q]) over l < q: one product of the
        L_R^2 reals of each class's K (:meth:`_features`) with the L_R^2
        reals of each map's P, ``map_features`` (:func:`_map_features`).
        """
        dist = self._features(block) @ map_features.T
        return np.maximum(dist, 0.0, out=dist)

    def meds(self, maps: np.ndarray, member_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """MED of each set of distinct codewords under each row map, one row per set.

        The maps' features are formed once; the classes' a block at a time.
        """
        distances = partial(self._distances, _map_features(maps))
        return _set_minima(self.index, len(self.rows), distances, member_sets)


def pair_classes(carriers: np.ndarray, waveforms: np.ndarray) -> PairClasses:
    """The pair classes of the codewords with carrier words ``carriers`` (n, L_R).

    A word's shape is its carriers less its first, mod M.  A pair's code is
    (shape of i, shape of j, first carrier of j less that of i mod M) as one
    number, the smaller of the pair's two orders, in the smallest unsigned
    type that holds every code below count^2 M for count shapes.  Row i's
    codes are ``left[i] + right[first[i]]``, with ``left`` = shape count M
    over the codewords and ``right[f, j]`` = shape_j M + (first_j - f) mod M
    over the M first carriers, so no n x n array of wider integers or
    modulo over the pairs is formed.  The minimum with the transpose is
    taken in place, :data:`_ROW_BLOCK` rows at a time: the rows already
    done hold the symmetric minimum, so the columns they give a later
    block leave its minimum as it is.  Codes are numbered in increasing
    order, the diagonal's, set to 0, first (:func:`_numbered`): no other
    pair's code is 0, as two distinct codewords differ in a shape or a first
    carrier.  A class's words are its first shape and its second shape
    shifted by its offset, one row of a table over every shape and offset;
    its rows, each first-word carrier times M plus the second's, are formed
    once, in the smallest unsigned type that holds M^2 - 1.
    """
    m = len(waveforms)
    shapes, shape = _distinct_rows((carriers - carriers[:, :1]) % m, m)
    n, count, first = len(carriers), len(shapes), carriers[:, 0]
    code = np.empty((n, n), dtype=np.min_scalar_type(count * count * m - 1))
    left = (shape * (count * m)).astype(code.dtype)
    right = (shape * m + (first - np.arange(m)[:, None]) % m).astype(code.dtype)
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        # every first carrier is in range; "clip" writes straight into ``out``
        np.take(right, first[rows], axis=0, out=code[rows], mode="clip")
        code[rows] += left[rows, None]
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        np.minimum(code[rows], code[:, rows].T, out=code[rows])
    np.fill_diagonal(code, 0)
    codes, index = _numbered(code, count * count * m)
    del code  # freed before the class rows and the table are formed
    kind = np.min_scalar_type(m * m - 1)  # a carrier pair; also a carrier plus an offset
    shapes = shapes.astype(kind)
    shifted = ((shapes[:, None] + np.arange(m, dtype=kind)[:, None]) % m).reshape(count * m, -1)
    first_shape, shifted_shape = np.divmod(codes, np.intp(count * m))
    rows = shapes.take(first_shape, axis=0)
    rows *= kind.type(m)
    rows += shifted.take(shifted_shape, axis=0)
    g = waveforms @ waveforms.conj().T
    table = g[:, None, :, None] - g[:, None, None, :] - g[None, :, :, None] + g[None, :, None, :]
    return PairClasses(table=table.reshape(m * m, m * m), rows=rows, index=index)


def greedy_prune(work: np.ndarray, target: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Eliminate codewords of ``work`` one at a time, in place, until ``target`` remain.

    Each step finds the closest surviving pair, then removes the endpoint
    whose second-smallest distance to the rest (partner excluded) is
    smaller, i.e. the endpoint that is also crowded by someone else.  A
    tie removes the larger global index.  MED ties pick the
    lexicographically smallest pair.

    ``work`` is a distance matrix or a rank matrix of :func:`_ranked`; only
    order and ties decide a step, and ranks keep both, so the two give the
    same survivors.  Distances are finite.  ``work`` is pruned in place: its
    diagonal and each removed codeword's column take the sentinel (inf in a
    float matrix, the largest value of its type, unused by any rank, in a
    rank matrix), and every other entry keeps its value.

    The closest pair comes from cached row minima instead of a scan of the
    whole matrix.  ``rowmin[r]`` and ``rowarg[r]`` are the minimum of row r
    and its first column, as of the last time row r was scanned.  Removing
    a codeword only excludes entries, so a cached minimum stays a lower
    bound of its row's, and it is exact while its ``rowarg`` survives: then
    ``rowarg`` is still the row's first column holding it.  Each step takes
    the first row of least bound, and scans it again only if its ``rowarg``
    was removed, until that row's ``rowarg`` survives.  That row holds the
    global minimum, as its exact minimum is the least bound, and every row
    before it has a strictly larger bound, so none holds the minimum;
    ``rowarg`` is its first column holding it.  That is the pair a
    row-major ``argmin`` over the survivors returns.  A removed codeword's
    bound is the sentinel, above every survivor's: its row is not read again.

    Returns the survivors, increasing global indices, and the MED trajectory
    in ``work``'s units, distances or ranks: entry q is the MED after q
    eliminations.  It is non-decreasing, as removing a codeword never
    shrinks any surviving pair's distance.
    """
    n = work.shape[0]
    if work.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {work.shape}")
    if target < 2:
        raise ValueError(f"target must be >= 2, got {target}")
    if target > n:
        raise ValueError(f"target {target} exceeds {n} available codewords")

    far = np.iinfo(work.dtype).max if work.dtype.kind in "iu" else np.inf
    np.fill_diagonal(work, far)
    rowarg = work.argmin(axis=1)
    rowmin = work[np.arange(n), rowarg]
    alive = np.ones(n, dtype=bool)
    meds = np.empty(n - target + 1, dtype=work.dtype)

    for step in range(n - target + 1):
        i = int(rowmin.argmin())
        while not alive[rowarg[i]]:
            row = work[i]
            rowarg[i] = row.argmin()
            rowmin[i] = row[rowarg[i]]
            i = int(rowmin.argmin())
        j = int(rowarg[i])
        if i > j:
            i, j = j, i
        meds[step] = work[i, j]
        if step == n - target:
            break  # the survivor MED
        # second-smallest distance of each endpoint, partner excluded
        second = []
        for row, partner in ((work[i], j), (work[j], i)):
            saved, row[partner] = row[partner], far
            second.append(row.min())
            row[partner] = saved
        # the more crowded endpoint goes; on a tie the larger index goes
        drop = i if second[0] < second[1] else j
        alive[drop] = False
        work[:, drop] = far
        rowmin[drop] = far

    return tuple(int(g) for g in np.flatnonzero(alive)), meds


def export_codebook_csv(book: Codebook, table: CodewordTable, path: str) -> None:
    """Write one row per member: rank, bit label, indices, subset, allocation."""
    b = table.derived.B
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "bits", "global_index", "freq_subset", "allocation", "provenance", "med"]
        )
        for rank, g in enumerate(book.member_ids):
            bits = format(rank, f"0{b}b")  # natural binary, MSB first
            writer.writerow([rank, bits, g, *table.text_of(g), book.provenance, repr(book.med)])
