"""Constellation-randomization pre-scaling (CRPS) and scheme assembly.

Pre-scaling multiplies antenna row l of every codeword by a common complex
factor alpha_l.  D candidate factor vectors are drawn at random (candidate
0 is always the identity), each is scored by the MED it induces on the
member set, and the best one wins.  Because the identity is always in the
pool, the selected MED never falls below the unscaled one.

The five schemes this module assembles differ only in whether the member
set is pruned and whether/when pre-scaling is applied, and
:func:`build_schemes` designs any of them in one pass that computes each
shared stage once:

==================== =======================================================
baseline             first 2^B codewords, no pre-scaling
codebook_only        greedy pruning of the full set, no pre-scaling
crps_only            baseline member set, pre-scaling selected over it
codebook_then_crps   greedy pruning first, pre-scaling over the survivors
crps_then_codebook   pre-scaling over the full set, then greedy pruning
                     under the scaled distances
==================== =======================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .channel import TAG_TPS, substream
from .codebook import (
    Codebook,
    _gram_distances,
    distance_matrix,
    greedy_prune,
    med,
    pair_row_distances,
)
from .enumeration import DESIGN_BUDGET_BYTES, CodewordTable
from .params import DerivedParams, SystemParams


@dataclass
class TpsFactor:
    """A selected pre-scaling vector and its position in the candidate pool."""

    alpha: np.ndarray
    d_index: int


class Scheme(str, enum.Enum):
    BASELINE = "baseline"
    CODEBOOK_ONLY = "codebook_only"
    CRPS_ONLY = "crps_only"
    CODEBOOK_THEN_CRPS = "codebook_then_crps"
    CRPS_THEN_CODEBOOK = "crps_then_codebook"


@dataclass
class SchemeBuild:
    """What one scheme's design chose: a member set of ``table`` and a factor."""

    scheme: Scheme
    table: CodewordTable = field(repr=False)
    codebook: Codebook
    tps: TpsFactor | None

    @property
    def member_matrices(self) -> np.ndarray:
        """Each rank's transmitted codeword, pre-scaled; computed on each access."""
        return _scaled(self.table.matrices[np.asarray(self.codebook.member_ids)], self.tps)


def generate_tps(d_count: int, l_r: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Draw the candidate pool: identity first, then d_count - 1 random vectors.

    Random entries are i.i.d. circularly-symmetric complex Gaussian,
    rescaled so each vector satisfies sum_l |alpha_l|^2 = L_R (the identity
    meets this by construction, so total transmit power is preserved).
    """
    if d_count < 1:
        raise ValueError(f"candidate count must be >= 1, got {d_count}")
    if l_r < 1:
        raise ValueError(f"L_R must be >= 1, got {l_r}")
    candidates = [np.ones(l_r, dtype=complex)]
    for _ in range(d_count - 1):
        z = rng.standard_normal((2, l_r))
        alpha = (z[0] + 1j * z[1]) / np.sqrt(2.0)
        power = np.sum(np.abs(alpha) ** 2)
        candidates.append(alpha * np.sqrt(l_r / power))
    return candidates


def apply_tps(mats: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Scale antenna row l of each codeword by alpha[l]."""
    mats = np.asarray(mats)
    alpha = np.asarray(alpha)
    if mats.shape[-2] != alpha.shape[0]:
        raise ValueError(
            f"alpha length {alpha.shape[0]} does not match row count {mats.shape[-2]}"
        )
    return mats * alpha.reshape((1,) * (mats.ndim - 2) + (-1, 1))


_SCORE_BLOCK = 4096
"""Pairs whose weighted distances candidate scoring holds at once."""


def _pair_positions(ids: np.ndarray, n: int) -> np.ndarray:
    """Where each pair of ``ids`` sits in the ``np.triu_indices(n, 1)`` order.

    ``ids`` are sorted row indices; their pairs come in their own
    ``triu_indices`` order, so a gather by these positions lists the pairs
    in the order they would have over the rows ``ids`` alone.
    """
    i, j = ids[np.array(np.triu_indices(ids.size, 1))]
    return i * (2 * n - i - 1) // 2 + j - i - 1


def candidate_meds(
    candidates: list[np.ndarray],
    mats: np.ndarray,
    member_sets: Sequence[Sequence[int]],
    channel: np.ndarray | None = None,
) -> np.ndarray:
    """MED of each member set under each candidate pre-scaling, one row per set.

    ``member_sets`` holds sorted, distinct row indices of ``mats``.  Pair
    quantities are computed once over all of ``mats`` and each set reads
    its own pairs, which equal those of the set alone: a Gram entry does
    not depend on the other rows of the product.

    Without a design channel every candidate is a weighted sum of the pair
    row distances, a set's gathered by pair position.  The sums are taken
    ``_SCORE_BLOCK`` pairs at a time and folded into a running minimum, so
    besides the row distances the scoring holds one block of pairs x
    candidates, however large the pool.  With a design channel, each
    candidate is scored through the channel directly.
    """
    mats = np.asarray(mats)
    sets = [np.asarray(ids, dtype=np.intp) for ids in member_sets]
    if any(ids.size < 2 for ids in sets):
        raise ValueError("candidate scoring needs at least two members")
    if not candidates:
        raise ValueError("candidate pool is empty")
    n = mats.shape[0]
    if channel is not None:
        return _channel_meds(candidates, mats, sets, channel)
    rowdist = pair_row_distances(mats)
    weights = np.stack([np.abs(a) ** 2 for a in candidates])
    meds = np.full((len(sets), len(candidates)), np.inf)
    for ids, out in zip(sets, meds):
        rows = rowdist if ids.size == n else rowdist[_pair_positions(ids, n)]
        pairs = rows.shape[0]
        # a product with one row or one column goes through gemv, which can
        # round differently in a block than in the whole product: one
        # candidate is scored in one block (pairs floats, one column of
        # rows), and a last block of one pair joins the block before it
        block = pairs if len(candidates) == 1 else _SCORE_BLOCK
        edges = list(range(0, pairs, block)) + [pairs]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]
        for start, stop in zip(edges, edges[1:]):
            np.minimum(out, (rows[start:stop] @ weights.T).min(axis=0), out=out)
    return meds


def _channel_meds(
    candidates: list[np.ndarray],
    mats: np.ndarray,
    sets: list[np.ndarray],
    channel: np.ndarray,
) -> np.ndarray:
    """Candidate MEDs of each set through ``channel``, as ``distance_matrix`` measures them.

    Every candidate repeats the operations of ``distance_matrix`` on all
    of ``mats``, in buffers allocated once per call, so no n x n matrix is
    allocated and freed per candidate: freed blocks that size are handed
    back to the system and faulted in again by the next candidate, which
    made the design's system time and its spread grow with the pool.
    """
    n = mats.shape[0]
    scaled = np.empty(mats.shape, dtype=np.result_type(mats, *candidates))
    images = np.empty((n, channel.shape[0], mats.shape[2]), dtype=np.result_type(channel, scaled))
    flat = images.reshape(n, -1)
    gram = np.empty((n, n), dtype=flat.dtype)
    dist = np.empty((n, n))
    # distance_matrix keeps the upper triangle and mirrors it, so a set's
    # MED is the minimum over its pairs i < j
    pair_masks = []
    for ids in sets:
        inside = np.zeros(n, dtype=bool)
        inside[ids] = True
        pair_masks.append(np.triu(np.outer(inside, inside), 1))
    meds = np.empty((len(sets), len(candidates)))
    for d, alpha in enumerate(candidates):
        np.multiply(mats, np.asarray(alpha).reshape(1, -1, 1), out=scaled)
        np.einsum("cr,nrt->nct", channel, scaled, out=images)
        _gram_distances(flat, out=dist, gram=gram)
        for s, mask in enumerate(pair_masks):
            meds[s, d] = np.min(dist, where=mask, initial=np.inf)
    return meds


def _best(candidates: list[np.ndarray], meds: np.ndarray) -> tuple[TpsFactor, float]:
    """The candidate of largest MED; ties go to the smallest index."""
    best = int(np.argmax(meds))
    return TpsFactor(alpha=candidates[best], d_index=best), float(meds[best])


def select_tps(
    candidates: list[np.ndarray],
    member_mats: np.ndarray,
    channel: np.ndarray | None = None,
) -> tuple[TpsFactor, float]:
    """Pick the candidate maximizing the member-set MED.

    Ties go to the smallest candidate index, so the identity (index 0)
    wins over random candidates that merely match it.
    """
    every = np.arange(np.shape(member_mats)[0])
    return _best(candidates, candidate_meds(candidates, member_mats, [every], channel=channel)[0])


class _Recipe(NamedTuple):
    """The two optional design stages of a scheme.

    ``crps`` is None (no pre-scaling), "before" (factor selected over the
    full table, then pruning under the scaled distances) or "after" (factor
    selected over the final member set).  ``provenance`` is the label the
    codebook records in ``codebook_*.csv`` and ``meta.json``.
    """

    prune: bool
    crps: str | None
    provenance: str


_RECIPES = {
    Scheme.BASELINE: _Recipe(False, None, "baseline"),
    Scheme.CODEBOOK_ONLY: _Recipe(True, None, "pruned"),
    Scheme.CRPS_ONLY: _Recipe(False, "after", "crps_only"),
    Scheme.CODEBOOK_THEN_CRPS: _Recipe(True, "after", "pruned_then_crps"),
    Scheme.CRPS_THEN_CODEBOOK: _Recipe(True, "before", "crps_then_pruned"),
}


def design_bytes(scheme: Scheme, params: SystemParams, derived: DerivedParams) -> int:
    """Estimated bytes of a scheme's largest live design allocation.

    A scheme that prunes, or selects its factor over the full table, works
    on all C_total codewords; the others work on the 2^B members.  Over n
    codewords the design holds about three dense n x n float64 distance
    matrices at once, plus the n(n-1)/2 x L_R float64 pair row distances
    of candidate scoring.  :func:`build_schemes` frees the unscaled
    distance matrix before candidate scoring starts, so a pass over several
    schemes never holds that matrix and the row distances of the union of
    its scored member sets at once.
    """
    recipe = _RECIPES[Scheme(scheme)]
    n = derived.C_total if recipe.prune or recipe.crps == "before" else 1 << derived.B
    return 3 * n * n * 8 + n * (n - 1) // 2 * params.L_R * 8


def _scaled(mats: np.ndarray, tps: TpsFactor | None) -> np.ndarray:
    """``mats`` under the factor; the identity (index 0) leaves them as they are."""
    if tps is None or tps.d_index == 0:
        return mats
    return apply_tps(mats, tps.alpha)


def build_schemes(
    schemes: Sequence[Scheme],
    table: CodewordTable,
    design_channel: np.ndarray | None = None,
) -> list[SchemeBuild]:
    """Design each of ``schemes``, in the order given: its member set of ``table`` and factor.

    The schemes share their stages, each computed once.  One unscaled
    distance matrix, of the full table when a scheme prunes it unscaled and
    of the baseline set otherwise, gives the baseline MED and the unscaled
    pruning; it is freed before any candidate is scored.  Every member set
    a factor is selected over is scored in one :func:`candidate_meds` call
    over their union.  Only a pruning under a selected factor other than
    the identity computes distances of its own.  Each design equals the one
    the scheme gets alone.

    ``design_channel``, when given, makes every design-time distance a
    post-channel distance (detection is unaffected).  The pre-scaling
    candidate pool is drawn from a dedicated substream of the scenario's
    master seed, so all schemes of a scenario score the same pool.  A
    codebook's MED is the one its last design stage measured.  Every
    scheme's estimate is checked against the design budget before anything
    is allocated.
    """
    params, derived = table.params, table.derived
    n_valid = 1 << derived.B
    if n_valid < 2:
        raise ValueError("scenario carries no information: fewer than two valid codewords")
    schemes = [Scheme(s) for s in schemes]
    for scheme in schemes:
        need = design_bytes(scheme, params, derived)
        if need > DESIGN_BUDGET_BYTES:
            raise ValueError(
                f"{scheme.value} design needs about {need / 2**30:.1f} GiB "
                f"(C_total={derived.C_total}, B={derived.B}), over the "
                f"{DESIGN_BUDGET_BYTES / 2**30:.0f} GiB design budget"
            )
    recipes = [_RECIPES[s] for s in schemes]
    baseline_ids = tuple(range(n_valid))
    every_id = tuple(range(derived.C_total))
    baseline_med = None
    # greedy pruning of the table under each selected factor index
    pruned: dict[int, Codebook] = {}
    prune_unscaled = any(r.prune and r.crps != "before" for r in recipes)
    if prune_unscaled or Scheme.BASELINE in schemes:
        rows = table.matrices if prune_unscaled else table.matrices[:n_valid]
        dist = distance_matrix(rows, channel=design_channel)
        if Scheme.BASELINE in schemes:
            baseline_med, _ = med(dist, baseline_ids)
        if prune_unscaled:
            pruned[0], _ = greedy_prune(dist, n_valid)
        del dist

    # each member set a CRPS scheme selects its factor over, scored once
    # from the rows of their union
    selected_over = list(
        dict.fromkeys(
            every_id if r.crps == "before" else pruned[0].member_ids if r.prune else baseline_ids
            for r in recipes
            if r.crps is not None
        )
    )
    if selected_over:
        candidates = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
        inside = np.zeros(derived.C_total, dtype=bool)
        for ids in selected_over:
            inside[list(ids)] = True
        union = np.flatnonzero(inside)
        rows = table.matrices if union.size == derived.C_total else table.matrices[union]
        positions = [np.searchsorted(union, ids) for ids in selected_over]
        meds = candidate_meds(candidates, rows, positions, channel=design_channel)
        scored = dict(zip(selected_over, meds))

    builds = []
    for scheme, recipe in zip(schemes, recipes):
        tps, member_ids, book_med = None, baseline_ids, baseline_med
        if recipe.crps == "before":
            tps, _ = _best(candidates, scored[every_id])
        if recipe.prune:
            index = tps.d_index if tps else 0
            if index not in pruned:
                dist = distance_matrix(_scaled(table.matrices, tps), channel=design_channel)
                pruned[index], _ = greedy_prune(dist, n_valid)
            member_ids, book_med = pruned[index].member_ids, pruned[index].med
        if recipe.crps == "after":
            tps, book_med = _best(candidates, scored[member_ids])
        builds.append(
            SchemeBuild(scheme, table, Codebook(member_ids, book_med, recipe.provenance), tps)
        )
    return builds


def build_scheme(
    scheme: Scheme,
    table: CodewordTable,
    design_channel: np.ndarray | None = None,
) -> SchemeBuild:
    """Design one scheme: the one-scheme call of :func:`build_schemes`."""
    (build,) = build_schemes([scheme], table, design_channel=design_channel)
    return build
