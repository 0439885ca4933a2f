"""Constellation-randomization pre-scaling (CRPS) and scheme assembly.

Pre-scaling multiplies antenna row l of every codeword by a common complex
factor alpha_l.  D candidate factor vectors are drawn at random (candidate
0 is always the identity), each is scored by the MED it induces on the
member set, and the best one wins.  Because the identity is always in the
pool, the selected MED never falls below the unscaled one.

The five schemes this module assembles differ only in whether the member
set is pruned and whether/when pre-scaling is applied:

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
from typing import NamedTuple

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


def candidate_meds(
    candidates: list[np.ndarray],
    member_mats: np.ndarray,
    channel: np.ndarray | None = None,
) -> np.ndarray:
    """MED of the member set under each candidate pre-scaling.

    Without a design channel the per-pair row distances are computed once
    and every candidate is a weighted sum over them.  The weighted sums are
    taken ``_SCORE_BLOCK`` pairs at a time and folded into a running
    minimum, so besides the row distances the scoring holds one block of
    pairs x candidates, however large the pool.  With a design channel,
    each candidate is scored through the channel directly.
    """
    member_mats = np.asarray(member_mats)
    if member_mats.shape[0] < 2:
        raise ValueError("candidate scoring needs at least two members")
    if not candidates:
        raise ValueError("candidate pool is empty")
    if channel is None:
        rowdist = pair_row_distances(member_mats)
        weights = np.stack([np.abs(a) ** 2 for a in candidates])
        pairs = rowdist.shape[0]
        # a product with one row or one column goes through gemv, which can
        # round differently in a block than in the whole product: one
        # candidate is scored in one block (pairs floats, one column of
        # rowdist), and a last block of one pair joins the block before it
        block = pairs if len(candidates) == 1 else _SCORE_BLOCK
        edges = list(range(0, pairs, block)) + [pairs]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]
        meds = np.full(len(candidates), np.inf)
        for start, stop in zip(edges, edges[1:]):
            np.minimum(meds, (rowdist[start:stop] @ weights.T).min(axis=0), out=meds)
        return meds
    return _channel_meds(candidates, member_mats, channel)


def _channel_meds(
    candidates: list[np.ndarray],
    member_mats: np.ndarray,
    channel: np.ndarray,
) -> np.ndarray:
    """MED of each candidate through ``channel``, as ``distance_matrix`` measures it.

    Every candidate repeats the operations of ``distance_matrix`` on
    buffers allocated once per call, so no n x n matrix is allocated and
    freed per candidate: freed blocks that size are handed back to the
    system and faulted in again by the next candidate, which made the
    design's system time and its spread grow with the pool.
    """
    n = member_mats.shape[0]
    scaled = np.empty(member_mats.shape, dtype=np.result_type(member_mats, *candidates))
    images = np.empty(
        (n, channel.shape[0], member_mats.shape[2]), dtype=np.result_type(channel, scaled)
    )
    flat = images.reshape(n, -1)
    gram = np.empty((n, n), dtype=flat.dtype)
    dist = np.empty((n, n))
    # distance_matrix keeps the upper triangle and mirrors it, so its MED
    # is the minimum of the strict upper triangle
    not_upper = ~np.triu(np.ones((n, n), dtype=bool), 1)
    meds = np.empty(len(candidates))
    for d, alpha in enumerate(candidates):
        np.multiply(member_mats, np.asarray(alpha).reshape(1, -1, 1), out=scaled)
        np.einsum("cr,nrt->nct", channel, scaled, out=images)
        _gram_distances(flat, out=dist, gram=gram)
        np.copyto(dist, np.inf, where=not_upper)
        meds[d] = dist.min()
    return meds


def select_tps(
    candidates: list[np.ndarray],
    member_mats: np.ndarray,
    channel: np.ndarray | None = None,
) -> tuple[TpsFactor, float]:
    """Pick the candidate maximizing the member-set MED.

    Ties go to the smallest candidate index, so the identity (index 0)
    wins over random candidates that merely match it.
    """
    meds = candidate_meds(candidates, member_mats, channel=channel)
    best = int(np.argmax(meds))
    return TpsFactor(alpha=candidates[best], d_index=best), float(meds[best])


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
    of candidate scoring.
    """
    recipe = _RECIPES[Scheme(scheme)]
    n = derived.C_total if recipe.prune or recipe.crps == "before" else 1 << derived.B
    return 3 * n * n * 8 + n * (n - 1) // 2 * params.L_R * 8


def _scaled(mats: np.ndarray, tps: TpsFactor | None) -> np.ndarray:
    """``mats`` under the factor; the identity (index 0) leaves them as they are."""
    if tps is None or tps.d_index == 0:
        return mats
    return apply_tps(mats, tps.alpha)


def build_scheme(
    scheme: Scheme,
    table: CodewordTable,
    design_channel: np.ndarray | None = None,
) -> SchemeBuild:
    """Design one scheme: its member set of ``table`` and pre-scaling factor.

    ``design_channel``, when given, makes every design-time distance a
    post-channel distance (detection is unaffected).  The pre-scaling
    candidate pool is drawn from a dedicated substream of the scenario's
    master seed, so all schemes of a scenario score the same pool.  The
    codebook's MED is the one its last design stage measured.
    """
    params, derived = table.params, table.derived
    n_valid = 1 << derived.B
    if n_valid < 2:
        raise ValueError("scenario carries no information: fewer than two valid codewords")
    scheme = Scheme(scheme)
    need = design_bytes(scheme, params, derived)
    if need > DESIGN_BUDGET_BYTES:
        raise ValueError(
            f"{scheme.value} design needs about {need / 2**30:.1f} GiB "
            f"(C_total={derived.C_total}, B={derived.B}), over the "
            f"{DESIGN_BUDGET_BYTES / 2**30:.0f} GiB design budget"
        )
    recipe = _RECIPES[scheme]
    tps = None
    if recipe.crps is not None:
        candidates = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
    if recipe.crps == "before":
        tps, _ = select_tps(candidates, table.matrices, channel=design_channel)
    if recipe.prune:
        dist = distance_matrix(_scaled(table.matrices, tps), channel=design_channel)
        pruned, _ = greedy_prune(dist, n_valid)
        member_ids, book_med = pruned.member_ids, pruned.med
    else:
        member_ids = tuple(range(n_valid))
    members = table.matrices[np.asarray(member_ids)]
    if recipe.crps == "after":
        tps, book_med = select_tps(candidates, members, channel=design_channel)
    elif not recipe.prune:
        book_med, _ = med(distance_matrix(members, channel=design_channel), member_ids)
    return SchemeBuild(scheme, table, Codebook(member_ids, book_med, recipe.provenance), tps)
