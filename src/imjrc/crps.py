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
    _CLASS_BLOCK,
    Codebook,
    _gram_distances,
    distance_matrix,
    greedy_prune,
    med,
    pair_classes,
    pair_patterns,
)
from .enumeration import DESIGN_BUDGET_BYTES, CodewordTable
from .params import DerivedParams, SystemParams

SHORTLIST_RTOL = 1e-9
"""Through a design channel, the candidates whose MED from the pair classes
is within this fraction of a member set's best are that set's shortlist,
and the set's factor is selected from it alone.  The shortlist is scored
again on the codeword matrices, unless it holds one candidate and no
scheme reports the set's MED (the full table of crps_then_codebook); that
candidate then wins without a rescore.  The two scores differ by rounding
alone, on the default scenario by under 3e-14 of a set's best MED, so a
candidate off the shortlist cannot win."""


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
    def alpha(self) -> np.ndarray | None:
        return _alpha(self.tps)

    @property
    def member_matrices(self) -> np.ndarray:
        """Each rank's transmitted codeword, pre-scaled; computed on each access."""
        mats = self.table.codewords(self.codebook.member_ids)
        return mats if self.alpha is None else apply_tps(mats, self.alpha)


def _alpha(tps: TpsFactor | None) -> np.ndarray | None:
    """The factor codewords are sent under; None for none or the identity (index 0)."""
    return None if tps is None or tps.d_index == 0 else tps.alpha


def generate_tps(d_count: int, l_r: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Draw the candidate pool: identity first, then d_count - 1 random vectors.

    Random entries are i.i.d. circularly-symmetric complex Gaussian,
    rescaled so each vector satisfies sum_l |alpha_l|^2 = L_R (the identity
    meets this by construction, so total transmit power is preserved).  The
    normals of all random vectors come from one draw, in candidate order,
    real parts before imaginary parts.
    """
    if d_count < 1:
        raise ValueError(f"candidate count must be >= 1, got {d_count}")
    if l_r < 1:
        raise ValueError(f"L_R must be >= 1, got {l_r}")
    z = rng.standard_normal((d_count - 1, 2, l_r))
    alpha = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    power = np.sum(np.abs(alpha) ** 2, axis=1, keepdims=True)
    return [np.ones(l_r, dtype=complex), *(alpha * np.sqrt(l_r / power))]


def apply_tps(mats: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Scale antenna row l of each codeword by alpha[l]."""
    mats = np.asarray(mats)
    alpha = np.asarray(alpha)
    if mats.shape[-2] != alpha.shape[0]:
        raise ValueError(
            f"alpha length {alpha.shape[0]} does not match row count {mats.shape[-2]}"
        )
    return mats * alpha.reshape((1,) * (mats.ndim - 2) + (-1, 1))


def candidate_meds(
    candidates: list[np.ndarray],
    mats: np.ndarray,
    member_sets: Sequence[Sequence[int]],
    channel: np.ndarray | None = None,
) -> np.ndarray:
    """MED of each member set (sorted rows of ``mats``) under each candidate.

    Each set is scored on its own rows alone: each candidate repeats the
    operations of ``distance_matrix`` (through ``channel`` when given) in
    buffers allocated once per call, since an n x n block freed per
    candidate is handed back to the system and faulted in again by the
    next, which made the design time grow with D.  A set's MED is the
    minimum over its pairs i < j, the triangle ``distance_matrix`` keeps.
    Through a design channel :func:`build_schemes` ranks the pool by pair
    classes and scores here each member set alone, on its own shortlist.
    """
    mats = np.asarray(mats)
    # each set's rows as indexing resolves them, so "clip" below clips none
    sets = [np.arange(len(mats))[np.asarray(ids, dtype=np.intp)] for ids in member_sets]
    if any(ids.size < 2 for ids in sets):
        raise ValueError("candidate scoring needs at least two members")
    if not candidates:
        raise ValueError("candidate pool is empty")
    most = max((ids.size for ids in sets), default=0)
    scaled = np.empty((most, *mats.shape[1:]), dtype=np.result_type(mats, *candidates))
    images = scaled
    if channel is not None:
        images = np.empty((most, channel.shape[0], mats.shape[2]), dtype=np.result_type(channel, scaled))
    gram = np.empty(most * most, dtype=images.dtype)
    dist = np.empty(most * most)
    meds = np.empty((len(sets), len(candidates)))
    for s, ids in enumerate(sets):
        n = ids.size
        rows, image, square = scaled[:n], images[:n], dist[: n * n].reshape(n, n)
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        for d, alpha in enumerate(candidates):
            # "clip" lets take write into rows without a buffer of its size
            np.take(mats, ids, axis=0, out=rows, mode="clip")
            rows *= np.asarray(alpha).reshape(1, -1, 1)
            if channel is not None:
                np.einsum("cr,nrt->nct", channel, rows, out=image)
            _gram_distances(image.reshape(n, -1), out=square, gram=gram[: n * n].reshape(n, n))
            meds[s, d] = np.min(square, where=upper, initial=np.inf)
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


def design_bytes(
    scheme: Scheme, params: SystemParams, derived: DerivedParams, channel: bool = False
) -> int:
    """Estimated bytes of a scheme's largest live design allocation.

    Pruning, or selecting a factor over the full table, works on all C_total
    codewords, else on the 2^B members.  Over n codewords without a channel
    the design holds n x n arrays of small unsigned integers: the pairs'
    codes and the gather that assembles them, which index their patterns,
    and a rank matrix and its pruning copy (one byte each on M=8, L_R=8).
    The estimate is still three n x n arrays of 8-byte entries, the float
    distance matrix, its pruning copy and the pattern index this path once
    held, so the budget admits the tables it did.  Through a design ``channel``
    it holds four (a distance matrix, a complex Gram and a pair mask) and
    the exact rescore's and pruning's synthesised and scaled codewords,
    their image and its conjugate, n x (2 L_R + 2 L_C) x L_T complex.
    Before those, a scheme that selects a factor through a channel holds the
    pair-class pass: the synthesised codewords, six n x n arrays (the pairs'
    codes, the sort that numbers them, and their class index), and one
    block of :data:`_CLASS_BLOCK` classes: a class's carrier-pair rows, the
    positions its L_R^2 features are gathered from, the features and its
    distances under the D candidates, about 3 L_R^2 + D entries.  The
    estimate keeps 6 L_R^2 + 2 D entries a class, what a block held when
    each K was gathered from the waveform Gram, so the budget admits the
    tables it did.
    """
    recipe = _RECIPES[Scheme(scheme)]
    n = derived.C_total if recipe.prune or recipe.crps == "before" else 1 << derived.B
    if not channel:
        return 8 * n * 3 * n
    exact = n * (4 * n + 4 * derived.L_T * (params.L_R + params.L_C))
    if recipe.crps is None:
        return 8 * exact
    block = _CLASS_BLOCK * (6 * params.L_R**2 + 2 * params.D)
    return 8 * max(exact, n * (6 * n + 2 * params.L_R * derived.L_T) + block)


def build_schemes(
    schemes: Sequence[Scheme],
    table: CodewordTable,
    design_channel: np.ndarray | None = None,
) -> list[SchemeBuild]:
    """Design each of ``schemes``, in the order given: its member set of ``table`` and factor.

    The schemes share their stages, each computed once, and each design
    equals the one the scheme gets alone.  Without ``design_channel`` every
    distance follows exactly from the carrier words (:func:`pair_patterns`);
    with one, from the codeword matrices after the channel (detection is
    unaffected), except that candidates are ranked by pair classes
    (:func:`pair_classes`) and only those within :data:`SHORTLIST_RTOL` of a
    set's best are rescored on the matrices, each set on its own shortlist;
    a shortlist of one candidate is not rescored when no scheme reports the
    set's MED, which the recipes, not the set's ids, decide.  All schemes
    score one candidate pool, drawn from a substream of the master seed.  A
    codebook's MED is the one its last design stage measured.  Every budget
    is checked before any work.
    """
    params, derived = table.params, table.derived
    n_valid = 1 << derived.B
    if n_valid < 2:
        raise ValueError("scenario carries no information: fewer than two valid codewords")
    schemes = [Scheme(s) for s in schemes]
    for scheme in schemes:
        need = design_bytes(scheme, params, derived, channel=design_channel is not None)
        if need > DESIGN_BUDGET_BYTES:
            raise ValueError(
                f"{scheme.value} design needs about {need / 2**30:.1f} GiB "
                f"(C_total={derived.C_total}, B={derived.B}), over the "
                f"{DESIGN_BUDGET_BYTES / 2**30:.0f} GiB design budget"
            )
    recipes = [_RECIPES[s] for s in schemes]
    baseline_ids = tuple(range(n_valid))
    every_id = tuple(range(derived.C_total))
    rows = derived.C_total if any(r.prune or r.crps == "before" for r in recipes) else n_valid

    # among the first ``rows`` codewords: every pair's distance under a
    # factor, as a matrix of ranks and the distances they rank (through a
    # channel, of distances and None), and the MED of each member set of
    # ``reported`` under each candidate
    if design_channel is None:
        patterns = pair_patterns(table.carriers[:rows], params.M, derived.L_T)

        def scores(candidates, reported):
            return patterns.meds(candidates, list(reported))

        def matrix(alpha):
            return patterns.ranks(np.ones(params.L_R) if alpha is None else alpha)
    else:
        mats = table.codewords(range(rows))

        def scores(candidates, reported):
            # candidates off a set's shortlist score -inf, so _best picks from
            # the shortlist; a lone candidate whose MED is not reported wins
            # on its rough score
            maps = [design_channel * table.coefficients(alpha) for alpha in candidates]
            rough = pair_classes(table.carriers[:rows], table.waveforms).meds(maps, list(reported))
            near = rough >= (1.0 - SHORTLIST_RTOL) * rough.max(axis=1, keepdims=True)
            meds = np.where(near, rough, -np.inf)
            for (ids, read), row, mask in zip(reported.items(), meds, near):
                shortlist = np.flatnonzero(mask)
                if read or shortlist.size > 1:
                    row[shortlist] = candidate_meds(
                        [candidates[d] for d in shortlist], mats, [ids], channel=design_channel
                    )[0]
            return meds

        def matrix(alpha):
            scaled = mats if alpha is None else apply_tps(mats, alpha)
            return distance_matrix(scaled, channel=design_channel), None

    baseline_med = None
    # greedy pruning of the table under each selected factor index
    pruned: dict[int, Codebook] = {}
    prune_unscaled = any(r.prune and r.crps != "before" for r in recipes)
    if prune_unscaled or Scheme.BASELINE in schemes:
        dist, values = matrix(None)
        if Scheme.BASELINE in schemes:
            baseline_med, _ = med(dist, baseline_ids, values)
        if prune_unscaled:
            pruned[0], _ = greedy_prune(dist, n_valid, values)
        del dist

    # each member set a CRPS scheme selects its factor over, scored once, and
    # whether a scheme reports the selected factor's MED on it
    reported: dict[tuple[int, ...], bool] = {}
    for r in recipes:
        if r.crps is not None:
            ids = every_id if r.crps == "before" else pruned[0].member_ids if r.prune else baseline_ids
            reported[ids] = reported.get(ids, False) or r.crps == "after"
    if reported:
        candidates = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
        scored = dict(zip(reported, scores(candidates, reported)))

    builds = []
    for scheme, recipe in zip(schemes, recipes):
        tps, member_ids, book_med = None, baseline_ids, baseline_med
        if recipe.crps == "before":
            tps, _ = _best(candidates, scored[every_id])
        if recipe.prune:
            index = tps.d_index if tps else 0
            if index not in pruned:
                dist, values = matrix(_alpha(tps))
                pruned[index], _ = greedy_prune(dist, n_valid, values)
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
