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
from .codebook import _CLASS_BLOCK, Codebook, greedy_prune, pair_classes, pair_patterns
from .enumeration import CodewordTable, check_budget
from .params import SystemParams

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


def _best(candidates: list[np.ndarray], meds: np.ndarray) -> tuple[TpsFactor, float]:
    """The candidate of largest MED; ties go to the smallest index."""
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


def design_bytes(n: int, params: SystemParams, channel: bool = False) -> int:
    """Estimated bytes of the largest live allocation of a design pass over n codewords.

    Both paths hold n x n arrays of small unsigned integers: the pairs'
    codes and their pattern or class index, then one rank matrix, pruned in
    place (through a channel the class pass peaks at 7.5, 7.3 and
    9.7 bytes a pair under tracemalloc at n = 420, 720 and 1,960).  The
    estimate keeps three n x n arrays of 8-byte entries, a deliberate
    overestimate: lowering it changes which tables are admitted, and that
    wants a design run at the budget first.  Ranking a row map holds at
    most four entries a class, fewer than the pairs those count.

    Scoring the D candidates holds the pool and one block of
    :data:`_CLASS_BLOCK` patterns, or classes through a ``channel``.  A
    candidate holds at most 6 L_R + 16 entries while the pool is drawn
    (normals, vector, scaled vector, array header), and through a channel
    4 L_C L_R + 4 L_R^2 + L_R + 32 while the maps' features are formed
    (each map, the maps stacked, their products and gathers): the peaks
    tracemalloc read for L_R = 4 to 16 and L_C = 1 to 8.  A pattern
    holds at most 4 D entries: its distances and level sums, and, while
    one antenna row's patterns at a level are added, their gathered level
    sums and those plus the row's weights.  A class holds at most
    2 L_R^2 + L_R entries while its features are assembled (its L_R
    carrier-pair rows and diagonal entries, the L_R^2 - L_R reals of its
    complex upper-triangle gather and its L_R^2 features), then L_R^2 + D,
    then 2 D (its distances and those of one member set's classes); the
    estimate keeps 6 L_R^2 + 2 D.
    """
    l_r, d = params.L_R, params.D
    block = 6 * l_r**2 + 2 * d if channel else 4 * d
    pool = 4 * (params.L_C + l_r) * l_r + l_r + 32 if channel else 6 * l_r + 16
    return 8 * (3 * n * n + _CLASS_BLOCK * block + pool * d)


def build_schemes(
    schemes: Sequence[Scheme],
    table: CodewordTable,
    design_channel: np.ndarray | None = None,
) -> list[SchemeBuild]:
    """Design each of ``schemes``, in the order given: its member set of ``table`` and factor.

    The schemes share their stages, each computed once, and each design
    equals the one the scheme gets alone.  Every distance follows from the
    carrier words: without ``design_channel`` exactly, from each pair's
    row-difference pattern (:func:`pair_patterns`); with one, from each
    pair's class (:func:`pair_classes`) under the row map of the channel
    times the scaled row coefficients (detection is unaffected).  Both kinds
    of pairs score every candidate and give the ranks greedy pruning reads.
    All schemes score one candidate pool, drawn from a substream of the
    master seed, and each member set picks its best candidate from those
    scores.  A codebook's MED is the one its last design stage measured.
    The pass works on all C_total codewords if any scheme prunes or selects
    a factor over the full table, else on the 2^B members; its budget
    (:func:`design_bytes`) is checked before any work.
    """
    params, derived = table.params, table.derived
    n_valid = 1 << derived.B
    if n_valid < 2:
        raise ValueError("scenario carries no information: fewer than two valid codewords")
    schemes = [Scheme(s) for s in schemes]
    recipes = [_RECIPES[s] for s in schemes]
    wide = [s for s, r in zip(schemes, recipes) if r.prune or r.crps == "before"]
    rows = derived.C_total if wide else n_valid
    # the first scheme that needs the full table, else the first; no scheme runs the baseline's pass
    named = (wide or schemes or [Scheme.BASELINE])[0]
    need = design_bytes(rows, params, channel=design_channel is not None)
    check_budget(need, f"{named.value} design needs", f"C_total={derived.C_total}, B={derived.B}")
    baseline_ids = tuple(range(n_valid))
    every_id = tuple(range(derived.C_total))

    # the pairs of the first ``rows`` codewords, and what a factor is to
    # them: a row factor to their patterns, a row map to their classes
    if design_channel is None:
        pairs = pair_patterns(table.carriers[:rows], params.M, derived.L_T)

        def factor(alpha):
            return np.ones(params.L_R) if alpha is None else alpha
    else:
        pairs = pair_classes(table.carriers[:rows], table.waveforms)

        def factor(alpha):
            return design_channel * table.coefficients(alpha)

    def prune(ranks, values):
        """Greedy pruning of ``ranks``, in place: the survivors and their MED."""
        survivors, steps = greedy_prune(ranks, n_valid)
        return survivors, float(values[steps[-1]])

    baseline_med = None
    # survivors and MED of greedy pruning under each selected factor index
    pruned = {}
    prune_unscaled = any(r.prune and r.crps != "before" for r in recipes)
    if prune_unscaled or Scheme.BASELINE in schemes:
        ranks, values = pairs.ranks(factor(None))
        if Scheme.BASELINE in schemes:
            # pruning's zero-step case: the MED of the first 2^B codewords
            _, baseline_med = prune(ranks[:n_valid, :n_valid], values)
        if prune_unscaled:
            pruned[0] = prune(ranks, values)
        del ranks

    # each member set a CRPS scheme selects its factor over, scored once
    sets = [
        every_id if r.crps == "before" else pruned[0][0] if r.prune else baseline_ids
        for r in recipes
        if r.crps is not None
    ]
    sets = list(dict.fromkeys(sets))
    if sets:
        candidates = generate_tps(params.D, params.L_R, substream(params.master_seed, TAG_TPS))
        scored = dict(zip(sets, pairs.meds([factor(alpha) for alpha in candidates], sets)))

    builds = []
    for scheme, recipe in zip(schemes, recipes):
        tps, member_ids, book_med = None, baseline_ids, baseline_med
        if recipe.crps == "before":
            tps, _ = _best(candidates, scored[every_id])
        if recipe.prune:
            index = tps.d_index if tps else 0
            if index not in pruned:
                pruned[index] = prune(*pairs.ranks(factor(_alpha(tps))))
            member_ids, book_med = pruned[index]
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
