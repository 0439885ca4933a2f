"""Exhaustive enumeration of codewords into the indexed codeword table.

Global codeword order is lexicographic: frequency subsets in increasing
order, allocations in increasing order within each subset, so
``global_index = subset_index * card_P + allocation_index``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .params import C_LIGHT, DerivedParams, SystemParams

DESIGN_BUDGET_BYTES = 4 << 30
"""Largest codeword table, scheme design (:func:`imjrc.crps.design_bytes`) or
Monte Carlo working set (:func:`imjrc.sim.buffer_floats`) that is built, by
its estimate.  :func:`check_budget` is the one reader: it refuses a larger
one before anything is allocated."""


def check_budget(need: int, what: str, sizes: str) -> None:
    """Refuse ``what`` (e.g. ``codeword table needs``) if its estimated ``need`` bytes
    exceed :data:`DESIGN_BUDGET_BYTES`, naming the GiB figure and ``sizes``."""
    if need > DESIGN_BUDGET_BYTES:
        budget = f"over the {DESIGN_BUDGET_BYTES / 2**30:.0f} GiB design budget"
        raise ValueError(f"{what} about {need / 2**30:.1f} GiB ({sizes}), {budget}")


def enumerate_subsets(m: int, k: int) -> list[tuple[int, ...]]:
    """All K-of-M carrier offset subsets, lexicographic, each sorted."""
    return list(itertools.combinations(range(m), k))


def enumerate_allocations(l_r: int, k: int) -> Iterator[tuple[int, ...]]:
    """All balanced antenna-to-slot allocations, lexicographic, one at a time.

    Each allocation is a length-L_R word over slots 0..K-1 with exactly
    L_R/K copies of each slot value.  The next swaps the last slot below its
    successor with the last later slot above it, and reverses what follows.
    """
    word = sorted(list(range(k)) * (l_r // k))
    while True:
        yield tuple(word)
        i = next((i for i in range(l_r - 2, -1, -1) if word[i] < word[i + 1]), None)
        if i is None:
            return
        j = max(j for j in range(i + 1, l_r) if word[j] > word[i])
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]


@dataclass
class CodewordTable:
    """Every codeword of a scenario, in global-index order, as carrier words.

    Antenna row l of codeword g is ``steering[l]`` over sqrt(L_R) times
    ``waveforms[carriers[g, l]]``, the sampled waveform of the carrier offset
    that antenna transmits on.  No matrix is formed: the design reads the
    carrier words, and the detector reads them with :meth:`coefficients`
    and the waveforms.
    """

    params: SystemParams
    derived: DerivedParams
    carriers: np.ndarray  # (C_total, L_R) carrier offset indices
    waveforms: np.ndarray  # (M, L_T) sampled carrier waveforms
    steering: np.ndarray  # (L_R,) unit-modulus antenna weights

    def __len__(self) -> int:
        return self.carriers.shape[0]

    def coefficients(self, alpha: np.ndarray | None = None) -> np.ndarray:
        """Each row's coefficient, times ``alpha`` if given: sample 0 of its rows, bit for bit."""
        coef = self.steering / np.sqrt(self.params.L_R)
        return coef if alpha is None else coef * alpha

    def text_of(self, global_index: int) -> list[str]:
        """Its carrier subset and antenna allocation as CSV text, e.g. ``0-1``, ``0-0-1-1``:
        a balanced allocation uses every slot, so the subset is its carriers, sorted."""
        word = self.carriers[global_index].tolist()
        subset = sorted(set(word))
        return ["-".join(map(str, w)) for w in (subset, map(subset.index, word))]


def build_table(params: SystemParams, derived: DerivedParams) -> CodewordTable:
    """Enumerate all C_total codewords as carrier words, with the M carrier
    waveforms and L_R steering weights whose products, over sqrt(L_R), are their rows.

    The words, one (C_total, L_R) 8-byte integer array, and the (M, L_T)
    complex waveforms, each formed in place, must fit the design budget
    before anything is enumerated.
    """
    need = derived.C_total * params.L_R * 8 + params.M * derived.L_T * 16
    sizes = f"C_total={derived.C_total}, L_R={params.L_R}, L_T={derived.L_T}"
    check_budget(need, "codeword table needs", sizes)
    slots = np.asarray(enumerate_subsets(params.M, params.K))
    # subset 0 is slots 0..K-1, so its carrier words are the allocations; the
    # array grows in place (no view of it exists yet) to every subset's words,
    # each gathered through subset 0's.  Every index is in range, so "clip"
    # changes none but lets take write into ``carriers`` directly.
    words = itertools.chain.from_iterable(enumerate_allocations(params.L_R, params.K))
    carriers = np.fromiter(words, dtype=np.intp, count=derived.card_P * params.L_R)
    carriers.resize((len(slots), derived.card_P, params.L_R), refcheck=False)
    for s in range(1, len(slots)):
        np.take(slots[s], carriers[0], out=carriers[s], mode="clip")
    carriers = carriers.reshape(derived.C_total, params.L_R)  # global-index order
    # sampled at T_s = 1/(M delta_f), distinct carriers are orthogonal over any M
    # samples; row 0 holds t, grown in place, until row m's phases (2j pi m) t are formed
    waveforms = np.arange(derived.L_T, dtype=complex)
    waveforms.resize((params.M, derived.L_T), refcheck=False)
    for m in range(params.M - 1, -1, -1):
        np.multiply(2j * np.pi * m, waveforms[0], out=waveforms[m])
    waveforms /= params.M
    np.exp(waveforms, out=waveforms)
    # elements 10 wavelengths apart: f_c cancels, and only theta sets the weights
    l = np.arange(params.L_R)
    phase = 2.0 * np.pi * params.f_c * derived.d_spacing * l * np.sin(params.theta) / C_LIGHT
    return CodewordTable(
        params=params,
        derived=derived,
        carriers=carriers,
        waveforms=waveforms,
        steering=np.exp(1j * phase),
    )


def export_table_csv(table: CodewordTable, path: str) -> None:
    """Write the index table (no matrices) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["global_index", "subset_index", "allocation_index", "freq_subset", "allocation"]
        )
        for g in range(len(table)):
            writer.writerow([g, *divmod(g, table.derived.card_P), *table.text_of(g)])
