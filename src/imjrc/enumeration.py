"""Exhaustive enumeration of codewords into the indexed codeword table.

Global codeword order is lexicographic: frequency subsets in increasing
order, allocations in increasing order within each subset, so
``global_index = subset_index * card_P + allocation_index``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .params import C_LIGHT, DerivedParams, SystemParams

DESIGN_BUDGET_BYTES = 4 << 30
"""Largest codeword table, scheme design as estimated by
:func:`imjrc.crps.design_bytes`, or Monte Carlo working set of
:func:`imjrc.sim.run_ber` that is built; a larger one is refused before it
allocates."""


def enumerate_subsets(m: int, k: int) -> list[tuple[int, ...]]:
    """All K-of-M carrier offset subsets, lexicographic, each sorted."""
    return list(itertools.combinations(range(m), k))


def enumerate_allocations(l_r: int, k: int) -> list[tuple[int, ...]]:
    """All balanced antenna-to-slot allocations, lexicographic.

    Each allocation is a length-L_R word over slots 0..K-1 with exactly
    L_R/K copies of each slot value.
    """
    l_k = l_r // k
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []
    counts = [l_k] * k

    def extend() -> None:
        if len(prefix) == l_r:
            out.append(tuple(prefix))
            return
        for slot in range(k):
            if counts[slot]:
                counts[slot] -= 1
                prefix.append(slot)
                extend()
                prefix.pop()
                counts[slot] += 1

    extend()
    return out


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
    subsets: tuple[tuple[int, ...], ...]
    allocations: tuple[tuple[int, ...], ...]
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
        """Its carrier subset and antenna allocation as CSV text, e.g. ``0-1``, ``0-0-1-1``."""
        subset, allocation = divmod(global_index, self.derived.card_P)
        return ["-".join(map(str, w)) for w in (self.subsets[subset], self.allocations[allocation])]


def build_table(params: SystemParams, derived: DerivedParams) -> CodewordTable:
    """Enumerate all C_total codewords as carrier words, with the M carrier
    waveforms and L_R steering weights whose products, over sqrt(L_R), are their rows.

    The words, one (C_total, L_R) 8-byte integer array gathered in place,
    and the (M, L_T) complex waveforms must fit the design budget before
    anything is enumerated.
    """
    need = derived.C_total * params.L_R * 8 + params.M * derived.L_T * 16
    if need > DESIGN_BUDGET_BYTES:
        raise ValueError(
            f"codeword table needs about {need / 2**30:.1f} GiB "
            f"(C_total={derived.C_total}, L_R={params.L_R}, L_T={derived.L_T}), over the "
            f"{DESIGN_BUDGET_BYTES / 2**30:.0f} GiB design budget"
        )
    subsets = enumerate_subsets(params.M, params.K)
    allocations = enumerate_allocations(params.L_R, params.K)
    # carrier offset of each antenna, in global-index order: (C_total, L_R).
    # Every index is in range, so "clip" changes none; it lets take write
    # into ``carriers`` directly instead of through a buffer of its size.
    slots = np.asarray(subsets)
    carriers = np.empty((derived.C_total, params.L_R), dtype=slots.dtype)
    out = carriers.reshape(len(subsets), -1, params.L_R)
    np.take(slots, allocations, axis=1, out=out, mode="clip")
    # sampled at T_s = 1/(M delta_f), distinct carriers are orthogonal over any M samples
    waveforms = np.exp(2j * np.pi * np.arange(params.M)[:, None] * np.arange(derived.L_T) / params.M)
    # elements 10 wavelengths apart: f_c cancels, and only theta sets the weights
    l = np.arange(params.L_R)
    phase = 2.0 * np.pi * params.f_c * derived.d_spacing * l * np.sin(params.theta) / C_LIGHT
    return CodewordTable(
        params=params,
        derived=derived,
        subsets=tuple(subsets),
        allocations=tuple(allocations),
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
