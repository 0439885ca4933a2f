"""Exhaustive enumeration of codewords and the rank/bit-label mapping.

Global codeword order is lexicographic: frequency subsets in increasing
order, allocations in increasing order within each subset, so
``global_index = subset_index * card_P + allocation_index``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import DerivedParams, SystemParams
from .signal import sampled_waveform, steering_vector

MAX_TABLE_SIZE = 1_000_000
"""Hard cap on C_total before the table is materialized."""


@dataclass(frozen=True)
class CodewordId:
    global_index: int
    subset_index: int
    allocation_index: int


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
    """Every codeword of a scenario, in global-index order.

    ``matrices`` has shape (C_total, L_R, L_T); row g is the codeword with
    global index g.  ``carriers[g, l]`` is the carrier offset antenna l of
    codeword g transmits on, and ``waveforms[c]`` is the sampled waveform of
    offset c, so antenna row l of codeword g is its steering weight over
    sqrt(L_R) times ``waveforms[carriers[g, l]]``.
    """

    params: SystemParams
    derived: DerivedParams
    subsets: tuple[tuple[int, ...], ...]
    allocations: tuple[tuple[int, ...], ...]
    matrices: np.ndarray
    carriers: np.ndarray  # (C_total, L_R) carrier offset indices
    waveforms: np.ndarray  # (M, L_T) sampled carrier waveforms

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def id_of(self, global_index: int) -> CodewordId:
        if not 0 <= global_index < len(self):
            raise ValueError(f"global index must lie in [0, {len(self)}), got {global_index}")
        return CodewordId(
            global_index=global_index,
            subset_index=global_index // self.derived.card_P,
            allocation_index=global_index % self.derived.card_P,
        )

    def subset_of(self, global_index: int) -> tuple[int, ...]:
        return self.subsets[self.id_of(global_index).subset_index]

    def allocation_of(self, global_index: int) -> tuple[int, ...]:
        return self.allocations[self.id_of(global_index).allocation_index]


def build_table(params: SystemParams, derived: DerivedParams) -> CodewordTable:
    """Materialize all C_total codeword matrices."""
    if derived.C_total > MAX_TABLE_SIZE:
        raise ValueError(
            f"C_total={derived.C_total} exceeds the enumeration cap {MAX_TABLE_SIZE}"
        )
    subsets = enumerate_subsets(params.M, params.K)
    allocations = enumerate_allocations(params.L_R, params.K)
    waveforms = np.stack([sampled_waveform(c, params, derived) for c in range(params.M)])
    w = steering_vector(params)
    subset_arr = np.asarray(subsets)
    alloc_arr = np.asarray(allocations)
    # carrier offset of each antenna, in global-index order: (C_total, L_R)
    freq_idx = subset_arr[:, alloc_arr].reshape(derived.C_total, params.L_R)
    mats = w[None, :, None] * waveforms[freq_idx] / np.sqrt(params.L_R)
    return CodewordTable(
        params=params,
        derived=derived,
        subsets=tuple(subsets),
        allocations=tuple(allocations),
        matrices=mats,
        carriers=freq_idx,
        waveforms=waveforms,
    )


def bits_to_rank(bits: Sequence[int]) -> int:
    """Natural-binary word (MSB first) to integer rank."""
    rank = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        rank = (rank << 1) | bit
    return rank


def rank_to_bits(rank: int, b: int) -> tuple[int, ...]:
    """Integer rank to its B-bit natural-binary word (MSB first)."""
    if b < 1:
        raise ValueError(f"bit width must be >= 1, got {b}")
    if not 0 <= rank < (1 << b):
        raise ValueError(f"rank must lie in [0, {1 << b}), got {rank}")
    return tuple((rank >> shift) & 1 for shift in range(b - 1, -1, -1))


def export_table_csv(table: CodewordTable, path: str) -> None:
    """Write the index table (no matrices) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["global_index", "subset_index", "allocation_index", "freq_subset", "allocation"]
        )
        for g in range(len(table)):
            cid = table.id_of(g)
            writer.writerow(
                [
                    g,
                    cid.subset_index,
                    cid.allocation_index,
                    "-".join(map(str, table.subsets[cid.subset_index])),
                    "-".join(map(str, table.allocations[cid.allocation_index])),
                ]
            )
