"""Scenario parameters and the integer/physical quantities derived from them.

A scenario is a pulsed multi-carrier MIMO link: M candidate carrier
frequencies spaced ``delta_f`` apart, K of them active per pulse, L_R
transmit antennas split evenly across the active carriers, and L_C
receive antennas.  Everything downstream (codeword enumeration, codebook
size, waveform length) is a pure function of these numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

C_LIGHT = 3.0e8
"""Propagation speed used for the array geometry, m/s."""

DEFAULT_MASTER_SEED = 1729


@dataclass(frozen=True)
class SystemParams:
    """Validated scenario parameters.

    Defaults describe the reference scenario used throughout the test
    suite: a 1.9 GHz carrier with seven 10 MHz-spaced frequencies, two
    active per pulse, six transmit and four receive antennas, 1 us pulses
    on a 2 us repetition interval, and 100 pre-scaling candidates.
    """

    M: int = 7
    K: int = 2
    L_R: int = 6
    L_C: int = 4
    f_c: float = 1.9e9
    delta_f: float = 10e6
    theta: float = math.pi / 4
    T_p: float = 1e-6
    T_r: float = 2e-6
    D: int = 100
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.M < self.K:
            raise ValueError(f"M must be >= K, got M={self.M}, K={self.K}")
        if self.L_R < 1:
            raise ValueError(f"L_R must be >= 1, got {self.L_R}")
        if self.L_R % self.K != 0:
            raise ValueError(
                f"L_R must be divisible by K, got L_R={self.L_R}, K={self.K}"
            )
        if self.L_R // self.K <= 1:
            # one antenna per active carrier leaves nothing to allocate
            raise ValueError(
                f"L_R/K must exceed 1, got L_R={self.L_R}, K={self.K}"
            )
        if self.L_C < 1:
            raise ValueError(f"L_C must be >= 1, got {self.L_C}")
        for name in ("f_c", "delta_f", "T_p", "T_r"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.T_p > self.T_r:
            raise ValueError(
                f"T_p must not exceed T_r, got T_p={self.T_p}, T_r={self.T_r}"
            )
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.D < 1:
            raise ValueError(f"D must be >= 1, got {self.D}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from :class:`SystemParams`, computed once by :func:`derive`.

    Attributes
    ----------
    L_K : antennas per active carrier, L_R / K.
    T_s : sample interval, 1 / (M * delta_f), seconds.
    L_T : samples per pulse, floor(T_p * M * delta_f) + 1.
    card_zeta : number of K-of-M frequency subsets, C(M, K).
    card_P : number of balanced antenna allocations, L_R! / (L_K!)^K.
    C_total : codeword count, card_zeta * card_P.
    B : bits per pulse, floor(log2(C_total)).
    Q : codewords beyond the largest power of two, C_total - 2^B.
    d_spacing : antenna element spacing, 10 wavelengths, meters.
    """

    L_K: int
    T_s: float
    L_T: int
    card_zeta: int
    card_P: int
    C_total: int
    B: int
    Q: int
    d_spacing: float


def derive(params: SystemParams) -> DerivedParams:
    """Compute all derived quantities for a scenario.

    Counting is done in exact integer arithmetic, so C_total and the bit
    budget are correct for any parameter sizes.
    """
    l_k = params.L_R // params.K
    card_zeta = math.comb(params.M, params.K)
    card_p = math.factorial(params.L_R) // math.factorial(l_k) ** params.K
    c_total = card_zeta * card_p
    b = c_total.bit_length() - 1
    q = c_total - (1 << b)
    t_s = 1.0 / (params.M * params.delta_f)
    # the product is an integer up to float rounding; nudge before floor so
    # an exact boundary (e.g. 70.0 computed as 69.999...) lands correctly
    l_t = math.floor(params.T_p * params.M * params.delta_f + 1e-9) + 1
    d_spacing = 10.0 * C_LIGHT / params.f_c
    return DerivedParams(
        L_K=l_k,
        T_s=t_s,
        L_T=l_t,
        card_zeta=card_zeta,
        card_P=card_p,
        C_total=c_total,
        B=b,
        Q=q,
        d_spacing=d_spacing,
    )
