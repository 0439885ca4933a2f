"""The benchmark's workloads: one imjrc config each, plus the cell the oracle replays.

The master seed is the only input that varies between runs; it reaches the
program through the generated config file and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_SCHEMES = ("baseline", "codebook_only", "crps_only", "codebook_then_crps", "crps_then_codebook")

ORACLE_PULSES = 300
"""Pulses of the small run whose every decision the oracle replays."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    m: int
    l_r: int
    snr_db: tuple[float, float, float]
    pulses: int
    oracle_scheme: str
    oracle_snr_db: float
    k: int = 2
    l_c: int = 4
    d: int = 100
    channel_aware_med: bool = False
    early_stop: bool = False
    schemes: tuple[str, ...] = ALL_SCHEMES

    def config(self, master_seed: int) -> dict:
        """The config keys of one run, as ``imjrc`` reads them from a file."""
        return {
            "m": self.m,
            "k": self.k,
            "l_r": self.l_r,
            "l_c": self.l_c,
            "d": self.d,
            "master_seed": master_seed,
            "schemes": list(self.schemes),
            "snr_db": self.snr_db,
            "pulses": self.pulses,
            "channel_aware_med": self.channel_aware_med,
            "early_stop": self.early_stop,
        }

    def oracle_config(self, master_seed: int) -> dict:
        """One scheme at one SNR point, small enough to replay trial by trial."""
        snr = self.oracle_snr_db
        return dict(
            self.config(master_seed),
            schemes=[self.oracle_scheme],
            snr_db=(snr, snr, 1.0),
            pulses=ORACLE_PULSES,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-default",
            why="default scenario, all five schemes on the 11-point grid: Monte Carlo is ~90% of the run "
            "and the five schemes share two codebooks",
            m=7,
            l_r=6,
            snr_db=(-16.0, 4.0, 2.0),
            pulses=1024,
            oracle_scheme="codebook_only",
            oracle_snr_db=-10.0,
        ),
        Workload(
            name="design-large",
            why="M=8, L_R=8 (1,960 codewords, B=10) on two SNR points: design is most of the run and "
            "CRPS candidate scoring sets peak memory",
            m=8,
            l_r=8,
            snr_db=(-10.0, -6.0, 4.0),
            pulses=512,
            oracle_scheme="baseline",
            oracle_snr_db=-10.0,
        ),
        Workload(
            name="channel-aware",
            why="default scenario designed through a seeded channel with early stop: CRPS scores per "
            "candidate, 4 distinct codebooks, cells of 1 or 2 chunks",
            m=7,
            l_r=6,
            snr_db=(-18.0, 2.0, 4.0),
            pulses=2048,
            oracle_scheme="crps_then_codebook",
            oracle_snr_db=-8.0,
            channel_aware_med=True,
            early_stop=True,
        ),
    )
}


def config_text(cfg: dict) -> str:
    """A flat ``key = value`` config file for ``imjrc --config``."""
    lines = []
    for key, value in cfg.items():
        if key == "schemes":
            value = ", ".join(value)
        elif key == "snr_db":
            value = ":".join(repr(float(v)) for v in value)
        elif isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
