"""Reference computations for checking imjrc artifacts, written apart from the package.

Nothing here imports imjrc.  Codewords are synthesised from the documented
model, random trials are redrawn from the documented substream convention
``SeedSequence(master_seed, spawn_key=(tag, trial))``, and decisions are made
by direct residual minimisation.  Each ``check_*`` function returns a list of
problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np

# substream tags of the documented draw convention
TAG_BITS = 2
TAG_CHANNEL = 3
TAG_NOISE = 4
TAG_DESIGN_CHANNEL = 5

CHUNK = 1024
"""Pulses per Monte Carlo chunk; early stop may only cut at a multiple of it."""

EARLY_STOP_BIT_ERRORS = 500

BER_HEADER = "scheme,snr_db,pulses,bit_errors,ber,ci_halfwidth"

MED_RTOL = 1e-9
"""Relative tolerance between the package's MED and the reference one.

Both are sums of a few hundred products of order one, so independent
evaluation orders agree to about 1e-14; 1e-9 leaves room and still rejects
any wrong member, weight or channel.
"""

TIE_RTOL = 1e-9
"""Residuals this close are a tie that float rounding may break either way."""


# ----------------------------------------------------------------------------
# scenario and codewords


def derived_counts(cfg: dict) -> dict:
    """Integer counts of a scenario, from the config echo in meta.json."""
    m, k, l_r = cfg["m"], cfg["k"], cfg["l_r"]
    l_k = l_r // k
    c_total = math.comb(m, k) * (math.factorial(l_r) // math.factorial(l_k) ** k)
    # samples per pulse, floor(T_p * M * delta_f) + 1, in exact decimal arithmetic
    l_t = math.floor(Fraction(repr(cfg["t_p"])) * m * Fraction(repr(cfg["delta_f"]))) + 1
    b = c_total.bit_length() - 1
    return {"C_total": c_total, "B": b, "L_T": l_t, "Q": c_total - (1 << b)}


def codewords(cfg: dict) -> np.ndarray:
    """All C_total codewords, (C_total, L_R, L_T), in the documented global order.

    Row l of a codeword is the steering weight of antenna l times the sampled
    waveform of the carrier antenna l is allocated to, over sqrt(L_R).  The
    array spacing is ten wavelengths, so the steering phase of antenna l is
    2 pi * 10 * l * sin(theta).  Carrier c is sampled at 1/(M delta_f):
    sample i is exp(2 pi j c i / M).  Subsets run in lexicographic order and,
    within a subset, balanced allocations do too.
    """
    m, k, l_r = cfg["m"], cfg["k"], cfg["l_r"]
    l_k = l_r // k
    l_t = derived_counts(cfg)["L_T"]
    subsets = list(itertools.combinations(range(m), k))
    allocations = [
        word
        for word in itertools.product(range(k), repeat=l_r)
        if all(word.count(slot) == l_k for slot in range(k))
    ]
    steer = np.exp(2j * np.pi * 10.0 * np.arange(l_r) * math.sin(cfg["theta"]))
    wave = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(l_t)) / m)
    out = np.empty((len(subsets) * len(allocations), l_r, l_t), dtype=complex)
    g = 0
    for subset in subsets:
        for alloc in allocations:
            carriers = [subset[slot] for slot in alloc]
            out[g] = steer[:, None] * wave[carriers] / math.sqrt(l_r)
            g += 1
    return out


def complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    z = rng.standard_normal((2,) + shape)
    return (z[0] + 1j * z[1]) / math.sqrt(2.0)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def design_channel(cfg: dict) -> np.ndarray | None:
    """The seeded design channel of a channel-aware run, else None."""
    if not cfg["channel_aware_med"]:
        return None
    return complex_normal(stream(cfg["master_seed"], TAG_DESIGN_CHANNEL), (cfg["l_c"], cfg["l_r"]))


def alpha_of(scheme_meta: dict) -> np.ndarray | None:
    tps = scheme_meta["tps"]
    if tps is None:
        return None
    return np.array([complex(re, im) for re, im in tps["alpha"]])


def member_matrices(table: np.ndarray, scheme_meta: dict) -> np.ndarray:
    """The transmitted codeword of each rank: members, rows scaled by alpha."""
    mats = table[np.asarray(scheme_meta["member_ids"])]
    alpha = alpha_of(scheme_meta)
    return mats if alpha is None else mats * alpha[None, :, None]


def min_pair_distance(
    mats: np.ndarray, alpha: np.ndarray | None = None, channel: np.ndarray | None = None
) -> float:
    """Minimum squared Frobenius distance over all pairs of (H) diag(alpha) X.

    Scaling row l by alpha_l weights its squared row distance by |alpha_l|^2,
    which is the design metric of a pre-scaled scheme.
    """
    images = mats if alpha is None else mats * alpha[None, :, None]
    if channel is not None:
        images = np.matmul(channel, images)
    flat = images.reshape(images.shape[0], -1)
    sq = (flat.real**2 + flat.imag**2).sum(axis=1)
    dist = sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.conj().T).real
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def close(a: float, b: float, rtol: float = MED_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


# ----------------------------------------------------------------------------
# checks on artifacts


def check_design(meta: dict, table: np.ndarray) -> list[str]:
    """meta.json design fields against the reference codewords."""
    cfg = meta["config"]
    problems = []
    counts = derived_counts(cfg)
    for key, value in counts.items():
        if meta["derived"][key] != value:
            problems.append(f"derived {key} = {meta['derived'][key]}, expected {value}")
    n_valid = 1 << counts["B"]
    channel = design_channel(cfg)
    if set(meta["schemes"]) != set(cfg["schemes"]):
        problems.append(f"meta schemes {sorted(meta['schemes'])} differ from config {cfg['schemes']}")
    for name, sm in meta["schemes"].items():
        ids = sm["member_ids"]
        if len(ids) != n_valid or sm["members"] != n_valid:
            problems.append(f"{name}: {len(ids)} members, expected 2^B = {n_valid}")
        if len(set(ids)) != len(ids):
            problems.append(f"{name}: member ids are not distinct")
        if not all(isinstance(g, int) and 0 <= g < counts["C_total"] for g in ids):
            problems.append(f"{name}: member id out of [0, {counts['C_total']})")
            continue
        alpha = alpha_of(sm)
        if alpha is not None:
            if alpha.shape != (cfg["l_r"],):
                problems.append(f"{name}: alpha has {alpha.size} entries, expected L_R = {cfg['l_r']}")
                continue
            power = float(np.sum(np.abs(alpha) ** 2))
            if not close(power, cfg["l_r"]):
                problems.append(f"{name}: alpha power {power!r}, expected L_R = {cfg['l_r']}")
        mats = table[np.asarray(ids)]
        ref = min_pair_distance(mats, alpha, channel)
        if not close(sm["med"], ref):
            problems.append(f"{name}: meta med {sm['med']!r}, reference {ref!r}")
        if alpha is not None:
            # the factor was selected over the full table when pre-scaling came first
            pool = table if sm["provenance"] == "crps_then_pruned" else mats
            selected = ref if pool is mats else min_pair_distance(pool, alpha, channel)
            identity = min_pair_distance(pool, None, channel)
            if selected < identity and not close(selected, identity):
                problems.append(
                    f"{name}: selected factor's MED {selected!r} is below the identity's {identity!r}"
                )
    return problems


def parse_ber_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != BER_HEADER:
        raise ValueError(f"ber.csv header is {lines[:1]!r}, expected {BER_HEADER!r}")
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "scheme": row["scheme"],
                "snr_db": float(row["snr_db"]),
                "pulses": int(row["pulses"]),
                "bit_errors": int(row["bit_errors"]),
                "ber": float(row["ber"]),
                "rest": (row["snr_db"], row["pulses"], row["bit_errors"], row["ber"], row["ci_halfwidth"]),
            }
        )
    return rows


def snr_grid(cfg: dict) -> list[float]:
    start, stop, step = cfg["snr_start"], cfg["snr_stop"], cfg["snr_step"]
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * i for i in range(count)]


def check_ber_csv(text: str, meta: dict) -> list[str]:
    """ber.csv arithmetic, shape, pulse counts and common random numbers."""
    cfg = meta["config"]
    try:
        rows = parse_ber_csv(text)
    except (ValueError, KeyError) as exc:
        return [f"ber.csv unreadable: {exc}"]
    problems = []
    b = derived_counts(cfg)["B"]
    grid = snr_grid(cfg)
    expected = len(cfg["schemes"]) * len(grid)
    if len(rows) != expected:
        problems.append(f"ber.csv has {len(rows)} rows, expected schemes x SNR points = {expected}")
    keys = {(r["scheme"], r["snr_db"]) for r in rows}
    wanted = {(s, snr) for s in cfg["schemes"] for snr in grid}
    if keys != wanted:
        problems.append(f"ber.csv (scheme, snr) cells differ from the config: {sorted(keys ^ wanted)[:4]}")
    request = meta["conventions"]["effective_pulses"]
    for r in rows:
        cell = f"{r['scheme']} @ {r['snr_db']} dB"
        if r["pulses"] < 1 or not 0 <= r["bit_errors"] <= r["pulses"] * b:
            problems.append(f"{cell}: {r['bit_errors']} bit errors over {r['pulses']} pulses")
            continue
        if r["ber"] != r["bit_errors"] / (r["pulses"] * b):
            problems.append(f"{cell}: ber {r['ber']!r} != bit_errors / (pulses * B)")
        if r["pulses"] != request:
            early = (
                cfg["early_stop"]
                and r["pulses"] < request
                and r["pulses"] % CHUNK == 0
                and r["bit_errors"] >= EARLY_STOP_BIT_ERRORS
            )
            if not early:
                problems.append(f"{cell}: {r['pulses']} pulses, requested {request}")
    # schemes with bit-equal member matrices see the same trials and must agree
    by_scheme: dict[str, list] = {}
    for r in rows:
        by_scheme.setdefault(r["scheme"], []).append(r["rest"])
    for a, b_name in itertools.combinations(meta["schemes"], 2):
        if same_codebook(meta["schemes"][a], meta["schemes"][b_name]) and by_scheme.get(a) != by_scheme.get(b_name):
            problems.append(f"{a} and {b_name} share a codebook but their ber.csv rows differ")
    return problems


def check_repeat(label: str, first: str, text: str) -> list[str]:
    """A rerun with the same seed must write a byte-identical ber.csv."""
    return [] if text == first else [f"{label}: ber.csv differs from the first run's"]


def same_codebook(a: dict, b: dict) -> bool:
    """True when two schemes transmit bit-equal member matrices."""
    if a["member_ids"] != b["member_ids"]:
        return False
    alpha_a, alpha_b = alpha_of(a), alpha_of(b)
    if alpha_a is None and alpha_b is None:
        return True
    # an absent factor transmits the members as they are, like an all-ones one
    ones = np.ones((alpha_b if alpha_a is None else alpha_a).size, dtype=complex)
    return bool(np.array_equal(ones if alpha_a is None else alpha_a, ones if alpha_b is None else alpha_b))


def replay_bit_errors(
    meta: dict, table: np.ndarray, scheme: str, snr_db: float, pulses: int
) -> tuple[int, int]:
    """Redraw the trials of one cell and decide each by direct residual minimisation.

    Returns the lowest and highest bit-error count the cell may have when
    near-tied residuals are broken either way; without ties they are equal.
    """
    cfg = meta["config"]
    seed = cfg["master_seed"]
    mats = member_matrices(table, meta["schemes"][scheme])
    n, l_r, l_t = mats.shape
    l_c = cfg["l_c"]
    noise_scale = math.sqrt(10.0 ** (-snr_db / 10.0))
    low = high = 0
    for trial in range(pulses):
        rank = int(stream(seed, TAG_BITS, trial).integers(n))
        h = complex_normal(stream(seed, TAG_CHANNEL, trial), (l_c, l_r))
        noise = complex_normal(stream(seed, TAG_NOISE, trial), (l_c, l_t))
        y = h @ mats[rank] + noise_scale * noise
        diff = y[None] - np.matmul(h, mats)
        residual = (diff.real**2 + diff.imag**2).sum(axis=(1, 2))
        tied = np.flatnonzero(residual <= residual.min() * (1.0 + TIE_RTOL))
        errors = [bin(rank ^ int(r)).count("1") for r in tied]
        low += min(errors)
        high += max(errors)
    return low, high


def check_decisions(text: str, meta: dict, table: np.ndarray) -> list[str]:
    """Every cell of a small run against the reference replay of its trials."""
    problems = []
    for r in parse_ber_csv(text):
        low, high = replay_bit_errors(meta, table, r["scheme"], r["snr_db"], r["pulses"])
        if not low <= r["bit_errors"] <= high:
            span = f"{low}" if low == high else f"{low}..{high}"
            problems.append(
                f"{r['scheme']} @ {r['snr_db']} dB: {r['bit_errors']} bit errors, "
                f"reference replay gives {span}"
            )
    return problems
