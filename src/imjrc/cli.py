"""Command-line front end: derive, design, ber, gain, complexity.

A run is described by a :class:`RunConfig`, assembled from an optional
flat key=value config file plus command-line overrides.  The ``ber`` verb
writes everything needed to reproduce and replot a run: ber.csv,
gains.csv, meta.json (full configuration and selected designs), and a
standalone plot script.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from . import __version__
from .channel import TAG_DESIGN_CHANNEL, draw_channel, substream
from .crps import Scheme, SchemeBuild, TpsFactor, build_schemes
from .enumeration import CodewordTable, build_table, export_table_csv
from .params import DerivedParams, SystemParams, derive
from .sim import EARLY_STOP_BIT_ERRORS, BerRecord, GainReport, buffer_floats, measure_gain, run_ber

FULL_RUN_PULSES = 100_000

REFERENCE_TARGET_BER = 1e-3
REFERENCE_GAINS_DB = {"crps_only": 2.5, "crps_then_codebook": 4.4}
REFERENCE_GAIN_TOL_DB = 1.0


@dataclass(frozen=True)
class RunConfig:
    """One fully-specified experiment; run fields are named like their config keys."""

    params: SystemParams = SystemParams()
    schemes: tuple[Scheme, ...] = tuple(Scheme)
    snr_start: float = -16.0
    snr_stop: float = 4.0
    snr_step: float = 2.0
    pulses: int = 10_000
    out: str = "results"
    full: bool = False
    channel_aware_med: bool = False
    early_stop: bool = False

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("schemes must not be empty")
        for i, scheme in enumerate(self.schemes):
            if scheme in self.schemes[:i]:
                raise ValueError(f"scheme {Scheme(scheme).value} is listed more than once")
        for name in ("snr_start", "snr_stop", "snr_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.snr_step <= 0.0:
            raise ValueError(f"snr_step must be positive, got {self.snr_step}")
        if self.snr_stop < self.snr_start:
            raise ValueError(
                f"snr_stop ({self.snr_stop}) must be >= snr_start ({self.snr_start})"
            )
        if self.pulses < 1:
            raise ValueError(f"pulses must be >= 1, got {self.pulses}")
        if not self.out:
            raise ValueError("out must name a directory")

    def snr_grid(self) -> np.ndarray:
        count = int(math.floor((self.snr_stop - self.snr_start) / self.snr_step + 1e-9)) + 1
        return self.snr_start + self.snr_step * np.arange(count)

    def effective_pulses(self) -> int:
        return FULL_RUN_PULSES if self.full else self.pulses


class ConfigError(ValueError):
    """A config file or flag problem, prefixed with the line or flag that set it."""


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOL_VALUES)}") from None


def _parse_schemes(raw: str) -> tuple[Scheme, ...]:
    try:
        return tuple(Scheme(name.strip()) for name in raw.split(",") if name.strip())
    except ValueError as exc:
        raise ValueError(f"{exc}; valid schemes: {', '.join(s.value for s in Scheme)}") from None


# config key (the lower-cased field name) -> (SystemParams field, converter)
_PARAM_KEYS = {name.lower(): (name, hint) for name, hint in get_type_hints(SystemParams).items()}
# config key -> parser of the RunConfig field of that name (a type that is not
# built from text by calling it has its own parser); snr_db sets the snr_* fields
_RUN_KEYS = {
    name: {bool: _parse_bool, tuple[Scheme, ...]: _parse_schemes}.get(hint, hint)
    for name, hint in get_type_hints(RunConfig).items()
    if name != "params" and not name.startswith("snr_")
}
_CONFIG_KEYS = {*_PARAM_KEYS, *_RUN_KEYS, "snr_db"}


def _parse_entries(entries: Iterable[tuple[str, str, str]]) -> RunConfig:
    """A RunConfig from (where, key, raw text) entries; a later entry wins.

    A bad key or value, or a run field that fails RunConfig's checks, is
    reported with its ``where``; parameter cross-checks run once all
    entries are in.
    """
    param_kwargs: dict[str, object] = {}
    config = RunConfig()
    for where, key, raw in entries:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            if key in _PARAM_KEYS:
                name, convert = _PARAM_KEYS[key]
                param_kwargs[name] = convert(raw)
            elif key == "snr_db":
                start, stop, step = map(float, raw.split(":"))
                config = replace(config, snr_start=start, snr_stop=stop, snr_step=step)
            else:
                config = replace(config, **{key: _RUN_KEYS[key](raw)})
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value {raw!r} for {key!r} ({exc})") from None
    return replace(config, params=SystemParams(**param_kwargs))


def _file_entries(path: str) -> Iterator[tuple[str, str, str]]:
    """The entries of a flat key=value config file (# starts a comment)."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    with fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, raw = line.partition("=")
            yield f"{path}:{lineno}", key.strip().lower(), raw.strip()


def load_config(path: str) -> RunConfig:
    """Parse a flat key=value config file; errors name the file and line."""
    return _parse_entries(_file_entries(path))


@dataclass(frozen=True)
class ComplexityEstimate:
    """Predicted real-operation count for one design-plus-detection pipeline."""

    label: str
    operations: float


def estimate_complexity(
    params: SystemParams,
    derived: DerivedParams,
    n_pulses: int,
) -> tuple[ComplexityEstimate, ComplexityEstimate]:
    """Closed-form operation counts for the two design pipelines.

    ``im_codebook`` covers codeword synthesis, greedy elimination of Q
    codewords, and N detections over the pruned set; ``im_crps`` covers
    synthesis, scoring D pre-scaling candidates over the full set, and N
    detections over the full set.  Exact integer arithmetic, returned as
    floats.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    k, l_r, l_c, l_t = params.K, params.L_R, params.L_C, derived.L_T
    c, q, n = derived.C_total, derived.Q, n_pulses

    synthesis = (k * l_r + (2 * k - 1) * l_t) * l_r * c
    detect_per_codeword = (l_r + 3) * l_c * l_t + 1

    # sum over the Q steps i of (c - i + 1)(c - i), by sum_{k < N} k (k + 1) = (N - 1) N (N + 1) / 3
    prune_pairs = ((c - 1) * c * (c + 1) - (c - q - 1) * (c - q) * (c - q + 1)) // 3
    # each count is formed twice over, so its half terms are integers; int / int rounds once
    codebook_twice = 2 * (synthesis + detect_per_codeword * (c - q) * n)
    codebook_twice += (3 * l_r * l_t + 1) * prune_pairs
    score_twice = 2 * l_r**2 * l_t + (3 * l_r * l_t + 1) * (c - 1)
    crps_twice = 2 * (synthesis + detect_per_codeword * c * n) + (score_twice * c + 2) * params.D
    return (
        ComplexityEstimate(label="im_codebook", operations=codebook_twice / 2),
        ComplexityEstimate(label="im_crps", operations=crps_twice / 2),
    )


@dataclass
class RunResult:
    config: RunConfig
    derived: DerivedParams
    builds: dict[str, SchemeBuild]
    records: list[BerRecord]
    gains: list[GainReport]
    # scheme -> the earlier scheme with a bit-equal codebook whose records it copies
    shared_codebooks: dict[str, str]
    # wall seconds of the design stage and of the Monte Carlo stage
    timings: dict[str, float]


def _design_inputs(config: RunConfig) -> tuple[CodewordTable, np.ndarray | None]:
    """The codeword table and, with ``channel_aware_med``, the seeded design channel."""
    params = config.params
    table = build_table(params, derive(params))
    design_channel = None
    if config.channel_aware_med:
        design_channel = draw_channel(
            params.L_C, params.L_R, substream(params.master_seed, TAG_DESIGN_CHANNEL)
        )
    return table, design_channel


def find_shared_codebooks(builds: Iterable[SchemeBuild]) -> dict[str, str]:
    """Each scheme whose codebook is bit-equal to an earlier one's, mapped to the first such.

    Every scheme scores one candidate pool, so (member ids, factor index)
    fixes the transmitted matrices (no factor is index 0, the identity).
    """
    first_of: dict[tuple, str] = {}
    shared = {}
    for build in builds:
        key = (build.member_ids, build.tps.d_index if build.tps else 0)
        twin = first_of.setdefault(key, build.scheme.value)
        if twin != build.scheme.value:
            shared[build.scheme.value] = twin
    return shared


def execute_run(config: RunConfig) -> RunResult:
    """Build every scheme in the config and measure its BER curve.

    Gains against the baseline are computed at 1e-3 and 1e-4 whenever the
    baseline is part of the run and both curves bracket the target.
    """
    t0 = time.perf_counter()
    table, design_channel = _design_inputs(config)
    buffer_floats(table, config.effective_pulses())  # refused before any design, at one codebook
    designed = build_schemes(config.schemes, table, design_channel=design_channel)
    builds = {build.scheme.value: build for build in designed}
    shared_codebooks = find_shared_codebooks(designed)
    # common random numbers make a twin's curve identical, so it is copied
    distinct = [build for build in designed if build.scheme.value not in shared_codebooks]
    t1 = time.perf_counter()
    grid = config.snr_grid()
    stage_timings: dict[str, float] = {}
    simulated = run_ber(
        distinct, grid, config.effective_pulses(), early_stop=config.early_stop, timings=stage_timings
    )
    curves = {
        build.scheme.value: simulated[i * len(grid) : (i + 1) * len(grid)]
        for i, build in enumerate(distinct)
    }
    records = [
        replace(r, scheme=scheme.value)
        for scheme in config.schemes
        for r in curves[shared_codebooks.get(scheme.value, scheme.value)]
    ]
    timings = {"design_s": t1 - t0, "simulate_s": time.perf_counter() - t1, **stage_timings}

    gains: list[GainReport] = []
    if Scheme.BASELINE in config.schemes:
        base = [r for r in records if r.scheme == Scheme.BASELINE.value]
        for scheme in config.schemes:
            if scheme is Scheme.BASELINE:
                continue
            current = [r for r in records if r.scheme == scheme.value]
            for target in (1e-3, 1e-4):
                try:
                    gains.append(measure_gain(base, current, target))
                except ValueError:
                    continue
    return RunResult(
        config=config,
        derived=table.derived,
        builds=builds,
        records=records,
        gains=gains,
        shared_codebooks=shared_codebooks,
        timings=timings,
    )


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render BER-vs-SNR curves from the ber.csv next to this script."""

import collections
import csv
import pathlib

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = pathlib.Path(__file__).resolve().parent
curves = collections.defaultdict(list)
with open(here / "ber.csv") as fh:
    for row in csv.DictReader(fh):
        curves[row["scheme"]].append((float(row["snr_db"]), float(row["ber"])))

fig, ax = plt.subplots(figsize=(7, 5))
for scheme, points in curves.items():
    points.sort()
    snr = [p[0] for p in points]
    ber = [max(p[1], 1e-12) for p in points]
    ax.semilogy(snr, ber, marker="o", label=scheme)
ax.set_xlabel("SNR (dB)")
ax.set_ylabel("BER")
ax.grid(True, which="both", alpha=0.4)
ax.legend()
fig.tight_layout()
fig.savefig(here / "ber.png", dpi=150)
print(here / "ber.png")
'''


def config_to_dict(config: RunConfig) -> dict:
    """The ``config`` block of meta.json: parameter keys, then run fields in field order."""
    block = {key: getattr(config.params, name) for key, (name, _) in _PARAM_KEYS.items()}
    block.update((f.name, getattr(config, f.name)) for f in fields(config) if f.name != "params")
    block["schemes"] = [s.value for s in config.schemes]
    return block


def runconfig_from_meta(meta: dict) -> RunConfig:
    """Rebuild the exact RunConfig a meta.json was produced by."""
    cfg = meta["config"]
    run = {f.name: cfg[f.name] for f in fields(RunConfig) if f.name != "params"}
    return RunConfig(
        params=SystemParams(**{name: cfg[key] for key, (name, _) in _PARAM_KEYS.items()}),
        **dict(run, schemes=tuple(map(Scheme, cfg["schemes"]))),
    )


def _tps_json(tps: TpsFactor) -> dict:
    return {
        "d_index": tps.d_index,
        "alpha": [[float(a.real), float(a.imag)] for a in tps.alpha],
    }


def run_environment() -> dict:
    """The interpreter, numpy and BLAS build a run used, and its BLAS thread settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _write_rows(path: str, row_type: type, rows: Sequence) -> None:
    """A CSV of dataclass rows, header from the fields: text as is, numbers by repr."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            values = (getattr(row, name) for name in names)
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in values) + "\n")


def emit_results(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write ber.csv, gains.csv, meta.json, and the plot script."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "ber": os.path.join(out_dir, "ber.csv"),
        "gains": os.path.join(out_dir, "gains.csv"),
        "meta": os.path.join(out_dir, "meta.json"),
        "plot": os.path.join(out_dir, "plot_ber.py"),
    }

    _write_rows(paths["ber"], BerRecord, result.records)
    _write_rows(paths["gains"], GainReport, result.gains)

    schemes_meta = {}
    for name, build in result.builds.items():
        schemes_meta[name] = {
            "provenance": build.provenance,
            "med": build.med,
            "members": len(build.member_ids),
            "member_ids": list(build.member_ids),
            "tps": None if build.tps is None else _tps_json(build.tps),
        }
    meta = {
        "package": {"name": "imjrc", "version": __version__},
        "config": config_to_dict(result.config),
        "derived": asdict(result.derived),
        "schemes": schemes_meta,
        "shared_codebooks": result.shared_codebooks,
        "conventions": {
            "bit_labeling": "natural binary over member rank",
            "snr": "per-entry average receive power over noise variance, 1/sigma^2",
            "tps_power": "sum_l |alpha_l|^2 = L_R",
            "effective_pulses": result.config.effective_pulses(),
        },
        "environment": run_environment(),
        "timings": result.timings,
    }
    with open(paths["meta"], "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")

    with open(paths["plot"], "w") as fh:
        fh.write(_PLOT_SCRIPT)
    return paths


def reference_gain_lines(gains: Sequence[GainReport]) -> list[str]:
    """Divergence lines for measured gains outside the reference windows."""
    lines = []
    for g in gains:
        if g.target_ber != REFERENCE_TARGET_BER or g.scheme not in REFERENCE_GAINS_DB:
            continue
        expected = REFERENCE_GAINS_DB[g.scheme]
        if abs(g.gain_db - expected) > REFERENCE_GAIN_TOL_DB:
            lines.append(
                f"{g.scheme} vs {g.baseline} at BER {g.target_ber:g}: measured "
                f"{g.gain_db:.2f} dB, reference {expected:.1f} +/- "
                f"{REFERENCE_GAIN_TOL_DB:.1f} dB"
            )
    return lines


_DIVERGENCE_PREAMBLE = """SNR gain divergence report
==========================
Measured SNR gains fell outside the reference windows this artifact aims
to reproduce.

{found}
Known sources of divergence:

- The reference results are reported on an SNR axis whose absolute
  normalization is not recoverable from the system model alone; this
  artifact pins SNR = 1/sigma^2 under unit per-entry receive power.
  Absolute curve positions therefore differ, and curve-shape differences
  move the crossing points that define a gain.
- The crps_only scheme pre-scales the first-2^B member set.  A reference
  curve may randomize a different valid member set (unspecified), which
  changes the achievable post-scaling MED.
- Pre-scaling candidates are one random pool of D draws; the selected
  factor and its MED vary with the pool.

Out-of-window measurements:
"""


def write_divergence_report(
    lines: Sequence[str], shared_codebooks: dict[str, str], out_dir: str
) -> str:
    """divergence_report.txt: the run's bit-identical codebooks, known sources, then ``lines``."""
    found = "Every scheme of this run sent its own codebook.\n"
    if shared_codebooks:
        found = (
            "These schemes sent the codebook of an earlier scheme bit for bit, so\n"
            'their curves coincide (see README, "Known divergences"):\n\n'
        ) + "".join(f"- {scheme} = {twin}\n" for scheme, twin in shared_codebooks.items())
    path = os.path.join(out_dir, "divergence_report.txt")
    with open(path, "w") as fh:
        fh.write(_DIVERGENCE_PREAMBLE.format(found=found))
        for line in lines:
            fh.write(f"- {line}\n")
    return path


def _add_common(sp: argparse.ArgumentParser) -> argparse.ArgumentParser:
    sp.add_argument("--config", help="path to a key=value config file")
    sp.add_argument(
        "--scheme",
        action="append",
        help="scheme to run (repeat or comma-separate; default: all five)",
    )
    sp.add_argument(
        "--snr",
        help="SNR grid as start:stop:step in dB (write --snr=-16:4:2 when start is negative)",
    )
    sp.add_argument("--pulses", type=int, help="Monte Carlo pulses per SNR point")
    sp.add_argument("--seed", type=int, help="master seed override")
    sp.add_argument("--out", help="output directory")
    sp.add_argument(
        "--full", action="store_true", help=f"run {FULL_RUN_PULSES} pulses per point"
    )
    sp.add_argument(
        "--channel-aware-med",
        action="store_true",
        help="design distances through one seeded channel draw",
    )
    sp.add_argument(
        "--early-stop",
        action="store_true",
        help=f"end an SNR point after {EARLY_STOP_BIT_ERRORS} bit errors",
    )
    return sp


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file first, then the common flags that were given; a later entry wins."""
    flags = []
    for dest, value in vars(args).items():
        # each common flag sets the config key of its name, but for these three
        key = {"scheme": "schemes", "snr": "snr_db", "seed": "master_seed"}.get(dest, dest)
        if key in _CONFIG_KEYS and value is not None and value is not False:
            raw = ",".join(value) if dest == "scheme" else "true" if value is True else str(value)
            flags.append((f"--{dest.replace('_', '-')}", key, raw))
    if args.config == "":
        raise ConfigError("--config: must name a file")
    file_entries = _file_entries(args.config) if args.config is not None else ()
    return _parse_entries(itertools.chain(file_entries, flags))


def read_ber_csv(path: str) -> list[BerRecord]:
    columns = get_type_hints(BerRecord)
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(fh)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns {', '.join(missing)}")
        records = []
        for row in reader:
            values = {}
            for name, convert in columns.items():
                try:
                    values[name] = convert(row[name])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{reader.line_num}: column {name}: {exc}") from None
            records.append(BerRecord(**values))
        return records


def _cmd_derive(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    for quantities in (config.params, derive(config.params)):
        for f in fields(quantities):
            print(f"{f.name} = {getattr(quantities, f.name)}")
    return 0


def _check_out(out: str) -> None:
    """Refuse an ``--out`` that cannot be a directory, before any work is done."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"--out {out}: {path} is not a directory")


def export_codebook_csv(build: SchemeBuild, path: str) -> None:
    """One row per member: rank, bit label, indices, subset, allocation, provenance, MED."""
    table = build.table
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rank", "bits", "global_index", "freq_subset", "allocation", "provenance", "med"]
        )
        for rank, g in enumerate(build.member_ids):
            bits = format(rank, f"0{table.derived.B}b")  # natural binary, MSB first
            writer.writerow([rank, bits, g, *table.text_of(g), build.provenance, repr(build.med)])


def _cmd_design(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    _check_out(config.out)
    table, design_channel = _design_inputs(config)
    builds = build_schemes(config.schemes, table, design_channel=design_channel)
    os.makedirs(config.out, exist_ok=True)
    export_table_csv(table, os.path.join(config.out, "table.csv"))
    for build in builds:
        scheme = build.scheme
        export_codebook_csv(build, os.path.join(config.out, f"codebook_{scheme.value}.csv"))
        if build.tps is not None:
            tps_path = os.path.join(config.out, f"tps_{scheme.value}.json")
            with open(tps_path, "w") as fh:
                json.dump(_tps_json(build.tps), fh, indent=2)
                fh.write("\n")
        tps_note = f", tps candidate {build.tps.d_index}" if build.tps else ""
        print(f"{scheme.value}: {len(build.member_ids)} members, med {build.med:.6g}{tps_note}")
    print(f"design artifacts written to {config.out}")
    return 0


def _cmd_ber(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    _check_out(config.out)
    result = execute_run(config)
    for r in result.records:
        print(
            f"{r.scheme} snr {r.snr_db:+.1f} dB: ber {r.ber:.3e} "
            f"({r.bit_errors} bit errors / {r.pulses} pulses)"
        )
    for g in result.gains:
        print(
            f"gain {g.scheme} vs {g.baseline} at ber {g.target_ber:g}: {g.gain_db:+.2f} dB"
        )
    paths = emit_results(result, config.out)
    if config.full:
        lines = reference_gain_lines(result.gains)
        if lines:
            shared = result.shared_codebooks
            paths["divergence"] = write_divergence_report(lines, shared, config.out)
            print("measured gains diverge from the reference windows:")
            for line in lines:
                print(f"  {line}")
    print("wrote " + ", ".join(sorted(paths.values())))
    return 0


def _cmd_gain(args: argparse.Namespace) -> int:
    records = read_ber_csv(args.csv)
    base = [r for r in records if r.scheme == args.baseline]
    scheme = [r for r in records if r.scheme == args.scheme_name]
    if not base:
        print(f"no rows for baseline scheme {args.baseline!r} in {args.csv}", file=sys.stderr)
        return 2
    if not scheme:
        print(f"no rows for scheme {args.scheme_name!r} in {args.csv}", file=sys.stderr)
        return 2
    report = measure_gain(base, scheme, args.target_ber)
    print(
        f"gain {report.scheme} vs {report.baseline} at ber {report.target_ber:g}: "
        f"{report.gain_db:+.2f} dB (crossings {report.snr_scheme:.2f} / "
        f"{report.snr_baseline:.2f} dB)"
    )
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    derived = derive(config.params)
    for est in estimate_complexity(config.params, derived, config.effective_pulses()):
        print(f"{est.label}: {est.operations:.6e} operations")
    return 0


# the verbs that take the common options: name, help, handler
_COMMON_VERBS = (
    ("derive", "print scenario parameters and derived quantities", _cmd_derive),
    ("design", "build codebooks and pre-scaling factors, write CSVs", _cmd_design),
    ("ber", "run Monte Carlo BER curves and write results", _cmd_ber),
    ("complexity", "closed-form operation counts for both pipelines", _cmd_complexity),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imjrc",
        description="Index-modulation joint radar-communication link simulator",
    )
    parser.add_argument("--version", action="version", version=f"imjrc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in _COMMON_VERBS:
        _add_common(sub.add_parser(name, help=help_text)).set_defaults(func=handler)

    sp = sub.add_parser("gain", help="measure SNR gain between two curves in a ber.csv")
    sp.add_argument("csv", help="path to a ber.csv")
    sp.add_argument("--baseline", default=Scheme.BASELINE.value)
    sp.add_argument("--scheme", dest="scheme_name", required=True)
    sp.add_argument("--target-ber", type=float, default=1e-3)
    sp.set_defaults(func=_cmd_gain)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
