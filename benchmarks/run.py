"""Benchmark of the ``imjrc ber`` entry point, one workload per call.

    python3 benchmarks/run.py --workload mc-default --seed 1729 --seconds 20 --trace 0

Run from the root of a source checkout; imjrc is imported from ./src.  With
``--trace 0`` it repeats rounds of (design-phase probe, ``imjrc ber``
process) until ``--seconds`` have passed and reports the end-to-end metrics
as medians over rounds.  With ``--trace 1`` it runs ``imjrc ber`` once
untraced and once with every public function wrapped in a span, plus one
design pass under tracemalloc, and reports the per-layer metrics.  Either
way it checks every artifact against the reference computations in
``oracle.py`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when a
check fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS, Workload, config_text  # noqa: E402

RUN_LIMIT_S = 170.0
"""Every child is killed once the whole run has lasted this long."""

BLAS_THREADS = "1"
"""BLAS threads of every child.  The matrices are small, so a second thread
buys little, while a thread that waits on a busy core adds to the spread."""

MIN_ROUNDS = 2
"""Rounds a run makes even when one round outlasts ``--seconds``."""


class CannotRun(Exception):
    """The benchmark cannot run here (no source tree, a child that cannot start)."""


@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: str


class Runner:
    """Spawns imjrc processes for one workload and keeps the operation tally."""

    def __init__(self, root: Path, workload: Workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = root / ".bench_out" / workload.name
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        src = root / "src"
        if not (src / "imjrc" / "__init__.py").is_file():
            raise CannotRun(f"no imjrc source tree at {src}; run from the root of a checkout")
        pythonpath = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self.env = dict(
            os.environ,
            PYTHONPATH=pythonpath,
            IMJRC_SRC=str(src),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self._table = None

    def table(self, meta: dict):
        """The oracle's codewords for the scenario a meta.json describes, built once."""
        if self._table is None:
            self._table = oracle.codewords(meta["config"])
        return self._table

    def write(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text)
        return path

    def spawn(self, argv: list[str], log: str) -> Proc:
        """Run one child to its end; wall time from spawn to exit, its own peak RSS."""
        limit = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if limit <= 0:
            raise CannotRun("the run is out of time")
        self.attempted += 1
        with open(self.out / f"{log}.out", "w") as fh_out, open(self.out / f"{log}.err", "w") as fh_err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env, stdout=fh_out, stderr=fh_err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
        return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, (self.out / f"{log}.out").read_text())

    def ber(self, cfg_path: Path, out_dir: str, traced_spans: Path | None = None) -> Proc:
        args = ["ber", "--config", str(cfg_path), "--out", str(self.out / out_dir)]
        if traced_spans is None:
            return self.spawn(["-m", "imjrc.cli", *args], out_dir)
        return self.spawn([str(HERE / "probe.py"), "trace", str(traced_spans), "--", *args], out_dir)

    def probe(self, mode: str, spec_path: Path, log: str) -> Proc:
        return self.spawn([str(HERE / "probe.py"), mode, str(spec_path)], log)

    def artifacts(self, out_dir: str) -> tuple[str, dict]:
        base = self.out / out_dir
        return (base / "ber.csv").read_text(), json.loads((base / "meta.json").read_text())


def write_inputs(runner: Runner) -> tuple[Path, Path]:
    """The workload's config file and the design probe's scenario spec."""
    cfg = runner.workload.config(runner.seed)
    keys = ("m", "k", "l_r", "l_c", "d", "master_seed", "schemes", "channel_aware_med")
    return (
        runner.write("workload.cfg", config_text(cfg)),
        runner.write("design.json", json.dumps({k: cfg[k] for k in keys})),
    )


def check_oracle(runner: Runner) -> list[str]:
    """A small run of one cell, every decision replayed by the oracle."""
    path = runner.write("oracle.cfg", config_text(runner.workload.oracle_config(runner.seed)))
    proc = runner.ber(path, "oracle")
    if proc.code != 0:
        return [f"oracle run exited {proc.code}"]
    text, meta = runner.artifacts("oracle")
    return check_run(runner, text, meta) + oracle.check_decisions(text, meta, runner.table(meta))


def check_run(runner: Runner, text: str, meta: dict) -> list[str]:
    return oracle.check_ber_csv(text, meta) + oracle.check_design(meta, runner.table(meta))


def measure(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Rounds of (design probe, imjrc ber) until ``seconds`` have passed."""
    cfg_path, spec_path = write_inputs(runner)
    problems = check_oracle(runner)
    setups, runs, rss, rates = [], [], [], []
    first = None
    t0 = time.perf_counter()
    while len(runs) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        n = len(runs)
        setup = runner.probe("design", spec_path, f"design{n}")
        run = runner.ber(cfg_path, f"round{n}")
        if setup.code != 0 or run.code != 0:
            raise CannotRun(f"round {n}: design probe exited {setup.code}, imjrc ber exited {run.code}")
        text, meta = runner.artifacts(f"round{n}")
        if first is None:
            first = (text, meta)
            problems += check_run(runner, text, meta)
        else:
            problems += oracle.check_repeat(f"round {n}", first[0], text)
            if meta["schemes"] != first[1]["schemes"]:
                problems.append(f"round {n}: meta.json designs differ from round 0")
        setups.append(json.loads(setup.stdout.splitlines()[-1])["setup_s"])
        runs.append(run.wall_s)
        rss.append(run.peak_rss_mb)
        rates.append(sum(r["pulses"] for r in oracle.parse_ber_csv(text)) / run.wall_s)
    return {
        "run_s": (statistics.median(runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "decisions_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }, problems


def trace(runner: Runner) -> tuple[dict, list[str]]:
    """One untraced and one traced ``imjrc ber``, and one design pass under tracemalloc."""
    cfg_path, spec_path = write_inputs(runner)
    spans_path = runner.out / "spans.npz"
    problems = check_oracle(runner)
    plain = runner.ber(cfg_path, "untraced")
    traced = runner.ber(cfg_path, "traced", traced_spans=spans_path)
    memory = runner.probe("memory", spec_path, "memory")
    if plain.code or traced.code or memory.code:
        raise CannotRun(f"exit codes: untraced {plain.code}, traced {traced.code}, memory {memory.code}")
    text, meta = runner.artifacts("untraced")
    problems += check_run(runner, text, meta)
    problems += oracle.check_repeat("traced run", text, runner.artifacts("traced")[0])
    values = layers.span_metrics(str(spans_path))
    values.update(layers.memory_metrics(json.loads(memory.stdout.splitlines()[-1])))
    values["trace.run_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return {name: (values[name], unit) for name, (unit, _) in layers.PER_LAYER.items()}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1729, help="master seed written into the config")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        runner = Runner(Path.cwd(), WORKLOADS[args.workload], args.seed)
        metrics, problems = trace(runner) if args.trace else measure(runner, args.seconds)
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
