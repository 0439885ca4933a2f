"""Child-process side of the benchmark: design timing, span tracing, layer memory.

Run by ``run.py`` as a fresh interpreter with the checkout's ``src`` on
PYTHONPATH, one mode per process:

    probe.py design SPEC.json            time the design phase, print {"setup_s": ...}
    probe.py trace SPANS.npz -- ARGV...  run ``imjrc.cli.main(ARGV)`` with every public
                                         function wrapped in a span, then save the spans
    probe.py memory SPEC.json            run the design phase under tracemalloc and print
                                         each function's peak allocation above its entry

SPEC.json holds the scenario keys the benchmark writes into the workload's
config (m, k, l_r, l_c, d, master_seed, schemes, channel_aware_med).
IMJRC_SRC in the environment names the directory imjrc must come from.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from array import array

LAYERS = ("params", "signal", "enumeration", "codebook", "crps", "channel", "detector", "sim", "cli")
"""imjrc modules whose public functions are traced, each a layer named after its module."""


def imjrc_modules() -> dict[str, object]:
    """Import every layer that exists, keyed by its short name."""
    found = {}
    for name in LAYERS:
        try:
            found[name] = importlib.import_module(f"imjrc.{name}")
        except ModuleNotFoundError:
            continue
    return found


def require_source() -> None:
    import imjrc

    src = os.path.realpath(os.environ["IMJRC_SRC"])
    here = os.path.realpath(os.path.dirname(imjrc.__file__))
    if not here.startswith(src + os.sep):
        raise SystemExit(f"imjrc imported from {here}, not from {src}")


def public_functions(modules: dict[str, object]):
    """(qualified name, function) for each public function a layer defines."""
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{short}.{name}", obj


def install(wrap) -> None:
    """Replace each public function by ``wrap(qualname, fn)`` in every module that bound it.

    ``from .x import y`` copies the binding, so each imjrc module's namespace
    is patched wherever it holds the original object.
    """
    modules = imjrc_modules()
    wrapped = {fn: wrap(qualname, fn) for qualname, fn in public_functions(modules)}
    for name, mod in list(sys.modules.items()):
        if name == "imjrc" or name.startswith("imjrc."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])


class SpanRecorder:
    """Spans (name, start, end, parent) in flat arrays, plus counts taken at boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.builds: list = []
        self.artifacts: list[str] = []

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        clock, start, end, name, parent, stack = (
            time.perf_counter, self.start, self.end, self.name, self.parent, self.stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook:
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, AttributeError):
                    pass  # a changed signature or result leaves its count at zero
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def save(self, path: str) -> None:
        import numpy as np

        builds = self.builds
        distinct = []
        for mats in builds:
            if not any(m.shape == mats.shape and np.array_equal(m, mats) for m in distinct):
                distinct.append(mats)
        self.add("crps.schemes_built", len(builds))
        self.add("crps.distinct_codebooks", len(distinct))
        self.add("cli.artifact_bytes", sum(os.path.getsize(p) for p in self.artifacts))
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            names=np.array(self.names),
            counts=np.array(json.dumps(self.counts)),
        )


def _count_candidates(rec: SpanRecorder, args: dict, result) -> None:
    rec.add("crps.candidates_scored", len(args["candidates"]))


def _count_decisions(rec: SpanRecorder, args: dict, result) -> None:
    rec.add("detector.decisions", len(args["y"]))


def _count_pulses(rec: SpanRecorder, args: dict, result) -> None:
    rec.add("sim.pulses_requested", args["n_pulses"] * len(args["snr_db_grid"]))
    rec.add("sim.pulses_run", sum(r.pulses for r in result))


def _keep_build(rec: SpanRecorder, args: dict, result) -> None:
    rec.builds.append(result.member_matrices)


def _keep_artifacts(rec: SpanRecorder, args: dict, result) -> None:
    rec.artifacts.extend(result.values())


def _count_detection_ops(rec: SpanRecorder, args: dict, result) -> None:
    """Operations per decision from the package's closed-form estimator.

    The estimator is linear in the pulse count, so its step from one pulse to
    two is the detection term over the 2^B members of a pruned codebook.
    """
    from imjrc import cli

    if not hasattr(cli, "estimate_complexity"):
        return
    estimate = inspect.unwrap(cli.estimate_complexity)
    params, derived = result.config.params, result.derived
    one, two = estimate(params, derived, 1), estimate(params, derived, 2)
    rec.counts["detector.ops_per_decision"] = two[0].operations - one[0].operations


HOOKS = {
    "crps.candidate_meds": _count_candidates,
    "detector.detect_batch": _count_decisions,
    "sim.run_ber": _count_pulses,
    "crps.build_scheme": _keep_build,
    "cli.emit_results": _keep_artifacts,
    "cli.execute_run": _count_detection_ops,
}
"""Counts recorded at a layer boundary from a call's arguments and result."""


class PeakRecorder:
    """Each function's largest traced allocation peak above the level at its entry."""

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}
        self.stack: list[list[int]] = []

    def wrap(self, qualname: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][1] = max(self.stack[-1][1], peak)
            tracemalloc.reset_peak()
            self.stack.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                base, inner = self.stack.pop()
                top = max(tracemalloc.get_traced_memory()[1], inner)
                self.peaks[qualname] = max(self.peaks.get(qualname, 0), top - base)
                if self.stack:
                    self.stack[-1][1] = max(self.stack[-1][1], top)

        return measured


def design_phase(spec: dict) -> None:
    """derive, build_table, the design channel if asked for, build_scheme per scheme."""
    from imjrc.channel import TAG_DESIGN_CHANNEL, draw_channel, substream
    from imjrc.crps import build_scheme
    from imjrc.enumeration import build_table
    from imjrc.params import SystemParams, derive

    params = SystemParams(
        M=spec["m"], K=spec["k"], L_R=spec["l_r"], L_C=spec["l_c"], D=spec["d"],
        master_seed=spec["master_seed"],
    )
    derived = derive(params)
    table = build_table(params, derived)
    channel = None
    if spec["channel_aware_med"]:
        channel = draw_channel(params.L_C, params.L_R, substream(params.master_seed, TAG_DESIGN_CHANNEL))
    for scheme in spec["schemes"]:
        build_scheme(scheme, table, design_channel=channel)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "trace":
        spans_path, sep, *ber_argv = argv[1:]
        if sep != "--":
            raise SystemExit("usage: probe.py trace SPANS.npz -- ARGV...")
        require_source()
        recorder = SpanRecorder()
        install(recorder.wrap)
        from imjrc.cli import main as cli_main

        code = cli_main(ber_argv)
        recorder.save(spans_path)
        return code
    with open(argv[1]) as fh:
        spec = json.load(fh)
    require_source()
    if mode == "design":
        imjrc_modules()
        t0 = time.perf_counter()
        design_phase(spec)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if mode == "memory":
        recorder = PeakRecorder()
        install(recorder.wrap)
        tracemalloc.start()
        design_phase(spec)
        tracemalloc.stop()
        print(json.dumps(recorder.peaks))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
