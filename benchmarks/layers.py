"""Per-layer metrics from the spans and counts of a traced run.

A span is (name, start, end, parent); a layer's time is the summed duration
of its function's spans, and self time subtracts the spans of direct
children.  A function that no longer exists simply has no spans, so its
metrics read zero.
"""

from __future__ import annotations

import json

import numpy as np

MIB = 2**20

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    "enumeration.build_table_s": ("s", "lower"),
    "codebook.distance_matrix_s": ("s", "lower"),
    "codebook.distance_matrix_calls": ("count", "lower"),
    "codebook.greedy_prune_s": ("s", "lower"),
    "codebook.greedy_prune_calls": ("count", "lower"),
    "codebook.pair_row_distances_s": ("s", "lower"),
    "codebook.peak_mb": ("MiB", "lower"),
    "crps.candidate_meds_s": ("s", "lower"),
    "crps.candidates_scored": ("count", "lower"),
    "crps.candidate_meds_peak_mb": ("MiB", "lower"),
    "crps.build_scheme_s": ("s", "lower"),
    "crps.schemes_built": ("count", "higher"),
    "crps.distinct_codebooks": ("count", "lower"),
    "channel.substream_calls": ("count", "lower"),
    "channel.draw_s": ("s", "lower"),
    "detector.detect_batch_s": ("s", "lower"),
    "detector.gram_cache_s": ("s", "lower"),
    "detector.decisions": ("count", "higher"),
    "detector.us_per_decision": ("us", "lower"),
    "detector.flops_per_s_computed": ("op/s", "higher"),
    "sim.run_ber_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.pulses_run": ("count", "lower"),
    "sim.pulses_requested": ("count", "higher"),
    "cli.execute_run_s": ("s", "lower"),
    "cli.emit_results_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def span_metrics(path: str) -> dict[str, float]:
    """Layer times and counts from a saved span file."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    duration = data["end"] - data["start"]
    counts = json.loads(str(data["counts"]))
    module = np.array([n.split(".")[0] for n in names] or [""])[name]

    def spans_of(qualname: str) -> np.ndarray:
        if qualname not in names:
            return np.zeros(len(name), dtype=bool)
        return name == names.index(qualname)

    def total(qualname: str) -> float:
        return float(duration[spans_of(qualname)].sum())

    def calls(qualname: str) -> int:
        return int(spans_of(qualname).sum())

    # time spent in each span's direct children
    child_time = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(name))
    run_ber = spans_of("sim.run_ber")
    # channel time not already counted inside another channel call
    in_channel = module == "channel"
    top_channel = in_channel & ~((parent >= 0) & in_channel[np.maximum(parent, 0)])

    decisions = counts.get("detector.decisions", 0)
    detect_s = total("detector.detect_batch")
    ops = counts.get("detector.ops_per_decision", 0.0) * decisions
    return {
        "enumeration.build_table_s": total("enumeration.build_table"),
        "codebook.distance_matrix_s": total("codebook.distance_matrix"),
        "codebook.distance_matrix_calls": calls("codebook.distance_matrix"),
        "codebook.greedy_prune_s": total("codebook.greedy_prune"),
        "codebook.greedy_prune_calls": calls("codebook.greedy_prune"),
        "codebook.pair_row_distances_s": total("codebook.pair_row_distances"),
        "crps.candidate_meds_s": total("crps.candidate_meds"),
        "crps.candidates_scored": counts.get("crps.candidates_scored", 0),
        "crps.build_scheme_s": total("crps.build_scheme"),
        "crps.schemes_built": counts.get("crps.schemes_built", 0),
        "crps.distinct_codebooks": counts.get("crps.distinct_codebooks", 0),
        "channel.substream_calls": calls("channel.substream"),
        "channel.draw_s": float(duration[top_channel].sum()),
        "detector.detect_batch_s": detect_s,
        "detector.gram_cache_s": total("detector.gram_cache"),
        "detector.decisions": decisions,
        "detector.us_per_decision": 1e6 * detect_s / decisions if decisions else 0.0,
        "detector.flops_per_s_computed": ops / detect_s if detect_s else 0.0,
        "sim.run_ber_s": float(duration[run_ber].sum()),
        "sim.self_s": float((duration - child_time)[run_ber].sum()),
        "sim.pulses_run": counts.get("sim.pulses_run", 0),
        "sim.pulses_requested": counts.get("sim.pulses_requested", 0),
        "cli.execute_run_s": total("cli.execute_run"),
        "cli.emit_results_s": total("cli.emit_results"),
        "cli.artifact_bytes": counts.get("cli.artifact_bytes", 0),
        "trace.spans": len(name),
    }


def memory_metrics(peaks: dict[str, int]) -> dict[str, float]:
    """Layer allocation peaks, in MiB, from the design pass under tracemalloc."""
    codebook = [v for k, v in peaks.items() if k.startswith("codebook.")]
    return {
        "codebook.peak_mb": max(codebook, default=0) / MIB,
        "crps.candidate_meds_peak_mb": peaks.get("crps.candidate_meds", 0) / MIB,
    }
