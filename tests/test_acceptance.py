"""End-to-end acceptance checks for the default scenario.

Each test prints one verdict line through the recorder in conftest; the
collected lines are echoed in a summary section after the run.  All
randomness descends from the scenario master seed, so every verdict here
is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

import conftest
from imjrc.channel import TAG_TPS, substream
from imjrc.cli import (
    REFERENCE_GAIN_TOL_DB,
    REFERENCE_GAINS_DB,
    RunConfig,
    emit_results,
    estimate_complexity,
    execute_run,
    reference_gain_lines,
    write_divergence_report,
)
from imjrc.codebook import greedy_prune
from imjrc.crps import Scheme, build_scheme, generate_tps
from imjrc.detector import channel_terms, codebook_terms, decide, gram_cache
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive
from imjrc.sim import measure_gain, run_ber, snr_at_ber
from oracles import codeword_matrices, distance_matrix, med_of_submatrix, member_matrices, projected

PILOT_GRID = np.arange(-20.0, 8.1, 2.0)
PILOT_PULSES = 2000
GRID_STEP = 2.0
POINT_PULSES = 10_000
FULL_PULSES = 100_000

# best-first ordering the BER curves are expected to follow
CHAIN = (
    Scheme.CRPS_THEN_CODEBOOK,
    Scheme.CODEBOOK_THEN_CRPS,
    Scheme.CRPS_ONLY,
    Scheme.CODEBOOK_ONLY,
    Scheme.BASELINE,
)


def _verdict(name: str, ok: bool, detail: str) -> str:
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.record_acceptance(line)
    return line


def _beyond_ci(worse, better) -> bool:
    """True when an inversion is significant: intervals do not overlap."""
    return worse.ber - worse.ci_halfwidth > better.ber + better.ci_halfwidth


@pytest.fixture(scope="module")
def iv_builds(default_table):
    return {scheme: build_scheme(scheme, default_table) for scheme in Scheme}


@pytest.fixture(scope="module")
def iv_curves(iv_builds):
    """Pilot the baseline, pick the span grid, measure all five schemes."""
    pilot = run_ber([iv_builds[Scheme.BASELINE]], PILOT_GRID, PILOT_PULSES)
    lo = max((r.snr_db for r in pilot if r.ber >= 1e-2), default=float(PILOT_GRID[0]))
    hi = min((r.snr_db for r in pilot if r.ber <= 1e-4), default=float(PILOT_GRID[-1]))
    # one step past the pilot crossing so the full-resolution curve still
    # reaches 1e-4 after the pilot's sampling noise washes out
    hi = min(hi + GRID_STEP, float(PILOT_GRID[-1]))
    assert hi > lo, "pilot did not bracket the 1e-2..1e-4 span"
    grid = np.arange(lo, hi + GRID_STEP / 2, GRID_STEP)
    # the five schemes share one grid, so one run draws every chunk for all
    records = run_ber([iv_builds[scheme] for scheme in Scheme], grid, POINT_PULSES)
    curves = {
        scheme: records[i * len(grid) : (i + 1) * len(grid)] for i, scheme in enumerate(Scheme)
    }
    return grid, curves


def test_1_parameter_accounting():
    t0 = time.perf_counter()
    derived = derive(SystemParams())
    elapsed = time.perf_counter() - t0
    expected = {
        "C_total": (derived.C_total, 420),
        "card_zeta": (derived.card_zeta, 21),
        "card_P": (derived.card_P, 20),
        "B": (derived.B, 8),
        "valid": (1 << derived.B, 256),
        "Q": (derived.Q, 164),
        "L_T": (derived.L_T, 71),
    }
    mismatches = {k: v for k, v in expected.items() if v[0] != v[1]}
    ok = not mismatches and elapsed < 1.0
    detail = (
        "C_total=420 |zeta|=21 |P|=20 B=8 valid=256 Q=164 L_T=71, derived in under 1 s"
        if ok
        else f"mismatches {mismatches}, elapsed {elapsed:.3f} s"
    )
    line = _verdict("1 (parameter accounting)", ok, detail)
    assert ok, line


def test_2_scheme_ordering(iv_curves):
    grid, curves = iv_curves
    base = curves[Scheme.BASELINE]
    eval_idx = [i for i, r in enumerate(base) if r.ber <= 1e-2]
    legs = []
    for a_scheme, b_scheme in zip(CHAIN, CHAIN[1:]):
        a, b = curves[a_scheme], curves[b_scheme]
        inversions = [i for i in eval_idx if a[i].ber > b[i].ber]
        hard = [i for i in inversions if _beyond_ci(a[i], b[i])]
        legs.append((a_scheme.value, b_scheme.value, len(inversions), len(hard)))
    ok = all(hard == 0 and inv <= 1 for _, _, inv, hard in legs)
    detail = (
        f"grid {grid[0]:g}..{grid[-1]:g} dB, {len(eval_idx)} points at baseline ber <= 1e-2; "
        + "; ".join(f"{a}<={b}: {inv} inversions ({hard} beyond CI)" for a, b, inv, hard in legs)
    )
    line = _verdict("2 (scheme ordering)", ok, detail)
    assert ok, (
        line
        + "\nWith channel-independent design the five schemes collapse onto two "
        "distinct BER curves: the identity pre-scaling factor provably maximizes "
        "the transmit-domain MED, making every CRPS variant bit-identical to its "
        "non-CRPS counterpart, and elimination only trims the multiplicity of an "
        "unchanged MED.  The inversions counted above are differences between "
        f"the two curve groups; {sum(hard for *_, hard in legs)} of "
        f"{sum(inv for _, _, inv, _ in legs)} lie beyond the 95% intervals, and they "
        "exceed the one-point-per-comparison allowance.  See README, known divergences."
    )


def _full_curve(build, curve_1e4):
    crossing = snr_at_ber(curve_1e4, 1e-3)
    lo = math.floor(crossing) - 1.0
    mini_grid = [lo, lo + 1.0, lo + 2.0, lo + 3.0]
    return run_ber([build], mini_grid, FULL_PULSES)


def test_3_reference_gains(iv_builds, iv_curves, tmp_path_factory):
    _, curves = iv_curves
    full = {
        scheme: _full_curve(iv_builds[scheme], curves[scheme])
        for scheme in (Scheme.BASELINE, Scheme.CRPS_ONLY, Scheme.CRPS_THEN_CODEBOOK)
    }
    gains = [
        measure_gain(full[Scheme.BASELINE], full[scheme], 1e-3)
        for scheme in (Scheme.CRPS_ONLY, Scheme.CRPS_THEN_CODEBOOK)
    ]
    windows = {g.scheme: REFERENCE_GAINS_DB[g.scheme] for g in gains}
    within = all(abs(g.gain_db - windows[g.scheme]) <= REFERENCE_GAIN_TOL_DB for g in gains)
    measured = ", ".join(
        f"{g.scheme} {g.gain_db:+.2f} dB (window {windows[g.scheme]:.1f}+/-"
        f"{REFERENCE_GAIN_TOL_DB:.1f})"
        for g in gains
    )
    if within:
        ok, detail = True, measured + "; inside the reference windows"
    else:
        # out-of-window gains are acceptable only with a divergence report
        # that names the known ambiguities
        lines = reference_gain_lines(gains)
        path = write_divergence_report(lines, str(tmp_path_factory.mktemp("divergence")))
        text = open(path).read()
        cited = (
            "normalization" in text
            and "first-2^B member set" in text
            and all(line in text for line in lines)
        )
        ok = bool(lines) and cited
        detail = measured + (
            "; outside the reference windows, divergence report emitted"
            if ok
            else "; outside the reference windows and report missing or incomplete"
        )
    line = _verdict("3 (reference gains at 1e-3)", ok, detail)
    assert ok, line


def _anchor_snr(build):
    """SNR where the scheme's pilot curve crosses the middle of 1e-3..1e-2."""
    pilot = run_ber([build], PILOT_GRID, PILOT_PULSES)
    return snr_at_ber(pilot, 10**-2.5)


def test_4a_carrier_count_trend():
    builds = {}
    for m in (4, 6, 8):
        params = SystemParams(M=m)
        builds[m] = build_scheme(Scheme.CRPS_THEN_CODEBOOK, build_table(params, derive(params)))
    snr = _anchor_snr(builds[6])
    recs = {m: run_ber([builds[m]], [snr], POINT_PULSES)[0] for m in (4, 6, 8)}
    anchor_ok = 1e-3 <= recs[6].ber <= 1e-2
    violations = [
        f"M={hi} ber {recs[hi].ber:.3e} > M={lo} ber {recs[lo].ber:.3e} beyond CI"
        for hi, lo in ((8, 6), (6, 4))
        if recs[hi].ber > recs[lo].ber and _beyond_ci(recs[hi], recs[lo])
    ]
    ok = anchor_ok and not violations
    detail = (
        f"snr {snr:+.2f} dB: "
        + ", ".join(f"M={m} ber {recs[m].ber:.3e}" for m in (8, 6, 4))
        + ("" if anchor_ok else f"; anchor ber {recs[6].ber:.3e} outside 1e-3..1e-2")
        + ("; " + "; ".join(violations) if violations else "")
    )
    line = _verdict("4a (more carriers, lower BER)", ok, detail)
    assert ok, line


def test_4b_antenna_sweep_beats_baseline(iv_builds):
    cases = {}
    for l_r in (4, 8):
        params = SystemParams(L_R=l_r)
        table = build_table(params, derive(params))
        cases[l_r] = (
            build_scheme(Scheme.CRPS_THEN_CODEBOOK, table),
            build_scheme(Scheme.BASELINE, table),
        )
    cases[6] = (iv_builds[Scheme.CRPS_THEN_CODEBOOK], iv_builds[Scheme.BASELINE])
    pieces, problems = [], []
    for l_r in (4, 6, 8):
        scheme_build, base_build = cases[l_r]
        snr = _anchor_snr(scheme_build)
        s, b = run_ber([scheme_build, base_build], [snr], POINT_PULSES)
        pieces.append(f"L_R={l_r} @ {snr:+.2f} dB: {s.ber:.3e} vs baseline {b.ber:.3e}")
        if not (1e-3 <= s.ber <= 1e-2):
            problems.append(f"L_R={l_r} anchor ber {s.ber:.3e} outside 1e-3..1e-2")
        if s.ber > b.ber and _beyond_ci(s, b):
            problems.append(f"L_R={l_r} loses to baseline beyond CI")
    ok = not problems
    detail = "; ".join(pieces) + ("; " + "; ".join(problems) if problems else "")
    line = _verdict("4b (antenna sweep vs baseline)", ok, detail)
    assert ok, line


def _brute_residual(y, h, member_mats):
    best_rank, best_metric = -1, None
    for r in range(member_mats.shape[0]):
        metric = float(np.sum(np.abs(y - h @ member_mats[r]) ** 2))
        if best_metric is None or metric < best_metric:
            best_rank, best_metric = r, metric
    return best_rank, best_metric


def test_5_property_suite(default_params, default_derived, default_table, iv_builds, tmp_path_factory):
    failures = []

    # (a) noiseless transmission is error free for every scheme
    noiseless = run_ber(list(iv_builds.values()), [math.inf], 1000)
    for scheme, rec in zip(iv_builds, noiseless):
        if rec.ber != 0.0:
            failures.append(f"(a) {scheme.value} noiseless ber {rec.ber:g}")

    # (b) MED trajectory is non-decreasing across all Q eliminations
    dist = distance_matrix(codeword_matrices(default_table))
    _, meds = greedy_prune(dist, 1 << default_derived.B)
    if meds.shape != (default_derived.Q + 1,):
        failures.append(f"(b) trajectory length {meds.shape}")
    if not np.all(np.diff(meds) >= 0.0):
        failures.append("(b) MED decreased during elimination")

    # (c) selected factor never loses to identity and matches an exhaustive re-check
    candidates = generate_tps(
        default_params.D, default_params.L_R, substream(default_params.master_seed, TAG_TPS)
    )
    first_set = codeword_matrices(default_table, range(1 << default_derived.B))
    members = range(first_set.shape[0])
    crps_only = build_scheme(Scheme.CRPS_ONLY, default_table)
    tps, best = crps_only.tps, crps_only.codebook.med
    identity_med, _ = med_of_submatrix(distance_matrix(first_set), members)
    if best < identity_med * (1.0 - 1e-12):
        failures.append(f"(c) selected med {best:.6g} below identity med {identity_med:.6g}")
    exhaustive = max(
        med_of_submatrix(distance_matrix(first_set * alpha[:, None]), members)[0]
        for alpha in candidates
    )
    if not math.isclose(best, exhaustive, rel_tol=1e-9):
        failures.append(f"(c) selected med {best:.6g} != exhaustive max {exhaustive:.6g}")

    # (d) every codeword, scaled or not, carries Frobenius-norm^2 = L_T
    l_t = default_derived.L_T
    every = codeword_matrices(default_table)
    for label, mats in (
        ("plain", every),
        ("selected-tps", every * tps.alpha[:, None]),
        ("random-tps", every * candidates[1][:, None]),
    ):
        norms = np.einsum("nrt,nrt->n", mats, mats.conj()).real
        if not np.allclose(norms, l_t, rtol=1e-9):
            worst = float(np.abs(norms - l_t).max())
            failures.append(f"(d) {label} norms off by up to {worst:.3e}")

    # (e) the batched decision run_ber makes agrees with the brute-force
    # residual oracle on every trial, at a noise level where ML decodes all
    # 100 trials correctly and at one where it misdecodes some of them
    build = iv_builds[Scheme.BASELINE]
    mats = member_matrices(build)
    trials = range(100)
    h = np.empty((len(trials), 4, 6), dtype=complex)
    noise = np.empty((len(trials), 4, 71), dtype=complex)
    for trial in trials:
        h_rng = substream(default_params.master_seed, 901, trial)
        h[trial] = (h_rng.standard_normal((4, 6)) + 1j * h_rng.standard_normal((4, 6))) / np.sqrt(2)
        n_rng = substream(default_params.master_seed, 902, trial)
        noise[trial] = (n_rng.standard_normal((4, 71)) + 1j * n_rng.standard_normal((4, 71))) / np.sqrt(2)
    ranks = np.array([trial % mats.shape[0] for trial in trials])
    carriers = default_table.carriers[np.asarray(build.codebook.member_ids)]
    cache = gram_cache(default_table.coefficients(build.alpha), carriers, default_table.waveforms)
    # the chunk's terms, then the codebook's, then each noise level's metric,
    # in buffers the caller owns
    base, cross, metric_buf = np.empty((3, len(trials), mats.shape[0]))
    noise_w = projected(noise, default_table.waveforms)  # N W^H, as the draws hand it on
    codebook_terms(*channel_terms(h, noise_w), ranks, cache, base, cross)
    for sigma in (0.6, 4.0):
        got = decide(base, cross, sigma, metric_buf)
        wrong = []
        for trial in trials:
            y = h[trial] @ mats[ranks[trial]] + sigma * noise[trial]
            want_rank, want_metric = _brute_residual(y, h[trial], mats)
            # the batched metric leaves out ||Y||^2, which every hypothesis shares
            r = got[trial]
            metric = base[trial, r] - 2.0 * sigma * cross[trial, r] + float(np.sum(np.abs(y) ** 2))
            if r != want_rank or not math.isclose(metric, want_metric, rel_tol=1e-9):
                wrong.append(f"trial {trial}: ({r}, {metric:.6g}) != ({want_rank}, {want_metric:.6g})")
        if wrong:
            failures.append(
                f"(e) sigma {sigma}: {len(wrong)} of {len(trials)} trials differ: " + "; ".join(wrong[:3])
            )

    # (f) known toy elimination
    points = np.array([0.0, 1.0, 3.0, 6.0, 10.0, 15.0])
    toy_ids, _ = greedy_prune((points[:, None] - points[None, :]) ** 2, 4)
    survivors = [points[i] for i in toy_ids]
    if survivors != [0.0, 6.0, 10.0, 15.0]:
        failures.append(f"(f) toy elimination kept {survivors}")

    # (g) a reissued run reproduces ber.csv byte for byte
    out_root = tmp_path_factory.mktemp("replay")
    config = RunConfig(
        schemes=(Scheme.BASELINE, Scheme.CRPS_ONLY),
        snr_start=-10.0,
        snr_stop=-6.0,
        snr_step=2.0,
        pulses=400,
        out=str(out_root / "first"),
    )
    first = emit_results(execute_run(config), config.out)
    second = emit_results(execute_run(config), str(out_root / "second"))
    if open(first["ber"], "rb").read() != open(second["ber"], "rb").read():
        failures.append("(g) replay changed ber.csv")

    # (h) complexity estimator against a term-by-term rational oracle
    from fractions import Fraction

    k, l_r, l_c = default_params.K, default_params.L_R, default_params.L_C
    c, q, n, d = default_derived.C_total, default_derived.Q, FULL_PULSES, default_params.D
    synthesis = Fraction((k * l_r + (2 * k - 1) * l_t) * l_r * c)
    detect_one = Fraction((l_r + 3) * l_c * l_t + 1)
    prune_term = sum(
        (Fraction(3 * l_r * l_t + 1, 2) * (c - i + 1) * (c - i) for i in range(1, q + 1)),
        Fraction(0),
    )
    oracle_cb = synthesis + prune_term + detect_one * (c - q) * n
    score = Fraction(l_r * l_r * l_t) + Fraction((3 * l_r * l_t + 1) * (c - 1), 2)
    oracle_crps = synthesis + (score * c + 1) * d + detect_one * c * n
    est_cb, est_crps = estimate_complexity(default_params, default_derived, n)
    if not math.isclose(est_cb.operations, float(oracle_cb), rel_tol=1e-9):
        failures.append(f"(h) im_codebook {est_cb.operations:.6e} != {float(oracle_cb):.6e}")
    if not math.isclose(est_crps.operations, float(oracle_crps), rel_tol=1e-9):
        failures.append(f"(h) im_crps {est_crps.operations:.6e} != {float(oracle_crps):.6e}")

    ok = not failures
    detail = "properties (a)-(h) all hold" if ok else "; ".join(failures)
    line = _verdict("5 (property suites)", ok, detail)
    assert ok, line
