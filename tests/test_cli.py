"""Config parsing, complexity estimates, artifact round trips, CLI smoke tests."""

import argparse
import dataclasses
import itertools
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from imjrc import cli, crps, enumeration
from imjrc.cli import (
    ConfigError,
    RunConfig,
    RunResult,
    build_run_config,
    config_to_dict,
    emit_results,
    estimate_complexity,
    execute_run,
    load_config,
    main,
    read_ber_csv,
    reference_gain_lines,
    runconfig_from_meta,
    write_divergence_report,
)
from imjrc.crps import Scheme
from imjrc.params import SystemParams, derive
from imjrc.sim import BerRecord, GainReport, run_ber
from oracles import member_matrices

SMALL_CONFIG = """\
# small scenario used across the CLI tests
m = 3
k = 2
l_r = 4
l_c = 2          # trailing comments are stripped
delta_f = 4e6
d = 8
master_seed = 99

schemes = baseline, crps_only
snr_db = -6:-2:2
pulses = 120
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestLoadConfig:
    def test_full_file(self, config_file):
        config = load_config(config_file)
        assert config.params == SystemParams(
            M=3, K=2, L_R=4, L_C=2, delta_f=4e6, D=8, master_seed=99
        )
        assert config.schemes == (Scheme.BASELINE, Scheme.CRPS_ONLY)
        assert (config.snr_start, config.snr_stop, config.snr_step) == (-6.0, -2.0, 2.0)
        assert config.pulses == 120
        assert config.out == "results"
        assert not config.full and not config.channel_aware_med and not config.early_stop

    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but comments\n\n")
        config = load_config(str(path))
        assert config == RunConfig()

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 7\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus"):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["snr_start", "params", "out_dir"])
    def test_field_names_that_are_not_keys_rejected(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"m = 7\n{key} = 1\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:2: unknown key '{key}'"):
            load_config(str(path))

    def test_repeated_scheme_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 7\nschemes = baseline, crps_only, baseline\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2:.*scheme baseline is listed more than once"):
            load_config(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("pulses = soon\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1.*soon"):
            load_config(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
            load_config(str(path))

    def test_bad_snr_format_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("snr_db = -6:-2\n")
        with pytest.raises(ConfigError, match="snr"):
            load_config(str(path))

    def test_unknown_scheme_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("schemes = baseline, turbo\n")
        with pytest.raises(ConfigError, match="turbo"):
            load_config(str(path))

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("full = maybe\n")
        with pytest.raises(ConfigError, match="maybe"):
            load_config(str(path))

    def test_parameter_cross_checks_still_apply(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("l_r = 5\nk = 2\n")
        with pytest.raises(ValueError):
            load_config(str(path))


class TestRunConfig:
    def test_snr_grid_includes_endpoint(self):
        config = RunConfig(snr_start=-16.0, snr_stop=4.0, snr_step=2.0)
        grid = config.snr_grid()
        assert grid.shape == (11,)
        assert grid[0] == -16.0 and grid[-1] == 4.0

    def test_fractional_step(self):
        config = RunConfig(snr_start=0.0, snr_stop=1.0, snr_step=0.25)
        assert np.allclose(config.snr_grid(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_effective_pulses_respects_full_flag(self):
        assert RunConfig(pulses=50).effective_pulses() == 50
        assert RunConfig(pulses=50, full=True).effective_pulses() == 100000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"snr_step": 0.0},
            {"snr_start": 4.0, "snr_stop": 0.0},
            {"schemes": ()},
            {"pulses": 0},
            {"snr_step": math.inf},
            {"snr_stop": math.inf},
            {"snr_start": -math.inf},
            {"snr_start": math.nan},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_rejects_repeated_scheme(self):
        schemes = (Scheme.CRPS_ONLY, Scheme.BASELINE, Scheme.CRPS_ONLY)
        with pytest.raises(ValueError, match="scheme crps_only is listed more than once"):
            RunConfig(schemes=schemes)


def _oracle_complexity(params, derived, n, d):
    """Term-by-term rational recomputation of both pipeline counts."""
    k, l_r, l_c, l_t = params.K, params.L_R, params.L_C, derived.L_T
    c, q = derived.C_total, derived.Q
    synthesis = Fraction((k * l_r + (2 * k - 1) * l_t) * l_r * c)
    detect_one = Fraction((l_r + 3) * l_c * l_t + 1)
    prune = Fraction(0)
    for i in range(1, q + 1):
        prune += Fraction(3 * l_r * l_t + 1, 2) * (c - i + 1) * (c - i)
    codebook = synthesis + prune + detect_one * (c - q) * n
    score = Fraction(l_r * l_r * l_t) + Fraction((3 * l_r * l_t + 1) * (c - 1), 2)
    crps = synthesis + (score * c + 1) * d + detect_one * c * n
    return float(codebook), float(crps)


class TestEstimateComplexity:
    def test_matches_rational_oracle_on_default(self, default_params, default_derived):
        est_cb, est_crps = estimate_complexity(default_params, default_derived, 100000)
        cb, crps = _oracle_complexity(default_params, default_derived, 100000, 100)
        assert est_cb.label == "im_codebook"
        assert est_crps.label == "im_crps"
        assert est_cb.operations == pytest.approx(cb, rel=1e-12)
        assert est_crps.operations == pytest.approx(crps, rel=1e-12)

    def test_matches_oracle_on_small(self, small_params, small_derived):
        est_cb, est_crps = estimate_complexity(small_params, small_derived, 500)
        cb, crps = _oracle_complexity(small_params, small_derived, 500, small_params.D)
        assert est_cb.operations == pytest.approx(cb, rel=1e-12)
        assert est_crps.operations == pytest.approx(crps, rel=1e-12)

    def test_power_of_two_scenario_drops_prune_term(self):
        # C = 2^B leaves nothing to eliminate, so only synthesis plus
        # detection remains
        params = SystemParams(M=2, K=1, L_R=2)
        derived = derive(params)
        assert derived.Q == 0
        est_cb, _ = estimate_complexity(params, derived, 1000)
        k, l_r, l_t, c = params.K, params.L_R, derived.L_T, derived.C_total
        synthesis = (k * l_r + (2 * k - 1) * l_t) * l_r * c
        detection = ((l_r + 3) * params.L_C * l_t + 1) * c * 1000
        assert est_cb.operations == float(synthesis + detection)

    def test_pruning_pairs_match_the_step_loop(self, small_params, small_derived):
        # the closed form against the oracle's loop over the Q steps, exactly
        for c in range(2, 60):
            for q in range(c):
                derived = dataclasses.replace(small_derived, C_total=c, Q=q)
                est_cb, _ = estimate_complexity(small_params, derived, 7)
                assert est_cb.operations == _oracle_complexity(small_params, derived, 7, small_params.D)[0]

    def test_counts_a_large_scenario_at_once(self, tmp_path, capsys):
        # M=20, K=4, L_R=12 has Q = 716,970,176 pruning steps, which a loop
        # over the steps took longer than 10 s to count
        path = tmp_path / "large.cfg"
        path.write_text("M = 20\nK = 4\nL_R = 12\n")
        start = time.perf_counter()
        assert main(["complexity", "--config", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
        assert "im_codebook: 5.432871e+30 operations" in capsys.readouterr().out

    def test_rejects_bad_counts(self, small_params, small_derived):
        with pytest.raises(ValueError):
            estimate_complexity(small_params, small_derived, 0)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(SMALL_CONFIG)
    config = load_config(str(path))
    return execute_run(config), tmp_path_factory.mktemp("artifacts")


class TestArtifacts:
    def test_ber_csv_round_trips_exactly(self, small_run):
        result, out_dir = small_run
        paths = emit_results(result, str(out_dir / "a"))
        assert read_ber_csv(paths["ber"]) == result.records

    def test_meta_replay_reproduces_ber_csv(self, small_run):
        result, out_dir = small_run
        paths = emit_results(result, str(out_dir / "b"))
        with open(paths["meta"]) as fh:
            meta = json.load(fh)
        replayed_config = runconfig_from_meta(meta)
        assert replayed_config == result.config
        replay = execute_run(replayed_config)
        paths2 = emit_results(replay, str(out_dir / "c"))
        with open(paths["ber"], "rb") as f1, open(paths2["ber"], "rb") as f2:
            assert f1.read() == f2.read()

    def test_gains_csv_has_header(self, small_run):
        result, out_dir = small_run
        paths = emit_results(result, str(out_dir / "d"))
        with open(paths["gains"]) as fh:
            header = fh.readline().strip()
        assert header == "scheme,baseline,target_ber,snr_baseline,snr_scheme,gain_db"

    def test_csv_rows_are_literal(self, tmp_path):
        record = BerRecord("crps_only", -6.0, 1024, 37, 37 / 8192, 1 / 3)
        gain = GainReport("crps_only", "baseline", 1e-3, -7.25, -9.5, 2.25)
        result = RunResult(RunConfig(), derive(SystemParams()), {}, [record], [gain], {}, {})
        paths = emit_results(result, str(tmp_path))
        with open(paths["ber"], newline="") as fh:
            assert fh.read() == (
                "scheme,snr_db,pulses,bit_errors,ber,ci_halfwidth\n"
                "crps_only,-6.0,1024,37,0.0045166015625,0.3333333333333333\n"
            )
        with open(paths["gains"], newline="") as fh:
            assert fh.read() == (
                "scheme,baseline,target_ber,snr_baseline,snr_scheme,gain_db\n"
                "crps_only,baseline,0.001,-7.25,-9.5,2.25\n"
            )
        (read,) = read_ber_csv(paths["ber"])
        assert read == record
        assert [type(v) for v in dataclasses.astuple(read)] == [str, float, int, int, float, float]

    def test_meta_records_conventions_and_schemes(self, small_run):
        result, out_dir = small_run
        paths = emit_results(result, str(out_dir / "e"))
        with open(paths["meta"]) as fh:
            meta = json.load(fh)
        assert meta["conventions"]["snr"].endswith("1/sigma^2")
        assert set(meta["schemes"]) == {"baseline", "crps_only"}
        assert meta["schemes"]["crps_only"]["members"] == 16
        assert meta["derived"]["C_total"] == 18

    def test_config_dict_round_trip(self):
        config = RunConfig(
            params=SystemParams(M=5, K=1, L_R=3, master_seed=7),
            schemes=(Scheme.BASELINE,),
            snr_start=-4.0,
            snr_stop=0.0,
            snr_step=1.0,
            pulses=77,
            out="elsewhere",
            early_stop=True,
        )
        rebuilt = runconfig_from_meta({"config": config_to_dict(config)})
        assert rebuilt == config

    def test_meta_config_block_key_order(self):
        assert list(config_to_dict(RunConfig())) == [
            *(f.name.lower() for f in dataclasses.fields(SystemParams)),
            "schemes",
            "snr_start",
            "snr_stop",
            "snr_step",
            "pulses",
            "out",
            "full",
            "channel_aware_med",
            "early_stop",
        ]

    def test_every_param_key_round_trips(self, tmp_path):
        # one non-default value per SystemParams field and per run field, each
        # set by its config key: config text -> RunConfig -> meta.json -> RunConfig
        values = {
            "M": 6,
            "K": 3,
            "L_R": 9,
            "L_C": 3,
            "f_c": 2.4e9,
            "delta_f": 5e6,
            "theta": 0.3,
            "T_p": 5e-7,
            "T_r": 3e-6,
            "D": 17,
            "master_seed": 4242,
        }
        run_text = {
            "schemes": "crps_only, baseline",
            "snr_db": "-5:3:0.5",
            "pulses": "77",
            "out": "elsewhere",
            "full": "true",
            "channel_aware_med": "yes",
            "early_stop": "1",
        }
        run_values = {
            "schemes": (Scheme.CRPS_ONLY, Scheme.BASELINE),
            "snr_start": -5.0,
            "snr_stop": 3.0,
            "snr_step": 0.5,
            "pulses": 77,
            "out": "elsewhere",
            "full": True,
            "channel_aware_med": True,
            "early_stop": True,
        }
        default = RunConfig()
        assert list(values) == [f.name for f in dataclasses.fields(SystemParams)]
        assert list(run_values) == [f.name for f in dataclasses.fields(RunConfig)][1:]
        assert all(getattr(default.params, name) != value for name, value in values.items())
        assert all(getattr(default, name) != value for name, value in run_values.items())
        path = tmp_path / "every.cfg"
        path.write_text(
            "".join(f"{name.lower()} = {value!r}\n" for name, value in values.items())
            + "".join(f"{key} = {text}\n" for key, text in run_text.items())
        )
        config = load_config(str(path))
        assert config == RunConfig(params=SystemParams(**values), **run_values)
        meta = json.loads(json.dumps({"config": config_to_dict(config)}))
        rebuilt = runconfig_from_meta(meta)
        assert rebuilt == config
        for name, value in values.items():
            assert type(getattr(rebuilt.params, name)) is type(value)
        for name, value in run_values.items():
            assert type(getattr(rebuilt, name)) is type(value)


@pytest.fixture(scope="module")
def default_run_counted(tmp_path_factory):
    """A short default-scenario run, counting the Monte Carlo calls it makes."""
    calls = []

    def counting_run_ber(builds, *args, **kwargs):
        calls.append([build.scheme.value for build in builds])
        return run_ber(builds, *args, **kwargs)

    config = RunConfig(snr_start=-10.0, snr_stop=-8.0, snr_step=2.0, pulses=64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_ber", counting_run_ber)
        result = execute_run(config)
    paths = emit_results(result, str(tmp_path_factory.mktemp("default_run")))
    with open(paths["meta"]) as fh:
        meta = json.load(fh)
    return result, calls, meta


@pytest.fixture(scope="module")
def channel_aware_run():
    config = RunConfig(snr_start=-10.0, snr_stop=-8.0, snr_step=2.0, pulses=64, channel_aware_med=True)
    return execute_run(config)


def test_five_scheme_run_prunes_the_full_table_once(monkeypatch):
    # the schemes share one set of pair patterns and its one pruning; on
    # the default scenario every selected factor is the identity, and no
    # distance is taken through a channel; the baseline MED is pruning's
    # zero-step case on the first 256 codewords
    sizes = {"pair_patterns": [], "pair_classes": [], "greedy_prune": []}
    for name, original in [(name, getattr(crps, name)) for name in sizes]:

        def counted(first, *args, _name=name, _original=original, **kwargs):
            sizes[_name].append(len(first))
            return _original(first, *args, **kwargs)

        monkeypatch.setattr(crps, name, counted)
    result = execute_run(RunConfig(snr_start=-10.0, snr_stop=-10.0, pulses=8))
    assert len(result.builds) == 5
    assert sizes == {"pair_patterns": [420], "pair_classes": [], "greedy_prune": [256, 420]}


def test_design_does_not_depend_on_the_blas_thread_count(tmp_path):
    # without a design channel every design distance is exact arithmetic on
    # carrier words; through one, pruning sums each pair class's products
    # in a fixed order, and candidates are scored by one BLAS product per
    # block of classes, whose entries must not follow the thread count
    # either, or a tie and with it a codebook could move
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
        ),
    )
    for flags in ([], ["--channel-aware-med"]):
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}{''.join(flags)}"
            subprocess.run(
                [sys.executable, "-m", "imjrc.cli", "design", *flags, "--out", str(out)],
                env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True, timeout=300,
            )
            outputs[threads] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name.startswith(("codebook_", "tps_"))
            }
        assert len(outputs["1"]) == 5 + 3  # a codebook per scheme, a factor per CRPS scheme
        assert outputs["1"] == outputs["2"], flags


def test_ber_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the detector's products, among them N W^H as one 2-D product over a
    # chunk's rows, must not follow the thread count, or a near-tie could
    # decide differently; 1,100 pulses run a full chunk and a short one
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
        ),
    )
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        subprocess.run(
            [sys.executable, "-m", "imjrc.cli", "ber", "--channel-aware-med", "--pulses", "1100", "--out", str(out)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True, timeout=300,
        )
        outputs[threads] = {name: (out / name).read_bytes() for name in ("ber.csv", "gains.csv")}
    assert outputs["1"] == outputs["2"]


def test_benchmark_probe_runs(tmp_path):
    # the benchmark's child process designs every scheme through the public
    # API, and traces a run with every public function wrapped; a deleted or
    # renamed entry point must fail here, not in the benchmark's setup_s
    probe = pathlib.Path(__file__).parents[1] / "benchmarks" / "probe.py"
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, IMJRC_SRC=str(src), PYTHONPATH=str(src))
    scenario = {"m": 3, "k": 2, "l_r": 4, "l_c": 2, "d": 8, "master_seed": 99}
    scenario["schemes"] = [s.value for s in Scheme]
    for aware in (False, True):
        spec = tmp_path / f"spec_{aware}.json"
        spec.write_text(json.dumps({**scenario, "channel_aware_med": aware}))
        run = subprocess.run(
            [sys.executable, str(probe), "design", str(spec)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        (line,) = run.stdout.splitlines()
        assert json.loads(line)["setup_s"] > 0.0
    config, spans = tmp_path / "tiny.cfg", tmp_path / "spans.npz"
    config.write_text(SMALL_CONFIG)
    argv = ["trace", str(spans), "--", "ber", "--config", str(config), "--out", str(tmp_path / "run")]
    run = subprocess.run(
        [sys.executable, str(probe), *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    with np.load(spans) as saved:
        counts = json.loads(str(saved["counts"]))
        assert len(saved["names"]) > 0
    # the probe reads the detection cost from estimate_complexity(params, derived, n)
    assert counts["detector.ops_per_decision"] > 0


class TestSharedCodebooks:
    def test_links_exactly_the_bit_equal_codebooks(self, default_run_counted, channel_aware_run):
        for result in (default_run_counted[0], channel_aware_run):
            shared, builds = result.shared_codebooks, result.builds
            for a, b in itertools.combinations(builds, 2):
                same = np.array_equal(member_matrices(builds[a]), member_matrices(builds[b]))
                assert (shared.get(a, a) == shared.get(b, b)) == same, (a, b)

    def test_channel_aware_map(self, channel_aware_run):
        assert channel_aware_run.shared_codebooks == {"codebook_then_crps": "codebook_only"}

    def test_simulates_each_distinct_codebook_once(self, default_run_counted):
        _, calls, _ = default_run_counted
        assert calls == [["baseline", "codebook_only"]]

    def test_twins_copy_rows_apart_from_scheme(self, default_run_counted):
        result, _, _ = default_run_counted
        rows = {}
        for r in result.records:
            rows.setdefault(r.scheme, []).append(dataclasses.replace(r, scheme=""))
        assert list(rows) == [s.value for s in Scheme]
        assert rows["crps_only"] == rows["baseline"]
        assert rows["codebook_then_crps"] == rows["codebook_only"]
        assert rows["crps_then_codebook"] == rows["codebook_only"]
        assert rows["baseline"] != rows["codebook_only"]

    def test_meta_records_shared_codebooks(self, default_run_counted):
        _, _, meta = default_run_counted
        assert meta["shared_codebooks"] == {
            "crps_only": "baseline",
            "codebook_then_crps": "codebook_only",
            "crps_then_codebook": "codebook_only",
        }


class TestRunTelemetry:
    def test_meta_records_environment(self, default_run_counted):
        _, _, meta = default_run_counted
        env = meta["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_meta_records_stage_timings(self, default_run_counted):
        result, _, meta = default_run_counted
        assert meta["timings"] == result.timings
        assert list(meta["timings"]) == ["design_s", "simulate_s", "draw_s"]
        assert all(value > 0.0 for value in meta["timings"].values())
        # the draws are part of the Monte Carlo stage
        assert meta["timings"]["draw_s"] < meta["timings"]["simulate_s"]

    def test_telemetry_follows_the_reproducible_fields(self, default_run_counted):
        _, _, meta = default_run_counted
        assert list(meta)[-2:] == ["environment", "timings"]


class TestDivergenceReport:
    def _gain(self, scheme, gain_db, target=1e-3):
        return GainReport(
            scheme=scheme,
            baseline="baseline",
            target_ber=target,
            snr_baseline=-7.0,
            snr_scheme=-7.0 - gain_db,
            gain_db=gain_db,
        )

    def test_in_window_gains_produce_no_lines(self):
        gains = [self._gain("crps_only", 2.9), self._gain("crps_then_codebook", 4.0)]
        assert reference_gain_lines(gains) == []

    def test_out_of_window_gains_are_reported(self):
        gains = [self._gain("crps_only", 0.0), self._gain("crps_then_codebook", 0.3)]
        lines = reference_gain_lines(gains)
        assert len(lines) == 2
        assert "crps_only" in lines[0] and "0.00 dB" in lines[0]
        assert "2.5" in lines[0]

    def test_non_reference_entries_ignored(self):
        gains = [self._gain("codebook_only", 0.0), self._gain("crps_only", 0.0, target=1e-4)]
        assert reference_gain_lines(gains) == []

    def test_report_cites_known_ambiguities(self, tmp_path):
        lines = ["crps_only vs baseline at BER 0.001: measured 0.00 dB, reference 2.5 +/- 1.0 dB"]
        path = write_divergence_report(lines, str(tmp_path))
        text = open(path).read()
        assert "normalization" in text
        assert "first-2^B member set" in text
        assert "random pool" in text or "one random pool" in text
        assert lines[0] in text


class TestMainCommands:
    def test_derive(self, config_file, capsys):
        assert main(["derive", "--config", config_file]) == 0
        out = capsys.readouterr().out
        assert "C_total = 18" in out
        assert "B = 4" in out
        assert "L_T = 13" in out

    def test_complexity(self, config_file, capsys):
        assert main(["complexity", "--config", config_file]) == 0
        out = capsys.readouterr().out
        assert "im_codebook" in out and "im_crps" in out

    def test_design_writes_artifacts(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "design"
        assert main(["design", "--config", config_file, "--out", str(out_dir)]) == 0
        assert (out_dir / "table.csv").exists()
        assert (out_dir / "codebook_baseline.csv").exists()
        assert (out_dir / "codebook_crps_only.csv").exists()
        assert (out_dir / "tps_crps_only.json").exists()

    def test_refused_design_writes_nothing(self, tmp_path, capsys):
        # 16,632 codewords: the table fits the budget, but every scheme's
        # design needs several GiB and is refused before any file is written
        path, out = tmp_path / "run.cfg", tmp_path / "design"
        path.write_text("m = 12\nl_r = 10\n")
        assert main(["design", "--config", str(path), "--out", str(out)]) == 2
        assert re.search(r"design needs about \d+\.\d GiB", capsys.readouterr().err)
        assert not out.exists()

    def test_refused_ber_run_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # default scenario, 10 pulses: the table's 28,112 bytes fit a
        # 40,000-byte budget, but the Monte Carlo's 10 x 3 x 256 floats
        # (61,440 bytes) do not; the run stops before any file is written,
        # and, with or without a design channel, before any scheme is designed
        def design(*args, **kwargs):
            raise AssertionError("designed before the Monte Carlo budget was checked")

        monkeypatch.setattr(enumeration, "DESIGN_BUDGET_BYTES", 40_000)
        monkeypatch.setattr(cli, "build_schemes", design)
        out = tmp_path / "run"
        for aware in ([], ["--channel-aware-med"]):
            assert main(["ber", "--scheme", "baseline", "--pulses", "10", *aware, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                "error: Monte Carlo buffers need about 0.0 GiB (chunk=10, 2^B=256, L_C=4, "
                "L_T=71), over the 0 GiB design budget\n"
            )
            assert captured.out == ""
            assert not out.exists()

    def test_ber_run_writes_results(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            [
                "ber",
                "--config",
                config_file,
                "--scheme",
                "baseline",
                "--pulses",
                "60",
                "--snr=-4:-2:2",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        for name in ("ber.csv", "gains.csv", "meta.json", "plot_ber.py"):
            assert (out_dir / name).exists()
        records = read_ber_csv(str(out_dir / "ber.csv"))
        assert len(records) == 2
        assert all(r.pulses == 60 for r in records)
        # one scheme has no earlier codebook to share
        with open(out_dir / "meta.json") as fh:
            assert json.load(fh)["shared_codebooks"] == {}

    def test_gain_command(self, tmp_path, capsys):
        csv = tmp_path / "ber.csv"
        rows = ["scheme,snr_db,pulses,bit_errors,ber,ci_halfwidth"]
        for snr, ber in [(-10.0, 1e-2), (-8.0, 1e-3), (-6.0, 1e-4)]:
            rows.append(f"baseline,{snr},10000,{int(ber * 80000)},{ber},0.0")
        for snr, ber in [(-12.0, 1e-2), (-10.0, 1e-3), (-8.0, 1e-4)]:
            rows.append(f"crps_only,{snr},10000,{int(ber * 80000)},{ber},0.0")
        csv.write_text("\n".join(rows) + "\n")
        assert main(["gain", str(csv), "--scheme", "crps_only", "--target-ber", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "gain crps_only vs baseline" in out
        assert "+2.00 dB" in out

    @pytest.mark.parametrize(
        "text,message",
        [
            ("scheme,snr_db,pulses,bit_errors,ber,ci_halfwidth\n", "no rows for baseline scheme"),
            ("scheme,snr_db\nbaseline,-10\n", "missing columns pulses, bit_errors, ber, ci_halfwidth"),
            (None, "No such file or directory"),
        ],
        ids=["no_rows", "missing_columns", "missing_file"],
    )
    def test_gain_command_missing_scheme(self, text, message, tmp_path, capsys):
        csv = tmp_path / "ber.csv"
        if text is not None:
            csv.write_text(text)
        assert main(["gain", str(csv), "--scheme", "crps_only"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_gain_command_names_a_bad_cell(self, tmp_path, capsys):
        csv = tmp_path / "ber.csv"
        rows = ["scheme,snr_db,pulses,bit_errors,ber,ci_halfwidth", "baseline,-10.0,10000,5,5e-4,0.0"]
        csv.write_text("\n".join([*rows, "crps_only,-10.0,x,5,5e-4,0.0"]) + "\n")
        assert main(["gain", str(csv), "--scheme", "crps_only"]) == 2
        message = "invalid literal for int() with base 10: 'x'"
        assert capsys.readouterr().err == f"error: {csv}:3: column pulses: {message}\n"

    @pytest.mark.parametrize("verb", ["design", "ber"])
    @pytest.mark.parametrize(
        "under", [None, "run", "", "--out="], ids=["file", "under_a_file", "empty_in_config", "empty_flag"]
    )
    def test_out_that_cannot_be_a_directory_exits_2_before_design(
        self, verb, under, config_file, tmp_path, capsys, monkeypatch
    ):
        # a regular file, a path under one, or an empty ``out =`` or ``--out=``:
        # one error line, no traceback, and no design run whose results would be lost
        monkeypatch.setattr(cli, "_design_inputs", _no_design)
        if under in ("", "--out="):
            # abspath("") is the working directory, so the value itself is refused
            monkeypatch.chdir(tmp_path)
            if under:
                where, flags = "--out", [under]
            else:
                with open(config_file, "a") as fh:
                    fh.write("out =\n")
                where, flags = f"{config_file}:{len(SMALL_CONFIG.splitlines()) + 1}", []
            assert main([verb, "--config", config_file, "--pulses", "10", *flags]) == 2
            message = f"config error: {where}: bad value '' for 'out' (out must name a directory)\n"
            assert capsys.readouterr().err == message
            assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
            return
        notadir = tmp_path / "notadir"
        notadir.write_text("")
        out = notadir if under is None else notadir / under
        assert main([verb, "--config", config_file, "--pulses", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {notadir} is not a directory\n"
        assert notadir.read_text() == ""

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("bad.cfg", "bogus = 1\n", "bad.cfg:1"),
            ("bad.cfg", None, "bad.cfg: No such file or directory"),
            # ``--config=`` is refused by its flag, not opened as a file
            ("", None, "config error: --config: must name a file\n"),
        ],
        ids=["unknown_key", "missing_file", "empty_path"],
    )
    def test_config_error_exits_2(self, name, text, message, tmp_path, capsys):
        path = str(tmp_path / name) if name else name
        if text is not None:
            pathlib.Path(path).write_text(text)
        assert main(["derive", f"--config={path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and "Traceback" not in err
        if not name:
            assert err == message

    def test_empty_snr_flag_exits_2(self, capsys):
        # ``--snr=`` is a given value, refused, not the default grid
        assert main(["derive", "--snr="]) == 2
        message = "bad value '' for 'snr_db' (could not convert string to float: '')"
        assert capsys.readouterr().err == f"config error: --snr: {message}\n"

    def test_scheme_flag_rejects_unknown(self, config_file, capsys):
        code = main(["ber", "--config", config_file, "--scheme", "warp"])
        assert code == 2

    def test_seed_flag_overrides(self, config_file, capsys):
        assert main(["derive", "--config", config_file, "--seed", "123"]) == 0
        assert "master_seed = 123" in capsys.readouterr().out

    def test_zero_seed_flag_overrides(self, config_file, capsys):
        assert main(["derive", "--config", config_file, "--seed", "0"]) == 0
        assert "master_seed = 0" in capsys.readouterr().out

    def test_repeated_scheme_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["--scheme", "baseline", "--scheme", "baseline", "--snr=-10:-8:2", "--pulses", "64"]
        assert main(["ber", *argv, "--out", str(out)]) == 2
        assert "--scheme:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["0:1:inf", "0:inf:1", "-inf:0:1", "nan:0:1"])
    def test_non_finite_snr_flag_exits_2_before_design(self, snr, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_design_inputs", _no_design)
        out = tmp_path / "run"
        assert main(["ber", f"--snr={snr}", "--pulses", "1", "--out", str(out)]) == 2
        assert "config error: --snr: bad value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line", ["f_c = inf", "f_c = nan", "delta_f = inf", "t_p = nan", "t_r = inf"]
    )
    def test_non_finite_param_exits_2_before_design(self, line, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_design_inputs", _no_design)
        path, out = tmp_path / "run.cfg", tmp_path / "run"
        path.write_text(f"{line}\n")
        assert main(["ber", "--config", str(path), "--pulses", "1", "--out", str(out)]) == 2
        key = line.split()[0]
        assert f"{key} must be positive and finite" in capsys.readouterr().err.lower()
        assert not out.exists()

    def test_flag_errors_name_the_flag(self, capsys):
        assert main(["derive", "--snr", "1:2"]) == 2
        assert "config error: --snr: bad value '1:2' for 'snr_db'" in capsys.readouterr().err


def _no_design(config):
    raise AssertionError("the design ran")


CONFIG_KEYS = {
    *("m", "k", "l_r", "l_c", "f_c", "delta_f", "theta", "t_p", "t_r", "d", "master_seed"),
    *("schemes", "snr_db", "pulses", "out", "full", "channel_aware_med", "early_stop"),
}
COMMON_OPTIONS = {
    *("-h", "--help", "--config", "--scheme", "--snr", "--pulses", "--seed", "--out"),
    *("--full", "--channel-aware-med", "--early-stop"),
}


class TestOptionSurface:
    """The settable values: config keys and each verb's flags."""

    def test_config_keys(self):
        # test_every_param_key_round_trips reads every one of them from a file
        assert cli._CONFIG_KEYS == CONFIG_KEYS

    def test_verb_options(self):
        parser = cli._parser()
        (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            verb: {s for action in sp._actions for s in action.option_strings}
            for verb, sp in verbs.choices.items()
        }
        assert options == {
            "derive": COMMON_OPTIONS,
            "design": COMMON_OPTIONS,
            "ber": COMMON_OPTIONS,
            "complexity": COMMON_OPTIONS,
            "gain": {"-h", "--help", "--baseline", "--scheme", "--target-ber"},
        }
        assert {s for a in parser._actions for s in a.option_strings} == {
            "-h",
            "--help",
            "--version",
        }


class TestBuildRunConfigPrecedence:
    def test_cli_overrides_file(self, config_file):
        args = argparse.Namespace(
            config=config_file,
            scheme=["baseline,codebook_only"],
            snr="-10:0:5",
            pulses=999,
            seed=None,
            out="override",
            full=True,
            channel_aware_med=False,
            early_stop=False,
        )
        config = build_run_config(args)
        assert config.schemes == (Scheme.BASELINE, Scheme.CODEBOOK_ONLY)
        assert (config.snr_start, config.snr_stop, config.snr_step) == (-10.0, 0.0, 5.0)
        assert config.pulses == 999
        assert config.out == "override"
        assert config.full
        # file-set values survive where no override was given
        assert config.params.master_seed == 99
